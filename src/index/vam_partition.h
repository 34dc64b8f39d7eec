// The VAMSplit partition (White & Jain, SPIE 1996) that the top-down bulk
// loads share: the VAMSplit R-tree (VamSplitRTree, src/rstar/) and the
// static SR-tree tier (src/statictier/).
//
// A bulk load builds a tree of the minimal height over the whole data set,
// splitting each subtree's points into pieces with planes orthogonal to the
// dimension of highest variance. Each split point is the "variance
// approximate median" rounded to a multiple of the capacity of a maximal
// subtree one level down, so every piece but the last packs full subtrees
// and the tree uses the minimum number of leaves, ceil(n / leaf capacity).
//
// Because every split point is a multiple of a piece capacity, the shape of
// the tree depends on (n, leaf capacity, node capacity) alone: VamLayout
// lays the node list out, breadth-first, before any point is read. The data
// decides only which point lands in which row.
//
// The build runs in memory order where it can. VamLoader keeps one slot
// per point (its index in the bulk-load arrays) in row order; a split
// permutes the rows, so every piece, and so every subtree, is one range of
// rows. Once a range's rows fit kGatherBytes, the loader gathers them into
// one contiguous row-major block, and every variance pass, split and
// aggregate inside that range is a sequential scan of the block; above it,
// rows are read through their slots. A full copy of the data would raise
// the build's peak memory by its size, so only the bounded block is kept.
// A split gathers its rows' keys into one column, selects over row offsets
// that compare by key alone, and then applies that permutation to the
// slots (and block rows) in place. The comparisons see the same keys in
// the same positions as a selection over an index array into the points,
// so the permutation, and with it every piece, sum and page, is the same.
//
// VamLoader::Walk builds the whole tree on every CPU the process may run
// on. It visits the node list top-down: a node's hook (the tree's per-node
// aggregates) reads the node's rows in the order its parent's split left
// them, and then the node's rows are split into its children's ranges.
// Each binary split leaves two disjoint row ranges, and with them disjoint
// sets of subtrees, so the right one is handed to an idle worker (a
// fork-join whose calling thread is one of the workers), while every sum
// over a range stays on one thread in row order: the pages do not depend
// on the number of workers. The workers touch no heap: the caller sizes
// the split scratch (one key column and one order array over all rows; a
// split of rows [b, e) uses entries [b, e)), one gather block per worker
// and the hook's output slots before any worker starts. Each tree then
// writes its pages from the node list on the calling thread.

#ifndef SRTREE_INDEX_VAM_PARTITION_H_
#define SRTREE_INDEX_VAM_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/geometry/point.h"

namespace srtree {

// Points a full subtree of the given height holds (0 = one leaf).
uint64_t VamSubtreeCapacity(size_t leaf_cap, size_t node_cap, int height);

// The smallest height whose full subtree holds `n` points.
int VamHeight(size_t leaf_cap, size_t node_cap, uint64_t n);

// Rows [begin, end) of a VamLoader.
struct VamRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
  bool operator==(const VamRange&) const = default;
};

// One node of a bulk load's tree.
struct VamNode {
  int level = 0;  // 0 = leaf
  VamRange range;
  // Inner nodes: the children are the consecutive list entries
  // [first_child, first_child + child_count).
  size_t first_child = 0;
  size_t child_count = 0;
};

// The tree a bulk load of n > 0 points builds: the root first, then every
// level left to right, so the list order is breadth-first and the leaves
// come last.
struct VamLayout {
  VamLayout(uint64_t n, size_t leaf_cap, size_t node_cap);

  // The most rows each child of `node` (an inner node) may hold.
  uint64_t piece_cap(const VamNode& node) const {
    return VamSubtreeCapacity(leaf_cap, node_cap, node.level - 1);
  }

  size_t leaf_cap;
  size_t node_cap;
  std::vector<VamNode> nodes;
};

// Tests only: caps the number of workers a Walk runs at `workers` (0 lifts
// the cap). The CPUs available to the process stay the upper bound.
void SetVamWorkersForTest(size_t workers);

class VamLoader {
 public:
  // The largest contiguous row block a worker gathers.
  static constexpr size_t kGatherBytes = size_t{8} << 20;

  // One worker's view of the rows: its own gather block where that holds
  // them, the points through their slots elsewhere.
  class Rows {
   public:
    // Calls fn(i, row(range.begin + i)) for the rows of `range` in order.
    // Rows read through their slots are loaded a few rows ahead of use.
    template <typename Fn>
    void ForEach(VamRange range, Fn&& fn) const {
      const size_t dim = loader_->dim_;
      if (Holds(range)) {
        const double* row = block_rows_ + (range.begin - block_.begin) * dim;
        for (size_t i = 0; i < range.size(); ++i, row += dim) {
          fn(i, PointView(row, dim));
        }
        return;
      }
      const std::vector<Point>& points = loader_->points_;
      const uint32_t* const slots = loader_->slots_.data();
      constexpr size_t kAhead = 8;
      for (size_t r = range.begin; r < range.end; ++r) {
        // The slot's point two steps ahead, its coordinates one step.
        if (r + 2 * kAhead < range.end) {
          __builtin_prefetch(&points[slots[r + 2 * kAhead]]);
        }
        if (r + kAhead < range.end) {
          __builtin_prefetch(points[slots[r + kAhead]].data());
        }
        fn(r - range.begin, row(r));
      }
    }

   private:
    friend class VamLoader;
    PointView row(size_t r) const {
      if (r >= block_.begin && r < block_.end) {
        return {block_rows_ + (r - block_.begin) * loader_->dim_,
                loader_->dim_};
      }
      return loader_->points_[loader_->slots_[r]];
    }
    bool Holds(VamRange range) const {
      return range.begin >= block_.begin && range.end <= block_.end;
    }

    const VamLoader* loader_ = nullptr;
    VamRange block_;                // the rows the block holds
    double* block_rows_ = nullptr;  // row-major, loader_->block_rows_ rows
    double* scratch_ = nullptr;     // two variance sums and a spare row
  };

  // Workers hold the loader's address.
  VamLoader(const VamLoader&) = delete;
  VamLoader& operator=(const VamLoader&) = delete;

  // Called once per node, with the rows the node holds: `rows` reads rows
  // nodes[node].range, as its parent's split left them. Calls for nodes
  // of disjoint subtrees run concurrently, on any worker; a hook writes
  // only the caller-allocated output of its own node and allocates
  // nothing.
  using NodeHook = std::function<void(size_t node, const Rows& rows)>;

  // Builds the tree `layout` (laid out for points.size() points) on a
  // loader over `points`, visiting it top-down on every worker: calls
  // `hook` (if set) at each node, then splits the node's rows into its
  // children's ranges. Returns the slots in the order the splits leave
  // them: the points of node i are slots[nodes[i].range]. The loader's
  // other memory is freed when it returns.
  static std::vector<uint32_t> Walk(const std::vector<Point>& points,
                                    const VamLayout& layout,
                                    const NodeHook& hook);

 private:
  // Rows `range` of layout node `node`, holding one or more of its
  // pieces: the unit of work a worker takes.
  struct Task {
    size_t node = 0;
    VamRange range;
  };
  class WorkQueue;  // in the .cc

  // Row r is points[r] (all of one dimensionality) until a split moves
  // it. Sizes one gather block and its scratch per worker, in one
  // allocation.
  VamLoader(const std::vector<Point>& points, size_t workers);
  // Copies rows `range` into the worker's block when they fit it and it
  // does not hold them yet. Reads and splits inside the range then run on
  // the block, until a later Gather replaces it.
  void Gather(Rows& rows, VamRange range) const;
  // The dimension along which rows `range` (non-empty) spread most.
  int MaxVarianceDim(const Rows& rows, VamRange range) const;
  // One variance-approximate-median binary split of rows `range` (more
  // than `piece_cap` of them); returns how many rows it puts left.
  // Touches rows, keys and order entries of `range` only.
  size_t SplitOnce(Rows& rows, VamRange range, uint64_t piece_cap);
  // Moves the rows of `range` so that offset i holds what offset order[i]
  // held, following the permutation's cycles through the spare row. Marks
  // each placed offset i by setting order[i] = i.
  void Permute(Rows& rows, VamRange range);
  // Calls the hook at node `index`, then builds its pieces.
  void Visit(WorkQueue& queue, const VamLayout& layout, const NodeHook& hook,
             Rows& rows, size_t index);
  // Splits `task`'s rows into its node's pieces and visits each piece's
  // child, offering the right half of each large enough split to an idle
  // worker.
  void BuildPieces(WorkQueue& queue, const VamLayout& layout,
                   const NodeHook& hook, Rows& rows, Task task);

  const std::vector<Point>& points_;
  size_t dim_;
  std::vector<uint32_t> slots_;
  std::vector<double> key_;     // one split key per row
  std::vector<uint32_t> order_;  // one selection offset per row
  size_t block_rows_;            // rows a gather block holds
  std::unique_ptr<double[]> arena_;  // every worker's block and scratch
  std::vector<Rows> workers_;
};

}  // namespace srtree

#endif  // SRTREE_INDEX_VAM_PARTITION_H_
