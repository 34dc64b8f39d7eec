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

#ifndef SRTREE_INDEX_VAM_PARTITION_H_
#define SRTREE_INDEX_VAM_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <span>
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
};

class VamLoader {
 public:
  // The largest contiguous row block the loader gathers.
  static constexpr size_t kGatherBytes = size_t{8} << 20;

  // Row r is points[r] (all of one dimensionality) until a split moves
  // it. The loader reads `points` until it is destroyed.
  explicit VamLoader(const std::vector<Point>& points);

  VamRange all() const { return {0, slots_.size()}; }

  // Copies rows `range` into the contiguous block when they fit it and
  // it does not hold them yet. Reads and splits inside the range then run
  // on the block, until a later Gather replaces it.
  void Gather(VamRange range);

  PointView row(size_t r) const {
    if (r >= block_.begin && r < block_.end) {
      return {block_rows_.data() + (r - block_.begin) * dim_, dim_};
    }
    return points_[slots_[r]];
  }
  // The bulk-load index of the point in row r.
  uint32_t slot(size_t r) const { return slots_[r]; }
  std::span<const uint32_t> slots(VamRange range) const {
    return std::span<const uint32_t>(slots_).subspan(range.begin,
                                                     range.size());
  }

  // The dimension along which rows `range` (non-empty) spread most.
  int MaxVarianceDim(VamRange range) const;

  // Partitions rows `range` into pieces of at most `piece_cap` rows by
  // recursive variance-approximate-median binary splits, appending them
  // to `pieces` left to right. Permutes the rows in `range`.
  void SplitIntoPieces(VamRange range, uint64_t piece_cap,
                       std::vector<VamRange>& pieces);

 private:
  bool Holds(VamRange range) const {
    return range.begin >= block_.begin && range.end <= block_.end;
  }
  // Moves the rows of `range` so that offset i holds what offset order[i]
  // held, following the permutation's cycles through one spare row. Marks
  // each placed offset i by setting order[i] = i.
  void Permute(VamRange range, std::vector<uint32_t>& order);

  const std::vector<Point>& points_;
  size_t dim_;
  std::vector<uint32_t> slots_;
  VamRange block_;                  // the rows the block holds
  std::vector<double> block_rows_;  // row-major, at most kGatherBytes
};

}  // namespace srtree

#endif  // SRTREE_INDEX_VAM_PARTITION_H_
