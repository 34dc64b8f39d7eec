// VAMSplit R-tree (White & Jain, SPIE 1996) — the optimized static baseline
// of Section 2.4.
//
// The tree is built top-down from the full data set: each recursion splits
// the points with a plane orthogonal to the dimension of highest variance,
// placing the split at the "variance approximate median" rounded to a
// multiple of the capacity of a maximal subtree — guaranteeing the minimum
// number of disk blocks. The resulting structure is an R-tree (MBR node
// entries) queried exactly like the R*-tree, but it is static: Insert and
// Delete return Unimplemented.

#ifndef SRTREE_VAMSPLIT_VAM_SPLIT_R_TREE_H_
#define SRTREE_VAMSPLIT_VAM_SPLIT_R_TREE_H_

#include <vector>

#include "src/geometry/rect.h"
#include "src/index/paged_index.h"

namespace srtree {

class VamSplitRTree : public PagedIndex {
 public:
  struct Options {
    int dim = 2;
    size_t page_size = kDefaultPageSize;
    size_t leaf_data_size = 512;
  };

  explicit VamSplitRTree(const Options& options);

  // Type tag embedded in the v2 index-image container.
  static constexpr char kImageTag[] = "vamsplit";

  // Checksummed atomic image persistence (see PointIndex::Save).
  Status Save(const std::string& path) const override;
  static StatusOr<std::unique_ptr<VamSplitRTree>> Open(
      const std::string& path);

  int dim() const override { return options_.dim; }
  std::string name() const override { return "VAMSplit R-tree"; }

  // Static index: the only way to populate it is BulkLoad (Insert and
  // Delete return Unimplemented).
  Status BulkLoad(const std::vector<Point>& points,
                  const std::vector<uint32_t>& oids) override;

  TreeStats GetTreeStats() const override;
  Status CheckInvariants() const override;
  void VisitNodes(const NodeVisitor& visitor) const override;
  AuditSpec GetAuditSpec() const override;
  RegionSummary LeafRegionSummary() const override;

  size_t leaf_capacity() const override { return leaf_cap_; }
  size_t node_capacity() const override { return node_cap_; }
  int height() const { return root_level_ + 1; }

  std::vector<Neighbor> SearchSnapshot(const PageFile::Snapshot& snap,
                                       PointView query, const QuerySpec& spec,
                                       IoStatsDelta* io) const override;

 protected:
  Status InsertLocked(PointView point, uint32_t oid) override
      REQUIRES(writer_mu_);
  Status DeleteLocked(PointView point, uint32_t oid) override
      REQUIRES(writer_mu_);

 private:
  struct LeafEntry {
    Point point;
    uint32_t oid;
  };

  struct NodeEntry {
    Rect rect;
    PageId child;
  };

  struct Node {
    PageId id = kInvalidPageId;
    int level = 0;
    std::vector<NodeEntry> children;
    std::vector<LeafEntry> points;

    bool is_leaf() const { return level == 0; }
    size_t count() const { return is_leaf() ? points.size() : children.size(); }
  };

  // Item = index into the bulk-load arrays; Build permutes a shared vector.
  using ItemSpan = std::span<uint32_t>;

  // --- page I/O ---
  Node PeekNode(PageId id) const;
  void WriteNode(const Node& node);
  void SerializeNode(const Node& node, char* buf) const;
  Node DeserializeNode(const char* buf, PageId id) const;

  size_t Capacity(const Node& node) const {
    return node.is_leaf() ? leaf_cap_ : node_cap_;
  }

  // --- construction ---
  // Capacity of a full subtree of the given height (0 = leaf).
  uint64_t SubtreeCapacity(int height) const;
  // Builds the subtree over `items` at `height`; returns its page id and
  // the MBR of its points.
  PageId Build(const std::vector<Point>& points,
               const std::vector<uint32_t>& oids, ItemSpan items, int height,
               Rect& mbr);
  // Recursively partitions `items` into pieces of at most `piece_cap`
  // points using variance-approximate-median binary splits.
  void SplitIntoPieces(const std::vector<Point>& points, ItemSpan items,
                       uint64_t piece_cap, std::vector<ItemSpan>& pieces) const;
  int MaxVarianceDim(const std::vector<Point>& points, ItemSpan items) const;

  // --- search: the bound policy the shared traversals
  //     (src/index/traversal.h) run with; defined in the .cc ---
  struct SearchBound;

  // --- validation / stats ---
  void VisitSubtree(const Node& node, std::vector<int>& path,
                    const NodeVisitor& visitor) const;
  void CollectStats(const Node& node, TreeStats& stats) const;
  void CollectRegions(const Node& node, RegionStatsCollector& collector) const;

  Options options_;
  size_t leaf_cap_;
  size_t node_cap_;

  PageId root_id_;
  int root_level_ = 0;
  size_t size_ = 0;
};

}  // namespace srtree

#endif  // SRTREE_VAMSPLIT_VAM_SPLIT_R_TREE_H_
