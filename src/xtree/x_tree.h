// X-tree (Berchtold, Keim & Kriegel, VLDB 1996) — the related-work
// structure of Section 2.6, implemented as an extension so the paper's
// open question ("are overlap-free splits and supernodes compatible with
// the SR-tree's ideas?") can be explored empirically.
//
// The X-tree is an R-tree variant that refuses to create high-overlap
// directory nodes:
//   * on directory overflow it first tries the R*-tree topological split;
//   * if the two halves would overlap by more than `max_overlap` of their
//     union, it looks for an overlap-FREE split (a clean gap along some
//     dimension);
//   * if no sufficiently balanced overlap-free split exists, it does not
//     split at all — the node becomes a SUPERNODE spanning one more disk
//     page (reading it costs one read per page, which the I/O accounting
//     reflects).
// Leaves always split (supernodes are a directory concept). Unlike the
// R*-tree, the X-tree does not use forced reinsertion.

#ifndef SRTREE_XTREE_X_TREE_H_
#define SRTREE_XTREE_X_TREE_H_

#include <vector>

#include "src/geometry/rect.h"
#include "src/index/paged_index.h"

namespace srtree {

class XTree : public PagedIndex {
 public:
  struct Options {
    int dim = 2;
    size_t page_size = kDefaultPageSize;
    size_t leaf_data_size = 512;
    double min_utilization = 0.4;
    // Maximum tolerated overlap (intersection / union volume) of a
    // topological split before the overlap-free split is attempted.
    double max_overlap = 0.2;
    // Minimum fraction of entries each side of an overlap-free split must
    // receive; below this the node becomes a supernode instead.
    double min_fanout = 0.35;
  };

  explicit XTree(const Options& options);

  // Type tag embedded in the v2 index-image container.
  static constexpr char kImageTag[] = "xtree";

  // Checksummed atomic image persistence (see PointIndex::Save). Supernode
  // chains are self-contained in the page image (next-page links live in
  // the page headers), so no extra metadata is needed.
  Status Save(const std::string& path) const override;
  static StatusOr<std::unique_ptr<XTree>> Open(const std::string& path);

  int dim() const override { return options_.dim; }
  std::string name() const override { return "X-tree"; }


  TreeStats GetTreeStats() const override;
  Status CheckInvariants() const override;
  void VisitNodes(const NodeVisitor& visitor) const override;
  AuditSpec GetAuditSpec() const override;
  RegionSummary LeafRegionSummary() const override;

  MaintenanceStats GetMaintenanceStats() const override {
    return maintenance_;
  }

  size_t leaf_capacity() const override { return leaf_cap_; }
  // Entries per directory PAGE; a supernode of p pages holds p times this.
  size_t node_capacity() const override { return node_cap_; }
  int height() const { return root_level_ + 1; }

  // X-tree-specific statistics.
  struct SupernodeStats {
    uint64_t supernodes = 0;      // directory nodes spanning > 1 page
    uint64_t supernode_pages = 0; // pages occupied by supernodes
    uint64_t directory_nodes = 0; // all directory nodes
  };
  SupernodeStats GetSupernodeStats() const;
  uint64_t overlap_free_splits() const { return overlap_free_splits_; }
  uint64_t supernode_extensions() const { return supernode_extensions_; }

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
    // Continuation pages after the primary one; non-empty = supernode.
    std::vector<PageId> extra_pages;
    // Number of pages this node is entitled to occupy; grows by supernode
    // extension, shrinks on deletion underflow.
    size_t num_pages = 1;
    std::vector<NodeEntry> children;
    std::vector<LeafEntry> points;

    bool is_leaf() const { return level == 0; }
    size_t count() const { return is_leaf() ? points.size() : children.size(); }
  };

  // --- page I/O (chained pages for supernodes) ---
  Node ReadNode(PageId id, int level) const;  // writer side, counted
  Node PeekNode(PageId id) const;
  // Appends the entries of chain page `page` of `node` (its bytes at `raw`)
  // and returns the next page of the chain (kInvalidPageId at the end).
  PageId DecodePage(const char* raw, PageId page, Node& node) const;
  void WriteNode(Node& node);

  size_t Capacity(const Node& node) const {
    return node.is_leaf() ? leaf_cap_ : node_cap_ * node.num_pages;
  }
  size_t MinEntries(const Node& node) const;
  size_t PerPageCapacity(const Node& node) const {
    return node.is_leaf() ? leaf_cap_ : node_cap_;
  }

  // --- region helpers ---
  static Rect EntryRect(const Node& node, size_t i);
  Rect NodeBoundingRect(const Node& node) const;

  // --- insertion machinery ---
  int ChooseSubtree(const Node& node, const Rect& entry_rect) const;
  void ResolvePath(std::vector<Node>& path, const std::vector<int>& idx);
  void WritePathRefreshingRects(std::vector<Node>& path,
                                const std::vector<int>& idx, int from);
  // R*-tree topological split; fills `order`/`split` with the best
  // distribution and returns the overlap ratio (intersection volume over
  // union volume) of the two bounds.
  double TopologicalSplit(const Node& node, std::vector<size_t>& order,
                          size_t& split) const;
  // Overlap-free split: a clean gap along some dimension with both sides
  // >= min_fanout of the entries. Returns false if none exists.
  bool OverlapFreeSplit(const Node& node, std::vector<size_t>& order,
                        size_t& split) const;
  Node SplitNode(Node& node, const std::vector<size_t>& order, size_t split);
  void GrowRoot(Node& left, Node& right);

  // --- deletion machinery ---
  bool FindLeafPath(const Node& node, PointView point, uint32_t oid,
                    std::vector<Node>& path, std::vector<int>& idx);
  void CondenseTree(std::vector<Node>& path, std::vector<int>& idx);
  void ReinsertOrphans(std::vector<Node>&& dissolved);
  void InsertEntryAtLevel(const NodeEntry& entry, int level);
  void InsertLeafEntry(LeafEntry entry);
  void ShrinkRoot();
  void FreeNodePages(const Node& node);

  // --- search: the bound policy the shared traversals
  //     (src/index/traversal.h) run with; defined in the .cc ---
  struct SearchBound;

  // --- validation / stats ---
  void VisitSubtree(const Node& node, std::vector<int>& path,
                    const NodeVisitor& visitor) const;
  void CollectStats(const Node& node, TreeStats& stats) const;
  void CollectRegions(const Node& node, RegionStatsCollector& collector) const;
  void CollectSupernodes(const Node& node, SupernodeStats& stats) const;

  Options options_;
  size_t leaf_cap_;
  size_t node_cap_;
  // Open()'s view of the pages (PagedIndex::ValidatePageTree).
  PageTreeShape page_shape_;
  size_t leaf_min_;
  size_t node_min_;

  PageId root_id_;
  int root_level_ = 0;
  size_t size_ = 0;
  MaintenanceStats maintenance_;
  uint64_t overlap_free_splits_ = 0;
  uint64_t supernode_extensions_ = 0;
};

}  // namespace srtree

#endif  // SRTREE_XTREE_X_TREE_H_
