// R*-tree (Beckmann, Kriegel, Schneider, Seeger — SIGMOD 1990), used as a
// point access method exactly as in Section 2.2 of the SR-tree paper.
//
// Region shape: minimum bounding rectangles. Insertion uses the R*
// ChooseSubtree rule (least overlap enlargement at the leaf level, least
// area enlargement above), the margin-driven topological split, and forced
// reinsertion of 30% of the entries the first time a level overflows during
// an insertion.
//
// Directory rectangles cover the first `active_dims` coordinates of each
// vector (all of them by default). Every region computation — fanout,
// bounding rects, split axes, delete descent and the search MINDIST — runs
// on that prefix, while leaves keep full vectors, so answers stay exact:
// the prefix MINDIST lower-bounds the full distance. With fewer active
// dimensions this is the TV-tree below.

#ifndef SRTREE_RSTAR_RSTAR_TREE_H_
#define SRTREE_RSTAR_RSTAR_TREE_H_

#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "src/geometry/rect.h"
#include "src/index/paged_index.h"

namespace srtree {

class RStarTree : public PagedIndex {
 public:
  struct Options {
    int dim = 2;
    // Dimensions the directory rectangles cover; 0 = all `dim` of them.
    int active_dims = 0;
    size_t page_size = kDefaultPageSize;
    // Attribute payload stored with each point (the paper uses 512 bytes).
    size_t leaf_data_size = 512;
    // Minimum node fill as a fraction of capacity (paper: 40%).
    double min_utilization = 0.4;
    // Fraction of entries evicted by forced reinsertion (paper: 30%).
    double reinsert_fraction = 0.3;
  };

  explicit RStarTree(const Options& options);

  // Type tag embedded in the v2 index-image container.
  static constexpr char kImageTag[] = "rstar";

  // Checksummed atomic image persistence (see PointIndex::Save). The image
  // records the resolved active dimension count, so the reopened directory
  // geometry matches the saved pages.
  Status Save(const std::string& path) const override;
  static StatusOr<std::unique_ptr<RStarTree>> Open(const std::string& path);

  int dim() const override { return options_.dim; }
  int active_dims() const { return active_dims_; }
  std::string name() const override { return "R*-tree"; }

  TreeStats GetTreeStats() const override;
  Status CheckInvariants() const override;
  void VisitNodes(const NodeVisitor& visitor) const override;
  AuditSpec GetAuditSpec() const override;
  // Leaf regions are rectangles in the active subspace; their volumes and
  // diagonals are measured there.
  RegionSummary LeafRegionSummary() const override;

  MaintenanceStats GetMaintenanceStats() const override {
    return maintenance_;
  }

  // Fanout limits implied by the page layout (Table 1 of the paper).
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

  // Opens an image saved under Tree::kImageTag as a `Tree`; an image saved
  // under any other tag fails. Defined for RStarTree and TvRTree.
  template <typename Tree>
  static StatusOr<std::unique_ptr<Tree>> OpenImage(const std::string& path);

 private:
  struct LeafEntry {
    Point point;  // full vector
    uint32_t oid;
  };

  struct NodeEntry {
    Rect rect;  // over the active dimensions only
    PageId child;
  };

  struct Node {
    PageId id = kInvalidPageId;
    int level = 0;  // 0 = leaf
    std::vector<NodeEntry> children;  // level > 0
    std::vector<LeafEntry> points;    // level == 0

    bool is_leaf() const { return level == 0; }
    size_t count() const { return is_leaf() ? points.size() : children.size(); }
  };

  // An entry awaiting (re)insertion at a given level.
  struct Pending {
    int level;
    LeafEntry leaf;   // valid when level == 0
    NodeEntry node;   // valid when level > 0
  };

  // The tag Save() writes.
  virtual const char* image_tag() const { return kImageTag; }

  // First active_dims_ coordinates of a full vector.
  PointView ActiveView(PointView p) const {
    return p.subspan(0, static_cast<size_t>(active_dims_));
  }

  // --- page I/O ---
  Node ReadNode(PageId id, int level) const;  // writer side, counted
  Node PeekNode(PageId id) const;  // no I/O accounting
  void WriteNode(const Node& node);
  void SerializeNode(const Node& node, char* buf) const;
  Node DeserializeNode(const char* buf, PageId id) const;

  size_t Capacity(const Node& node) const {
    return node.is_leaf() ? leaf_cap_ : node_cap_;
  }
  size_t MinEntries(const Node& node) const {
    return node.is_leaf() ? leaf_min_ : node_min_;
  }

  // --- region helpers (active subspace) ---
  Rect EntryRect(const Node& node, size_t i) const;
  Rect NodeBoundingRect(const Node& node) const;

  // --- insertion machinery ---
  void ProcessPending(std::deque<Pending>& pending);
  void InsertPending(const Pending& item, std::deque<Pending>& pending);
  int ChooseSubtree(const Node& node, const Rect& entry_rect) const;
  void ResolvePath(std::vector<Node>& path, std::vector<int>& idx,
                   std::deque<Pending>& pending);
  void WritePathRefreshingRects(std::vector<Node>& path,
                                const std::vector<int>& idx, int from);
  std::vector<Pending> RemoveForReinsert(Node& node);
  Node SplitNode(Node& node);
  void GrowRoot(Node& left, Node& right);

  // --- deletion machinery ---
  bool FindLeafPath(const Node& node, PointView point, uint32_t oid,
                    std::vector<Node>& path, std::vector<int>& idx);
  void CondenseTree(std::vector<Node>& path, std::vector<int>& idx);
  void ShrinkRoot();

  // --- search: the bound policy the shared traversals
  //     (src/index/traversal.h) run with; defined in the .cc ---
  struct SearchBound;

  // --- validation / stats ---
  void VisitSubtree(const Node& node, std::vector<int>& path,
                    const NodeVisitor& visitor) const;
  void CollectStats(const Node& node, TreeStats& stats) const;
  void CollectRegions(const Node& node, RegionStatsCollector& collector) const;

  Options options_;
  int active_dims_;  // resolved: 1..dim
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

  // Levels that already used forced reinsertion during the current
  // top-level Insert/Delete (the R* "first overflow per level" rule).
  std::set<int> reinserted_levels_;
};

// TV-tree in its fixed-telescope form (Lin, Jagadish & Faloutsos, VLDB
// Journal 1994) — the Section 2.5 related work.
//
// The TV-tree orders dimensions by significance and indexes only a few
// "active" ones, telescoping to less significant dimensions when vectors
// share exact coordinates on the active ones. As the paper notes
// (Section 2.5, citing the SS-tree authors), real-valued feature vectors
// essentially never share coordinates, so the telescoping never engages
// and "the effectiveness of the TV-tree results in only the reduction of
// dimensions". What remains is an R*-tree with fewer active dimensions
// (boosting fanout); this class supplies only its default, name and tag.
class TvRTree : public RStarTree {
 public:
  // active_dims = 0 selects min(8, dim).
  explicit TvRTree(const Options& options)
      : RStarTree(WithDefaultActiveDims(options)) {}

  static constexpr char kImageTag[] = "tvtree";
  static StatusOr<std::unique_ptr<TvRTree>> Open(const std::string& path);

  std::string name() const override { return "TV-tree"; }

 private:
  static Options WithDefaultActiveDims(Options options) {
    if (options.active_dims <= 0) {
      options.active_dims = std::min(8, options.dim);
    }
    return options;
  }
  const char* image_tag() const override { return kImageTag; }
};

}  // namespace srtree

#endif  // SRTREE_RSTAR_RSTAR_TREE_H_
