// TV-tree in its fixed-telescope form (Lin, Jagadish & Faloutsos, VLDB
// Journal 1994) — the Section 2.5 related work.
//
// The TV-tree orders dimensions by significance and indexes only a few
// "active" ones, telescoping to less significant dimensions when vectors
// share exact coordinates on the active ones. As the paper notes
// (Section 2.5, citing the SS-tree authors), real-valued feature vectors
// essentially never share coordinates, so the telescoping never engages
// and "the effectiveness of the TV-tree results in only the reduction of
// dimensions". This class implements precisely that residual structure: an
// R*-tree whose directory rectangles cover only the first `active_dims`
// dimensions (boosting fanout), while leaves store full vectors so query
// results remain exact — the active-dimension MINDIST is a valid lower
// bound of the true distance.

#ifndef SRTREE_TVTREE_TV_R_TREE_H_
#define SRTREE_TVTREE_TV_R_TREE_H_

#include <deque>
#include <set>
#include <vector>

#include "src/geometry/rect.h"
#include "src/index/paged_index.h"

namespace srtree {

class TvRTree : public PagedIndex {
 public:
  struct Options {
    int dim = 2;          // full dimensionality of the stored vectors
    int active_dims = 0;  // indexed dimensions; 0 = min(8, dim)
    size_t page_size = kDefaultPageSize;
    size_t leaf_data_size = 512;
    double min_utilization = 0.4;
    double reinsert_fraction = 0.3;
  };

  explicit TvRTree(const Options& options);

  // Type tag embedded in the v2 index-image container.
  static constexpr char kImageTag[] = "tvtree";

  // Checksummed atomic image persistence (see PointIndex::Save). The image
  // records the RESOLVED active dimension count, so an index saved with
  // active_dims = 0 reopens with the same directory geometry.
  Status Save(const std::string& path) const override;
  static StatusOr<std::unique_ptr<TvRTree>> Open(const std::string& path);

  int dim() const override { return options_.dim; }
  int active_dims() const { return active_dims_; }
  std::string name() const override { return "TV-tree"; }


  TreeStats GetTreeStats() const override;
  Status CheckInvariants() const override;
  void VisitNodes(const NodeVisitor& visitor) const override;
  AuditSpec GetAuditSpec() const override;

  // Leaf regions are rectangles in the ACTIVE subspace; their volumes and
  // diagonals are measured there.
  RegionSummary LeafRegionSummary() const override;

  MaintenanceStats GetMaintenanceStats() const override {
    return maintenance_;
  }

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
    Point point;  // full vector
    uint32_t oid;
  };

  struct NodeEntry {
    Rect rect;  // over the active dimensions only
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

  struct Pending {
    int level;
    LeafEntry leaf;
    NodeEntry node;
  };

  // First active_dims_ coordinates of a full vector.
  PointView ActiveView(PointView p) const {
    return p.subspan(0, static_cast<size_t>(active_dims_));
  }

  // --- page I/O ---
  Node ReadNode(PageId id, int level) const;  // writer side, counted
  Node PeekNode(PageId id) const;
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

  // --- insertion machinery (R*-tree algorithms in the active subspace) ---
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
  int active_dims_;
  size_t leaf_cap_;
  size_t node_cap_;
  size_t leaf_min_;
  size_t node_min_;

  PageId root_id_;
  int root_level_ = 0;
  size_t size_ = 0;
  MaintenanceStats maintenance_;
  std::set<int> reinserted_levels_;
};

}  // namespace srtree

#endif  // SRTREE_TVTREE_TV_R_TREE_H_
