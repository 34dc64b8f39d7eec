// K-D-B-tree (Robinson, SIGMOD 1981) — the disjoint-partition baseline of
// Section 2.1.
//
// Region pages hold disjoint rectangles that exactly partition the parent
// region; point pages hold the data points. Splitting a region page can
// force splits of descendants that cross the split plane, which is why the
// K-D-B-tree cannot guarantee minimum storage utilization — the weakness
// the paper measures. Following Section 3.1, split planes are chosen
// R+-tree style (minimizing forced splits) rather than by cyclic dimension
// choice.

#ifndef SRTREE_KDB_KDB_TREE_H_
#define SRTREE_KDB_KDB_TREE_H_

#include <vector>

#include "src/geometry/rect.h"
#include "src/index/paged_index.h"

namespace srtree {

class KdbTree : public PagedIndex {
 public:
  struct Options {
    int dim = 2;
    size_t page_size = kDefaultPageSize;
    size_t leaf_data_size = 512;
    // The indexed domain; the root region page partitions exactly this
    // rectangle, so inserts outside it are rejected.
    double domain_lo = -1e9;
    double domain_hi = 1e9;
  };

  explicit KdbTree(const Options& options);

  // Type tag embedded in the v2 index-image container.
  static constexpr char kImageTag[] = "kdbtree";

  // Checksummed atomic image persistence (see PointIndex::Save).
  Status Save(const std::string& path) const override;
  static StatusOr<std::unique_ptr<KdbTree>> Open(const std::string& path);

  int dim() const override { return options_.dim; }
  std::string name() const override { return "K-D-B-tree"; }

  TreeStats GetTreeStats() const override;
  Status CheckInvariants() const override;
  void VisitNodes(const NodeVisitor& visitor) const override;
  AuditSpec GetAuditSpec() const override;

  // Reports the MBR of the points in each point page (the K-D-B-tree's own
  // regions tile the whole domain, so their raw volumes are meaningless for
  // the Figure 5-style comparisons).
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
  // Removes the point. Underfull pages are left in place (the joining
  // reorganization of Robinson's paper is not needed by any experiment);
  // the partition invariant is preserved.
  Status DeleteLocked(PointView point, uint32_t oid) override
      REQUIRES(writer_mu_);

 private:
  struct LeafEntry {
    Point point;
    uint32_t oid;
  };

  struct NodeEntry {
    Rect region;
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

  // --- page I/O ---
  Node ReadNode(PageId id, int level) const;  // writer side, counted
  Node PeekNode(PageId id) const;
  void WriteNode(const Node& node);
  void SerializeNode(const Node& node, char* buf) const;
  Node DeserializeNode(const char* buf, PageId id) const;

  size_t Capacity(const Node& node) const {
    return node.is_leaf() ? leaf_cap_ : node_cap_;
  }

  Rect Domain() const;

  // Descends to the point page responsible for `point` and stores it,
  // splitting pages as needed (Insert's body, before the commit). Fails,
  // staging nothing, if the page would hold more than leaf_cap_ copies of
  // `point`.
  Status InsertPoint(PointView point, uint32_t oid);

  // --- split machinery ---
  // Splits an over-full node (recursively if a half still overflows) and
  // appends the resulting (region, child) entries to `out`. `region` is the
  // region the node was responsible for; the produced entries partition it.
  void SplitToEntries(Node&& node, const Rect& region,
                      std::vector<NodeEntry>& out);
  // Chooses the split plane for an over-full node: point pages split at the
  // most balanced distinct value on the max-spread dimension; region pages
  // pick the child boundary minimizing forced splits.
  void ChoosePlane(const Node& node, const Rect& region, int& dim,
                   double& value) const;
  // Splits the subtree rooted at `entry` with the plane <dim, value>, which
  // strictly crosses its region; returns the two half entries. This is the
  // "forced split" that propagates downward.
  std::pair<NodeEntry, NodeEntry> ForceSplit(const NodeEntry& entry,
                                             int node_level, int dim,
                                             double value);
  static Rect ClipLo(const Rect& region, int dim, double value);
  static Rect ClipHi(const Rect& region, int dim, double value);

  // --- search: the bound policy the shared traversals
  //     (src/index/traversal.h) run with; defined in the .cc ---
  struct SearchBound;
  bool DeleteFrom(PageId id, int level, PointView point, uint32_t oid);

  // --- validation / stats ---
  void VisitSubtree(const Node& node, std::vector<int>& path,
                    const NodeVisitor& visitor) const;
  void CollectStats(const Node& node, TreeStats& stats) const;
  void CollectRegions(const Node& node, RegionStatsCollector& collector) const;

  Options options_;
  size_t leaf_cap_;
  size_t node_cap_;
  // Open()'s view of the pages (PagedIndex::ValidatePageTree).
  PageTreeShape page_shape_;

  PageId root_id_;
  int root_level_ = 0;
  size_t size_ = 0;
  MaintenanceStats maintenance_;
};

}  // namespace srtree

#endif  // SRTREE_KDB_KDB_TREE_H_
