// SS-tree (White & Jain, ICDE 1996) — the similarity-indexing baseline the
// SR-tree improves upon (Section 2.3 of the paper).
//
// Region shape: bounding spheres centered at the centroid of the underlying
// points. Insertion descends to the child with the nearest centroid; splits
// choose the dimension with the highest coordinate variance of the child
// centroids; forced reinsertion evicts 30% of a node's entries unless that
// node already reinserted during the current insertion.

#ifndef SRTREE_SSTREE_SS_TREE_H_
#define SRTREE_SSTREE_SS_TREE_H_

#include <deque>
#include <set>
#include <vector>

#include "src/geometry/sphere.h"
#include "src/index/paged_index.h"

namespace srtree {

class SSTree : public PagedIndex {
 public:
  struct Options {
    int dim = 2;
    size_t page_size = kDefaultPageSize;
    size_t leaf_data_size = 512;
    double min_utilization = 0.4;
    double reinsert_fraction = 0.3;
  };

  explicit SSTree(const Options& options);

  // Type tag embedded in the v2 index-image container.
  static constexpr char kImageTag[] = "sstree";

  // Checksummed atomic image persistence (see PointIndex::Save).
  Status Save(const std::string& path) const override;
  static StatusOr<std::unique_ptr<SSTree>> Open(const std::string& path);

  int dim() const override { return options_.dim; }
  std::string name() const override { return "SS-tree"; }


  TreeStats GetTreeStats() const override;
  Status CheckInvariants() const override;
  void VisitNodes(const NodeVisitor& visitor) const override;
  AuditSpec GetAuditSpec() const override;

  // Reports both the leaf bounding spheres (the SS-tree's real regions) and
  // the bounding rectangles of the same leaves — the Figure 6 measurement.
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
    Point point;
    uint32_t oid;
  };

  struct NodeEntry {
    Sphere sphere;    // center = centroid of underlying points
    uint32_t weight;  // number of points in the subtree
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

  // --- region helpers ---
  // Centroid of the entries of `node` (weighted by subtree size for inner
  // nodes) and total weight.
  Point NodeCentroid(const Node& node, uint32_t& weight) const;
  // The parent-entry sphere/weight describing `node`: center = centroid,
  // radius = max distance from the centroid to child spheres (or points).
  NodeEntry ComputeEntry(const Node& node) const;
  PointView EntryCentroid(const Node& node, size_t i) const;

  // --- insertion machinery ---
  void ProcessPending(std::deque<Pending>& pending);
  void InsertPending(const Pending& item, std::deque<Pending>& pending);
  int ChooseSubtree(const Node& node, PointView centroid) const;
  void ResolvePath(std::vector<Node>& path, std::vector<int>& idx,
                   std::deque<Pending>& pending);
  void WritePathRefreshingEntries(std::vector<Node>& path,
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
  size_t leaf_cap_;
  size_t node_cap_;
  size_t leaf_min_;
  size_t node_min_;

  PageId root_id_;
  int root_level_ = 0;
  size_t size_ = 0;
  MaintenanceStats maintenance_;

  // Nodes that already used forced reinsertion during the current top-level
  // insertion (the SS-tree's per-node rule, Section 2.3).
  std::set<PageId> reinserted_nodes_;
};

}  // namespace srtree

#endif  // SRTREE_SSTREE_SS_TREE_H_
