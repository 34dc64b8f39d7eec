// SR-tree (Katayama & Satoh, SIGMOD 1997) — the paper's contribution and
// this library's primary index structure.
//
// A region is the INTERSECTION of a bounding sphere and a bounding
// rectangle (Section 4.1):
//   * insertion is centroid-based, inherited from the SS-tree;
//   * the parent sphere radius is min(d_s, d_r): the max distance from the
//     centroid to the child spheres vs. to the child rectangles
//     (Section 4.2), which keeps spheres tighter than the SS-tree's;
//   * the bounding rectangle is the exact MBR, maintained as in the R-tree;
//   * nearest-neighbor search uses MINDIST = max(sphere, rectangle)
//     (Section 4.4), a sharper lower bound than either shape alone.
//
// The node entry stores both shapes, so its fanout is one third of the
// SS-tree's and two thirds of the R*-tree's — the Section 5.3 trade-off the
// experiments quantify.
//
// Concurrency (single writer / many readers, snapshot isolation): unlike
// the other structures in this library, the SR-tree serves queries while it
// mutates. Insert/Delete run under writer_mu_, stage every page update
// through PageFile::StageWrite (copy-on-write), and finish by committing a
// new page-table version whose metadata words carry (root id, root level,
// size). Every query — Search() or a pinned IndexSnapshot — reads one
// committed version under an EpochGuard, so it observes an atomic tree
// state: either entirely before or entirely after any concurrent commit,
// never a half-applied mutation. Retired versions are reclaimed by the
// epoch scheme (src/storage/epoch.h). Structural accessors that walk
// working state (GetTreeStats, VisitNodes, Save, ...) take writer_mu_ and
// therefore exclude the writer, not queries.
//
// Page layout: nodes are serialized dimension-major (SoA, see
// src/index/soa_page.h), with the same bytes per entry as the paper's
// row-major entries, so the Table 1 fanouts are unchanged:
//   leaf:  [header] coords (dim x count doubles) | oids (count u32) |
//          leaf-data area (count x leaf_data_size bytes, zero)
//   inner: [header] centers | radii | rect lo | rect hi | weights (u32) |
//          child page ids (u32)
// The writer decodes its working pages in place into reused Node storage
// (ReadNode) and serializes nodes straight into the buffer StageWrite
// hands back (WriteNode). A query never decodes: it overlays SoaBlock views
// on the pinned version's own page buffer (PageFile::Snapshot::ReadInPlace,
// or a pinned BufferPool frame) and feeds them to the distance kernels —
// no lock, no copy, no per-entry decode, no allocation per page read. The
// image header records the layout; Open() rejects images in the retired
// row-major layout.

#ifndef SRTREE_CORE_SR_TREE_H_
#define SRTREE_CORE_SR_TREE_H_

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/geometry/kernel.h"
#include "src/geometry/rect.h"
#include "src/geometry/sphere.h"
#include "src/index/knn.h"
#include "src/index/point_index.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/epoch.h"
#include "src/storage/page_file.h"

namespace srtree {

class SRTree : public PointIndex {
 public:
  struct Options {
    int dim = 2;
    size_t page_size = kDefaultPageSize;
    size_t leaf_data_size = 512;
    double min_utilization = 0.4;
    double reinsert_fraction = 0.3;

    // Ablation switches (the paper's design choices; both true = SR-tree).
    // When use_rect_in_radius is false, the parent sphere radius falls back
    // to the SS-tree rule d_s (Section 4.2's min(d_s, d_r) disabled).
    bool use_rect_in_radius = true;
    // When use_rect_in_mindist is false, k-NN pruning uses only the sphere
    // MINDIST (Section 4.4's max(d_s, d_r) disabled).
    bool use_rect_in_mindist = true;
  };

  explicit SRTree(const Options& options);

  // Type tag embedded in the v2 index-image container.
  static constexpr char kImageTag[] = "srtree";

  // Persists the index — options, tree metadata, and the full page file —
  // as one checksummed image at `path`, written atomically (see
  // PointIndex::Save). Takes writer_mu_, so it saves a committed-quiesced
  // state, never a half-applied mutation.
  Status Save(const std::string& path) const override EXCLUDES(writer_mu_);

  // Opens an index previously written by Save(); the options are restored
  // from the file. Only the current v2 image in the SoA page layout is
  // readable — a pre-v2 legacy file or a row-major-layout image fails with
  // an explicit "re-save" error.
  static StatusOr<std::unique_ptr<SRTree>> Open(const std::string& path);

  int dim() const override { return options_.dim; }
  // Size of the most recently committed version (safe against the writer:
  // reads the committed metadata, not working state).
  size_t size() const override;
  std::string name() const override { return "SR-tree"; }

  Status Insert(PointView point, uint32_t oid) override
      EXCLUDES(writer_mu_);
  Status Delete(PointView point, uint32_t oid) override
      EXCLUDES(writer_mu_);

  // Pins the current committed version: queries against the returned
  // snapshot are unaffected by concurrent Insert/Delete commits, and
  // version() reports the pinned PageFile version.
  [[nodiscard]] std::unique_ptr<IndexSnapshot> AcquireSnapshot()
      const override;

  // Enumerates every stored (point, oid) pair (the tiered-index compaction
  // feed); walks working state under writer_mu_, excluding the writer.
  Status ExportEntries(const std::function<void(PointView, uint32_t)>& fn)
      const override EXCLUDES(writer_mu_);

  TreeStats GetTreeStats() const override EXCLUDES(writer_mu_);
  Status CheckInvariants() const override;
  void VisitNodes(const NodeVisitor& visitor) const override
      EXCLUDES(writer_mu_);
  AuditSpec GetAuditSpec() const override;

  // Reports both shapes of the leaf regions; the true region (their
  // intersection) is bounded above by each (Section 5.2).
  RegionSummary LeafRegionSummary() const override EXCLUDES(writer_mu_);

  MaintenanceStats GetMaintenanceStats() const override EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    return maintenance_;
  }

  // Forwarders to the page file's counters. The reset is only meaningful
  // on a quiesced index — see PointIndex::ResetIoStats for the exclusion
  // contract the concurrent fuzzer asserts.
  void ResetIoStats() override { file_.ResetStats(); }
  IoStats GetIoStats() const override { return file_.GetIoStats(); }

  void SimulateBufferPool(size_t capacity) override {
    file_.SimulateCache(capacity);
  }
  void UseBufferPool(size_t capacity) override {
    pool_ = capacity > 0 ? std::make_unique<BufferPool>(&file_, capacity)
                         : nullptr;
  }

  size_t leaf_capacity() const override { return leaf_cap_; }
  size_t node_capacity() const override { return node_cap_; }
  int height() const EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    return root_level_ + 1;
  }

  // The reclamation domain backing this tree's snapshots; tests assert its
  // retired_count() drains to zero once readers quiesce.
  EpochManager& epochs_for_test() const { return file_.epochs(); }
  EpochManager* epoch_domain_for_test() const override {
    return &file_.epochs();
  }

 protected:
  // Each acquires its own epoch guard + snapshot: a plain Search() against
  // the live index pins the committed version for exactly one query.
  std::vector<Neighbor> KnnDfsImpl(PointView query, int k,
                                   IoStatsDelta* io) const override;
  std::vector<Neighbor> KnnBestFirstImpl(PointView query, int k,
                                         IoStatsDelta* io) const override;
  std::vector<Neighbor> RangeImpl(PointView query, double radius,
                                  IoStatsDelta* io) const override;

 private:
  // Snapshot objects traverse the pinned version through the *Snapshot
  // methods below; the class lives in sr_tree.cc.
  friend class SRTreeSnapshot;
  // Test-only backdoor (tests/structural_auditor_test.cc): lets the
  // auditor's negative tests corrupt pages directly to prove each violation
  // class is detected and located.
  friend struct SRTreeTestAccess;
  struct LeafEntry {
    Point point;
    uint32_t oid;
  };

  struct NodeEntry {
    Sphere sphere;  // center = centroid of underlying points
    Rect rect;      // exact MBR of underlying points
    uint32_t weight;
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
  // ReadNode/PeekNode/WriteNode operate on *working state* and belong to
  // the writer (or a locked structural accessor). The query path never
  // builds a Node: it reads committed pages in place through ReadQueryPage
  // (src/index/soa_page.h) — via the attached BufferPool keyed by (page id,
  // stamp) when one is present, else straight from the snapshot.
  //
  // ReadNode decodes the working page in place (PageFile::ReadInPlace,
  // counted as one read) into `node`, reusing its storage; WriteNode
  // serializes straight into the buffer PageFile::StageWrite hands back.
  void ReadNode(PageId id, int level, Node& node) const REQUIRES(writer_mu_);
  Node PeekNode(PageId id) const REQUIRES(writer_mu_);
  void WriteNode(const Node& node) REQUIRES(writer_mu_);
  // Encodes `node` into the whole page at `buf` (page_size bytes) in the
  // SoA layout above, and decodes it back. DecodeNode refills `node` in
  // place, keeping the capacity of its entry vectors and entry points.
  void SerializeNode(const Node& node, char* buf) const;
  void DecodeNode(const char* buf, PageId id, Node& node) const;
  Node DeserializeNode(const char* buf, PageId id) const;

  // Publishes the working state as the next committed version, carrying
  // (root id, root level, size) in the metadata words. Exactly one commit
  // ends every successful mutation.
  void CommitState() REQUIRES(writer_mu_);

  size_t Capacity(const Node& node) const {
    return node.is_leaf() ? leaf_cap_ : node_cap_;
  }
  size_t MinEntries(const Node& node) const {
    return node.is_leaf() ? leaf_min_ : node_min_;
  }

  // --- region helpers ---
  Point NodeCentroid(const Node& node, uint32_t& weight) const;
  // Sphere (radius = min(d_s, d_r)), exact MBR, and weight for `node`.
  NodeEntry ComputeEntry(const Node& node) const;
  PointView EntryCentroid(const Node& node, size_t i) const;

  // --- insertion machinery (writer only) ---
  void ProcessPending(std::deque<Pending>& pending) REQUIRES(writer_mu_);
  void InsertPending(const Pending& item, std::deque<Pending>& pending)
      REQUIRES(writer_mu_);
  int ChooseSubtree(const Node& node, PointView centroid) const;
  // Resolves overflow bottom-up from path[last] (idx[j] is path[j + 1]'s
  // entry in path[j]) and writes the path back.
  void ResolvePath(std::vector<Node>& path, const std::vector<int>& idx,
                   int last, std::deque<Pending>& pending)
      REQUIRES(writer_mu_);
  void WritePathRefreshingEntries(std::vector<Node>& path,
                                  const std::vector<int>& idx, int from)
      REQUIRES(writer_mu_);
  std::vector<Pending> RemoveForReinsert(Node& node) REQUIRES(writer_mu_);
  Node SplitNode(Node& node) REQUIRES(writer_mu_);
  void GrowRoot(Node& left, Node& right) REQUIRES(writer_mu_);

  // --- deletion machinery (writer only) ---
  // Depth-first search for the leaf holding (point, oid) from page `id`,
  // testing containment on the pages in place; on success `ids` holds the
  // page ids from `id` down to that leaf and `idx` the entry taken at each
  // inner node. `center` is scratch.
  bool FindLeafPath(PageId id, int level, PointView point, uint32_t oid,
                    std::vector<PageId>& ids, std::vector<int>& idx,
                    Point& center) REQUIRES(writer_mu_);
  void CondenseTree(std::vector<Node>& path, std::vector<int>& idx)
      REQUIRES(writer_mu_);
  void ShrinkRoot() REQUIRES(writer_mu_);

  // --- search (const + re-entrant; all traversal state is per query and
  //     every page is read in place from the pinned committed version;
  //     MINDIST is the Section 4.4 max(sphere, rect), SrEntryMinDists) ---
  std::vector<Neighbor> KnnDfsSnapshot(const PageFile::Snapshot& snap,
                                       PointView query, int k,
                                       IoStatsDelta* io) const;
  std::vector<Neighbor> KnnBestFirstSnapshot(const PageFile::Snapshot& snap,
                                             PointView query, int k,
                                             IoStatsDelta* io) const;
  std::vector<Neighbor> RangeSnapshot(const PageFile::Snapshot& snap,
                                      PointView query, double radius,
                                      IoStatsDelta* io) const;
  void SearchKnn(const PageFile::Snapshot& snap, PageId id, int level,
                 PointView query, KnnCandidates& cand, KernelScratch& scratch,
                 IoStatsDelta* io) const;
  void SearchRange(const PageFile::Snapshot& snap, PageId id, int level,
                   PointView query, double radius, std::vector<Neighbor>& out,
                   KernelScratch& scratch, IoStatsDelta* io) const;

  // --- validation / stats (walk working state; callers hold writer_mu_) ---
  void VisitSubtree(const Node& node, std::vector<int>& path,
                    const NodeVisitor& visitor) const REQUIRES(writer_mu_);
  void CollectStats(const Node& node, TreeStats& stats) const
      REQUIRES(writer_mu_);
  void CollectRegions(const Node& node, RegionStatsCollector& collector) const
      REQUIRES(writer_mu_);

  // Constructor helpers so the configuration block below can be const:
  // Validated() CHECKs the option invariants and passes the copy through;
  // the capacity helpers derive the per-page entry counts (Section 5.3
  // entry sizes).
  static Options Validated(const Options& options);
  static size_t LeafCapacityFor(const Options& options);
  static size_t NodeCapacityFor(const Options& options);

  const Options options_;
  const size_t leaf_cap_;
  const size_t node_cap_;
  const size_t leaf_min_;
  const size_t node_min_;

  mutable PageFile file_;
  // Optional warm cache on the query path (UseBufferPool); frames are keyed
  // by (page id, buffer stamp), so copy-on-write makes stale hits
  // impossible and the writer never invalidates. Swapping the pool itself
  // is still not thread-safe against in-flight queries.
  std::unique_ptr<BufferPool> pool_ UNGUARDED_OK(
      "swapped only by UseBufferPool, excluded vs in-flight queries");

  // writer_mu_ serializes mutations and guards the working tree metadata.
  // Queries never take it: they read the committed copies of these values
  // from the pinned version's metadata words.
  mutable Mutex writer_mu_;
  PageId root_id_ GUARDED_BY(writer_mu_);
  int root_level_ GUARDED_BY(writer_mu_) = 0;
  size_t size_ GUARDED_BY(writer_mu_) = 0;
  MaintenanceStats maintenance_ GUARDED_BY(writer_mu_);

  // Per-node forced-reinsertion bookkeeping, inherited from the SS-tree.
  std::set<PageId> reinserted_nodes_ GUARDED_BY(writer_mu_);

  // The insert descent's root-to-target nodes and the entry taken at each
  // inner one, reused by every InsertPending (see there).
  std::vector<Node> descent_ GUARDED_BY(writer_mu_);
  std::vector<int> descent_idx_ GUARDED_BY(writer_mu_);
};

}  // namespace srtree

#endif  // SRTREE_CORE_SR_TREE_H_
