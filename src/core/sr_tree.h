// SR-tree (Katayama & Satoh, SIGMOD 1997) — the paper's contribution and
// this library's primary index structure — and the SS-tree (White & Jain,
// ICDE 1996) it is built on.
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
// The SS-tree is the same tree with the sphere as its whole region
// (Options::region = Region::kSphere): insertion, split and forced
// reinsertion are shared (Section 4 builds the SR-tree on them), the radius
// is d_s, the search bound is the sphere MINDIST, and inner entries store no
// rectangle. SSTree below only selects that region, its name and its tag.
//
// Concurrency (single writer / snapshot-isolated readers, the contract of
// every paged index, src/index/paged_index.h): Insert/Delete run under
// writer_mu_, stage every page update through PageFile::StageWrite
// (copy-on-write), and finish by committing a new page-table version whose
// metadata words carry (root id, root level, size). Every query reads one
// committed version under an EpochGuard. Structural accessors that walk
// working state (GetTreeStats, VisitNodes, Save, ...) take writer_mu_ and
// therefore exclude the writer, not queries.
//
// Page layout: nodes are serialized dimension-major (SoA, see
// src/index/soa_page.h), with the same bytes per entry as the paper's
// row-major entries, so the Table 1 fanouts are unchanged:
//   leaf:  [header] coords (dim x count doubles) | oids (count u32) |
//          leaf-data area (count x leaf_data_size bytes, logical only)
//   inner: [header] centers | radii | rect lo | rect hi | weights (u32) |
//          child page ids (u32)
//   sphere-only inner (the SS-tree): [header] centers | radii | weights |
//          child page ids — no rect blocks
// The region decides the inner layout once per page, never per entry.
// The leaf-data area counts toward the leaf capacity (LeafCapacityFor), so
// a leaf still fills its 8 KB page for the paper's accounting, but nothing
// reads it, so it is never stored: each page's extent (PageFile::StageWrite)
// ends at its last entry, NodeBytes(level, count) bytes.
// The writer works on its pages in place too: an insert descends through
// the pages' center columns, adds an entry by re-laying the target page's
// columns one slot wider, and refreshes each parent entry on the path by
// patching only that entry's words with a region computed from the child's
// page (ComputeEntry). Only a node that overflows is decoded into a Node:
// its capacity + 1 entries fit no page. A query never decodes: it overlays
// SoaBlock views on the pinned version's own page buffer
// (PageFile::Snapshot::ReadInPlace) and feeds them to the distance kernels
// — no lock, no copy, no per-entry decode, no allocation per page read. The image header records the layout
// and the region; Open() rejects images in the retired row-major layouts.

#ifndef SRTREE_CORE_SR_TREE_H_
#define SRTREE_CORE_SR_TREE_H_

#include <cstdint>
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
#include "src/index/paged_index.h"

namespace srtree {

struct SoaInnerView;

class SRTree : public PagedIndex {
 public:
  // The shape of an inner entry's region.
  enum class Region : uint8_t {
    kSphereAndRect = 0,  // the SR-tree (Section 4.1)
    kSphere = 1,         // the SS-tree: no rectangle is stored
  };

  struct Options {
    int dim = 2;
    size_t page_size = kDefaultPageSize;
    size_t leaf_data_size = 512;
    double min_utilization = 0.4;
    double reinsert_fraction = 0.3;
    Region region = Region::kSphereAndRect;

    // Ablation switches (the paper's design choices; both true = SR-tree).
    // Both must be false with Region::kSphere, which stores no rectangle.
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
  // an explicit "re-save" error. Its pages (page-file format v3, or v2 at
  // full extent) are checked against their headers before anything decodes
  // them (PagedIndex::ValidatePageTree): a checksum-valid image that is not
  // a tree its pages can hold fails with Corruption.
  static StatusOr<std::unique_ptr<SRTree>> Open(const std::string& path);

  int dim() const override { return options_.dim; }
  std::string name() const override { return "SR-tree"; }

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
  // intersection) is bounded above by each (Section 5.2). A sphere-only
  // tree's leaf rectangles are measured, not stored (Figure 6).
  RegionSummary LeafRegionSummary() const override EXCLUDES(writer_mu_);

  MaintenanceStats GetMaintenanceStats() const override EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    return maintenance_;
  }

  size_t leaf_capacity() const override { return leaf_cap_; }
  size_t node_capacity() const override { return node_cap_; }
  int height() const EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    return root_level_ + 1;
  }

  // Reads every page in place from the pinned version (snap.ReadInPlace).
  std::vector<Neighbor> SearchSnapshot(const PageFile::Snapshot& snap,
                                       PointView query, const QuerySpec& spec,
                                       IoStatsDelta* io) const override;
  // SearchSnapshot's k-NN kinds (`kind` is kKnn or kKnnBestFirst), offering
  // into the caller's `candidates`, which may already hold another tree's:
  // the TieredIndex searches its delta after the static tier into one set.
  void KnnSnapshotInto(const PageFile::Snapshot& snap, PointView query,
                       QueryKind kind, KnnCandidates& candidates,
                       IoStatsDelta* io) const;

 protected:
  Status InsertLocked(PointView point, uint32_t oid) override
      REQUIRES(writer_mu_);
  Status DeleteLocked(PointView point, uint32_t oid) override
      REQUIRES(writer_mu_);

  // Opens an image saved under Tree::kImageTag as a `Tree`; an image saved
  // under any other tag, or with another region than `Tree` builds, fails.
  // Defined for SRTree and SSTree.
  template <typename Tree>
  static StatusOr<std::unique_ptr<Tree>> OpenImage(const std::string& path);

 private:
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
    Rect rect;      // exact MBR of underlying points (empty: sphere region)
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

  // The tag Save() writes.
  virtual const char* image_tag() const { return kImageTag; }
  bool has_rects() const { return options_.region == Region::kSphereAndRect; }

  // --- page I/O ---
  // PeekNode/WriteNode operate on *working state* and belong to the writer
  // (or a locked structural accessor). The query path never builds a Node:
  // it overlays SoaBlock views (src/index/soa_page.h) on committed pages
  // read in place from the snapshot (snap.ReadInPlace).
  //
  // PeekNode decodes a working page without I/O accounting; WriteNode
  // serializes straight into the buffer PageFile::StageWrite hands back.
  Node PeekNode(PageId id) const REQUIRES(writer_mu_);
  void WriteNode(const Node& node) REQUIRES(writer_mu_);
  // Bytes a page of `count` entries at `level` holds: the header and the
  // entries, without a leaf's data area.
  size_t NodeBytes(int level, size_t count) const;
  // Encodes `node` into exactly NodeBytes(node.level, node.count()) bytes
  // at `buf` in the SoA layout above, and decodes it back. DecodeNode
  // refills `node` in place, keeping the capacity of its entry vectors and
  // entry points.
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

  // --- page edits (writer only) ---
  // A page is kHeaderBytes, then DoubleRows(level) rows of count doubles,
  // then WordRows(level) rows of count u32s (see the layout above).
  size_t DoubleRows(int level) const;
  static size_t WordRows(int level) { return level == 0 ? 1 : 2; }
  size_t PageCount(const char* page, int level) const;
  // Write `e` into slot `slot` of the `count`-entry page image at `page`
  // (SerializeNode writes every slot through them).
  void PutLeafEntry(char* page, size_t count, size_t slot,
                    const LeafEntry& e) const;
  void PutInnerEntry(char* page, size_t count, size_t slot,
                     const NodeEntry& e) const;
  // Stages page `id` at `level` one entry larger: its entries keep their
  // slots, re-laid for the wider stride, and fill(page, count + 1) writes
  // slot `count` (and may overwrite others).
  template <typename Fill>
  void StageGrown(PageId id, int level, Fill&& fill) REQUIRES(writer_mu_);

  // --- region helpers ---
  // The entry for the working page `id`, computed from its bytes without
  // I/O accounting (PageFile::PeekPage): the centroid, the sphere (radius =
  // min(d_s, d_r), or d_s alone without the radius rule or a rectangle), the
  // exact MBR (left as it is for the sphere region) and the weight. The one
  // implementation of the Section 4.2 region arithmetic.
  void ComputeEntry(PageId id, NodeEntry& entry) const REQUIRES(writer_mu_);
  PointView EntryCentroid(const Node& node, size_t i) const;

  // --- insertion machinery (writer only) ---
  void ProcessPending(std::deque<Pending>& pending) REQUIRES(writer_mu_);
  void InsertPending(const Pending& item, std::deque<Pending>& pending)
      REQUIRES(writer_mu_);
  // The entry whose center is nearest `centroid` (the first on a tie).
  int ChooseSubtree(const SoaInnerView& inner, PointView centroid) const
      REQUIRES(writer_mu_);
  // Patches the entry of each page on the insert path above path_ids_[from]
  // from its child's page, up to the root.
  void RefreshPath(int from) REQUIRES(writer_mu_);
  // Resolves the overflow of overflow_, the node at path_ids_[from] with
  // one entry past its capacity, bottom-up, and writes the path back.
  void ResolveOverflow(int from, std::deque<Pending>& pending)
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

  // --- search: the bound policy the shared traversals
  //     (src/index/traversal.h) run with; defined in the .cc ---
  struct SearchBound;

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

  // The base's writer_mu_ guards the working tree metadata. Queries never
  // take it: they read the committed copies of these values from the
  // pinned version's metadata words.
  PageId root_id_ GUARDED_BY(writer_mu_);
  int root_level_ GUARDED_BY(writer_mu_) = 0;
  size_t size_ GUARDED_BY(writer_mu_) = 0;
  MaintenanceStats maintenance_ GUARDED_BY(writer_mu_);

  // Per-node forced-reinsertion bookkeeping, inherited from the SS-tree.
  std::set<PageId> reinserted_nodes_ GUARDED_BY(writer_mu_);

  // Writer scratch, reused by every InsertPending: the insert path's page
  // ids from the root down and the entry taken at each inner page; the
  // overflowing node; the entry a refresh computes; a copy of the page
  // StageGrown re-lays; distances from one center to a page's
  // entries (ChooseSubtree, ComputeEntry), sized once for a full page and
  // mutable for the const walkers that take writer_mu_.
  std::vector<PageId> path_ids_ GUARDED_BY(writer_mu_);
  std::vector<int> path_idx_ GUARDED_BY(writer_mu_);
  Node overflow_ GUARDED_BY(writer_mu_);
  NodeEntry entry_ GUARDED_BY(writer_mu_);
  std::vector<char> page_copy_ GUARDED_BY(writer_mu_);
  mutable std::vector<double> dist_ GUARDED_BY(writer_mu_);
};

// SS-tree (White & Jain, ICDE 1996) — the similarity-indexing baseline the
// SR-tree improves upon (Section 2.3): bounding spheres centered at the
// centroid of the underlying points, nearest-centroid descent, the
// highest-variance split and per-node forced reinsertion. It is the SR-tree
// with the sphere as its whole region; this class supplies only that
// region, its name and its tag.
class SSTree : public SRTree {
 public:
  // The region is always Region::kSphere and both rect rules are off,
  // whatever `options` says.
  explicit SSTree(const Options& options)
      : SRTree(WithSphereRegion(options)) {}

  static constexpr char kImageTag[] = "sstree";
  static StatusOr<std::unique_ptr<SSTree>> Open(const std::string& path);

  std::string name() const override { return "SS-tree"; }

 private:
  static Options WithSphereRegion(Options options) {
    options.region = Region::kSphere;
    options.use_rect_in_radius = false;
    options.use_rect_in_mindist = false;
    return options;
  }
  const char* image_tag() const override { return kImageTag; }
};

}  // namespace srtree

#endif  // SRTREE_CORE_SR_TREE_H_
