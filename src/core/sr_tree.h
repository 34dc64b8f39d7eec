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
// The writer works on its pages in place too, and no node is ever decoded.
// An insert descends through the pages' center columns, adds an entry by
// re-laying the target page's columns one slot wider, and refreshes each
// parent entry on the path by patching only that entry's words with a
// region computed from the child's page (ComputeEntry). A node that
// overflows is relayed into the overflow image, a writer-owned scratch block
// in the same layout with room for capacity + 1 entries, where the split
// and the forced reinsertion choose slots; each resulting page is relayed
// from it. A delete finds its leaf through the center columns, restages the
// leaf one slot narrower and patches or narrows each page above it; a node
// that underflows hands its entries to reinsertion straight from its page.
// Every one of these edits copies slots between images through one
// primitive (RelaySlots). A query never decodes either: it overlays SoaBlock
// views on the pinned version's own page buffer (PageFile::Snapshot::
// ReadInPlace) and feeds them to the distance kernels — no lock, no copy,
// no per-entry decode, no allocation per page read. The image header
// records the layout and the region; Open() rejects images in the retired
// row-major layouts.

#ifndef SRTREE_CORE_SR_TREE_H_
#define SRTREE_CORE_SR_TREE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <span>
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

  struct Pending {
    int level;
    LeafEntry leaf;
    NodeEntry node;
  };

  // The tag Save() writes.
  virtual const char* image_tag() const { return kImageTag; }
  bool has_rects() const { return options_.region == Region::kSphereAndRect; }

  // Publishes the working state as the next committed version, carrying
  // (root id, root level, size) in the metadata words. Exactly one commit
  // ends every successful mutation.
  void CommitState() REQUIRES(writer_mu_);

  size_t Capacity(int level) const {
    return level == 0 ? leaf_cap_ : node_cap_;
  }
  size_t MinEntries(int level) const {
    return level == 0 ? leaf_min_ : node_min_;
  }

  // --- page images ---
  // Every page, and the overflow image, is a SoA image in the layout above:
  // kHeaderBytes, then DoubleRows(level) rows of count doubles, then
  // WordRows(level) rows of count u32s. The writer reads and edits these
  // images in place; the query path never leaves them either (it overlays
  // SoaBlock views on committed pages read in place, snap.ReadInPlace).
  //
  // Bytes a page of `count` entries at `level` holds: the header and the
  // entries, without a leaf's data area.
  size_t NodeBytes(int level, size_t count) const;
  size_t DoubleRows(int level) const;
  static size_t WordRows(int level) { return level == 0 ? 1 : 2; }
  size_t PageCount(const char* page, int level) const;
  // Write `e` into slot `slot` of the `count`-entry image at `page`, and
  // read it back into `out` at `level`: the slot writers and their inverse.
  void PutLeafEntry(char* page, size_t count, size_t slot,
                    const LeafEntry& e) const;
  void PutInnerEntry(char* page, size_t count, size_t slot,
                     const NodeEntry& e) const;
  void ReadSlot(const char* page, size_t count, int level, size_t slot,
                Pending& out) const;
  // The slot relay: writes the header of a `to_count`-entry image at `to`
  // and copies slot slots[j] of the `count`-entry image `from` at `level`
  // into its slot j, column by column. Slots of `to` past slots.size() are
  // the caller's to fill. `from` and `to` must not overlap.
  void RelaySlots(const char* from, size_t count, int level,
                  std::span<const uint32_t> slots, char* to,
                  size_t to_count) const;
  // Restages page `id` at `level` as a `to_count`-entry page holding its
  // entries `slots` (RelaySlots), then calls fill(page) on it. The old bytes
  // go to page_copy_ first: when this mutation already wrote the page,
  // staging it at another extent frees its buffer.
  template <typename Fill>
  void StageRelaid(PageId id, int level, std::span<const uint32_t> slots,
                   size_t to_count, Fill&& fill) REQUIRES(writer_mu_);
  // Relays page `id` at `level`, of `count` entries, one slot wider and
  // calls fill(image) to fill its slot `count`: on the page itself,
  // restaged, when it has room (and returns true), else on the overflow
  // image (and returns false).
  template <typename Fill>
  bool Widen(PageId id, int level, size_t count, Fill&& fill)
      REQUIRES(writer_mu_);
  // Allocates and stages an empty leaf.
  PageId NewEmptyLeaf() REQUIRES(writer_mu_);

  // --- region helpers ---
  // The entry for the working page `id`, computed from its bytes without
  // I/O accounting (PageFile::PeekPage): the centroid, the sphere (radius =
  // min(d_s, d_r), or d_s alone without the radius rule or a rectangle), the
  // exact MBR (left as it is for the sphere region) and the weight. The one
  // implementation of the Section 4.2 region arithmetic.
  void ComputeEntry(PageId id, NodeEntry& entry) const REQUIRES(writer_mu_);

  // --- insertion machinery (writer only) ---
  void ProcessPending(std::deque<Pending>& pending) REQUIRES(writer_mu_);
  void InsertPending(const Pending& item, std::deque<Pending>& pending)
      REQUIRES(writer_mu_);
  // The entry whose center is nearest `centroid` (the first on a tie).
  int ChooseSubtree(const SoaInnerView& inner, PointView centroid) const
      REQUIRES(writer_mu_);
  // Patches the entry of each page on the path above path_ids_[from] from
  // its child's page, up to the root.
  void RefreshPath(int from) REQUIRES(writer_mu_);
  // Resolves the overflow of the node at path_ids_[from], whose capacity + 1
  // entries the overflow image holds, bottom-up, and writes the path back.
  void ResolveOverflow(int from, std::deque<Pending>& pending)
      REQUIRES(writer_mu_);
  // Both take the overflow image of page `id` at `level`. RemoveForReinsert
  // queues the entries farthest from its centroid on `pending` and restages
  // `id` with the rest; SplitNode restages `id` with one group and a new
  // page, which it returns, with the other.
  void RemoveForReinsert(PageId id, int level, std::deque<Pending>& pending)
      REQUIRES(writer_mu_);
  PageId SplitNode(PageId id, int level) REQUIRES(writer_mu_);

  // --- deletion machinery (writer only) ---
  // Depth-first search for the leaf holding (point, oid) from page `id`,
  // testing containment on the pages in place; on success path_ids_ holds
  // the page ids from `id` down to that leaf and path_idx_ the entry taken
  // at each, the point's slot last.
  bool FindLeafPath(PageId id, int level, PointView point, uint32_t oid)
      REQUIRES(writer_mu_);
  // Removes the entry FindLeafPath found and condenses the path bottom-up.
  void CondenseTree() REQUIRES(writer_mu_);
  void ShrinkRoot() REQUIRES(writer_mu_);

  // --- search: the bound policy the shared traversals
  //     (src/index/traversal.h) run with; defined in sr_search.cc ---
  struct SearchBound;

  // --- validation / stats (walk working pages; callers hold writer_mu_) ---
  void VisitSubtree(PageId id, std::vector<int>& path,
                    const NodeVisitor& visitor) const REQUIRES(writer_mu_);
  void CollectStats(PageId id, TreeStats& stats) const REQUIRES(writer_mu_);
  void CollectRegions(PageId id, RegionStatsCollector& collector) const
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

  // Writer scratch, reused by every mutation: the path's page ids from the
  // root down and the entry taken at each page; the entry a refresh
  // computes; a copy of the page StageRelaid re-lays; the overflow image,
  // sized for capacity + 1 entries at any level; a slot list (a widened
  // page's slots in order, a split's order, a delete's or a reinsertion's
  // survivors); FindLeafPath's
  // distances, one row of node_cap_ per inner level; and distances from one
  // center to an image's entries (ChooseSubtree, ComputeEntry,
  // RemoveForReinsert), sized once for capacity + 1 and mutable for the
  // const walkers that take writer_mu_.
  std::vector<PageId> path_ids_ GUARDED_BY(writer_mu_);
  std::vector<int> path_idx_ GUARDED_BY(writer_mu_);
  NodeEntry entry_ GUARDED_BY(writer_mu_);
  std::vector<char> page_copy_ GUARDED_BY(writer_mu_);
  std::vector<char> image_ GUARDED_BY(writer_mu_);
  std::vector<uint32_t> slots_ GUARDED_BY(writer_mu_);
  std::vector<double> find_dist_ GUARDED_BY(writer_mu_);
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
