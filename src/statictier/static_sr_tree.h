// StaticSRTree: the read-optimized immutable tier of the tiered index
// (ROADMAP item #2).
//
// The tree is bulk-loaded with the VAMSplit partitioning (White & Jain) but
// stores SR-tree regions — bounding sphere AND bounding rectangle per child,
// radius = min(d_s, d_r) as in Section 4.2 of the paper — and serializes its
// nodes level-order (BFS) into one contiguous v2 page image:
//
//   * every node occupies exactly one page and pages are numbered in BFS
//     order, so the children of an inner node are CONTIGUOUS and the node
//     stores a single `first_child` page id instead of per-entry pointers
//     (child i lives at page first_child + i);
//   * node payloads are dimension-major (SoA, src/index/soa_page.h — the
//     layout the dynamic SR-tree shares): a leaf page is a coordinate block
//     followed by an oid array, an inner page is center / radius / rect-lo
//     / rect-hi / weight blocks. A query overlays SoaBlock views on the raw
//     page bytes and feeds them straight to the DistanceKernel batch API —
//     zero per-entry deserialization on the search path;
//   * reads are zero-copy through PageFile::Snapshot::ReadInPlace, the same
//     commit-protocol machinery the dynamic SR-tree uses, so a TieredIndex
//     can swap a freshly compacted tree in while concurrent snapshot
//     readers keep traversing the old one.
//
// The structure is immutable after BulkLoad()/Open(): Insert and Delete
// return Unimplemented. Logical deletes against a static tier are the
// TieredIndex's tombstones, which the leaf scans consult through the
// optional TombstoneSet filter so a masked point can never displace a live
// one from a k-NN result.

#ifndef SRTREE_STATICTIER_STATIC_SR_TREE_H_
#define SRTREE_STATICTIER_STATIC_SR_TREE_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/geometry/kernel.h"
#include "src/index/paged_index.h"
#include "src/index/soa_page.h"

namespace srtree {

// Tombstoned (point, oid) pairs masking static-tier entries; owned by the
// TieredIndex, consulted by the static leaf scans.
using TombstoneSet = std::set<std::pair<Point, uint32_t>>;

class StaticSRTree : public PagedIndex {
 public:
  struct Options {
    int dim = 2;
    size_t page_size = kDefaultPageSize;
  };

  explicit StaticSRTree(const Options& options);

  // Type tag embedded in the v2 index-image container.
  static constexpr char kImageTag[] = "srstatic";

  // Checksummed atomic image persistence (see PointIndex::Save).
  Status Save(const std::string& path) const override;
  static StatusOr<std::unique_ptr<StaticSRTree>> Open(const std::string& path);

  // Composite-image hooks for the TieredIndex: the page image must be the
  // final section of the stream (PageFile::LoadFrom validates its size
  // against EOF). LoadPages restores + validates the tree over it and
  // publishes the loaded state as a committed version.
  Status SavePagesTo(std::ostream& out) const;
  Status LoadPages(std::istream& in, PageId root_id, int root_level,
                   uint64_t size);

  int dim() const override { return options_.dim; }
  std::string name() const override { return "Static SR-tree"; }
  const Options& options() const { return options_; }

  // Static tier: the only way to populate it is BulkLoad (Insert and
  // Delete return Unimplemented).
  Status BulkLoad(const std::vector<Point>& points,
                  const std::vector<uint32_t>& oids) override;

  // Enumerates every stored (point, oid) pair (compaction feed).
  Status ExportEntries(
      const std::function<void(PointView, uint32_t)>& fn) const override;

  // Exact membership probe against the stored pairs (rect-guided descent;
  // no I/O accounting — this is tombstone bookkeeping, not a query).
  bool Contains(PointView point, uint32_t oid) const;

  TreeStats GetTreeStats() const override;
  Status CheckInvariants() const override;
  void VisitNodes(const NodeVisitor& visitor) const override;
  AuditSpec GetAuditSpec() const override;
  RegionSummary LeafRegionSummary() const override;

  size_t leaf_capacity() const override { return leaf_cap_; }
  size_t node_capacity() const override { return node_cap_; }
  int height() const { return size_ == 0 ? 0 : root_level_ + 1; }
  PageId root_id() const { return root_id_; }
  int root_level() const { return root_level_; }

  // The search over a pinned version (the TieredIndex pins the static
  // tier's through epochs()/AcquirePageSnapshot and merges). The tree is
  // immutable once built, but routing reads through a committed version
  // lets a TieredIndex swap a compacted tree in under its readers.
  // `tombstones` masks matching pairs during the leaf scans.
  std::vector<Neighbor> SearchSnapshot(const PageFile::Snapshot& snap,
                                       PointView query, const QuerySpec& spec,
                                       IoStatsDelta* io,
                                       const TombstoneSet* tombstones) const;
  std::vector<Neighbor> SearchSnapshot(const PageFile::Snapshot& snap,
                                       PointView query, const QuerySpec& spec,
                                       IoStatsDelta* io) const override {
    return SearchSnapshot(snap, query, spec, io, /*tombstones=*/nullptr);
  }

 protected:
  Status InsertLocked(PointView point, uint32_t oid) override
      REQUIRES(writer_mu_);
  Status DeleteLocked(PointView point, uint32_t oid) override
      REQUIRES(writer_mu_);

 private:
  // ---- page views (src/index/soa_page.h) ----------------------------------
  // The header word of an inner page is its first child's id: child i
  // lives at page first_child + i.

  static PageId FirstChild(const SoaInnerView& inner) {
    return static_cast<PageId>(inner.header_word);
  }

  // ---- construction -------------------------------------------------------

  struct BuildNode;  // in-memory node, BFS-numbered before serialization

  uint64_t SubtreeCapacity(int height) const;
  int MaxVarianceDim(const std::vector<Point>& points,
                     std::span<uint32_t> items) const;
  void SplitIntoPieces(const std::vector<Point>& points,
                       std::span<uint32_t> items, uint64_t piece_cap,
                       std::vector<std::span<uint32_t>>& pieces) const;
  size_t BuildSubtree(const std::vector<Point>& points,
                      std::span<uint32_t> items, int height,
                      std::vector<BuildNode>& pool) const;
  void SerializeTree(const std::vector<Point>& points,
                     const std::vector<uint32_t>& oids,
                     std::vector<BuildNode>& pool, size_t root_index);

  // BFS over the page image checking header sanity (levels, counts, child
  // liveness) so the audit/stats walks cannot crash on a forged image.
  Status ValidateStructure() const;

  // ---- audit / stats helpers (PeekPage walks, no I/O accounting) ----------
  struct DecodedEntry {
    Sphere sphere;
    Rect rect;
    uint64_t weight = 0;
    PageId child = kInvalidPageId;
  };
  std::vector<DecodedEntry> DecodeInner(const char* buf) const;
  void DecodeLeaf(const char* buf, std::vector<Point>& points,
                  std::vector<uint32_t>& oids) const;
  void VisitSubtree(PageId id, std::vector<int>& path,
                    const NodeVisitor& visitor) const;

  // ---- search -------------------------------------------------------------
  // The bound policy the shared traversals (src/index/traversal.h) run
  // with; every page read is zero-copy from the snapshot's own buffer
  // (snap.ReadInPlace). Defined in the .cc.
  struct SearchBound;

  Options options_;
  size_t leaf_cap_;
  size_t node_cap_;

  PageId root_id_ = kInvalidPageId;
  int root_level_ = 0;
  size_t size_ = 0;
};

}  // namespace srtree

#endif  // SRTREE_STATICTIER_STATIC_SR_TREE_H_
