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
// return Unimplemented. Because the tree is balanced and BFS-numbered, its
// leaves are one contiguous run of page ids at the end of the image, so
// every stored entry has a stable SLOT,
//
//   slot = (leaf page id - first leaf id) * leaf_capacity + entry index,
//
// which depends only on the leaf order, not on how pages are encoded.
// Logical deletes against a static tier are the TieredIndex's tombstones:
// a TombstoneBitmap with one bit per slot. The leaf scans test each
// in-range candidate's bit, so a masked entry can never displace a live
// one from a k-NN result, and a delete masks exactly one stored copy of a
// repeated (point, oid) pair.

#ifndef SRTREE_STATICTIER_STATIC_SR_TREE_H_
#define SRTREE_STATICTIER_STATIC_SR_TREE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/geometry/kernel.h"
#include "src/index/paged_index.h"
#include "src/index/soa_page.h"

namespace srtree {

struct VamLayout;  // src/index/vam_partition.h

// Dead static-tier slots (see StaticSRTree::SlotOf), one bit each, kept in
// fixed-size chunks. A chunk is never modified once shared: Set() replaces
// the one chunk it changes with a modified copy, so a bitmap copied before
// a Set() keeps every old chunk, and a copy shares all chunks but one with
// its source. A null (or missing) chunk has no dead slot.
class TombstoneBitmap {
 public:
  static constexpr uint64_t kSlotsPerChunk = uint64_t{1} << 13;
  using Chunk = std::array<uint64_t, kSlotsPerChunk / 64>;

  bool empty() const { return count_ == 0; }
  size_t count() const { return count_; }

  bool Test(uint64_t slot) const {
    const uint64_t c = slot / kSlotsPerChunk;
    if (c >= chunks_.size() || chunks_[c] == nullptr) return false;
    return ((*chunks_[c])[(slot % kSlotsPerChunk) / 64] >> (slot % 64)) & 1u;
  }

  // Marks `slot` dead (it must be live), copying only its chunk.
  void Set(uint64_t slot);

  // Calls fn(slot) for every dead slot, in increasing slot order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      if (chunks_[c] == nullptr) continue;
      const Chunk& chunk = *chunks_[c];
      for (size_t w = 0; w < chunk.size(); ++w) {
        for (uint64_t bits = chunk[w]; bits != 0; bits &= bits - 1) {
          fn(c * kSlotsPerChunk + w * 64 +
             static_cast<uint64_t>(std::countr_zero(bits)));
        }
      }
    }
  }

  // Chunk identity, for tests of what a Set() copied (null past the end).
  size_t chunk_count() const { return chunks_.size(); }
  const Chunk* chunk(size_t c) const {
    return c < chunks_.size() ? chunks_[c].get() : nullptr;
  }

 private:
  std::vector<std::shared_ptr<const Chunk>> chunks_;
  size_t count_ = 0;
};

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

  // Enumerates every stored (point, oid) pair, in slot order.
  Status ExportEntries(
      const std::function<void(PointView, uint32_t)>& fn) const override;
  // The same, skipping the slots `dead` marks (compaction feed).
  Status ExportLiveEntries(
      const TombstoneBitmap& dead,
      const std::function<void(PointView, uint32_t)>& fn) const;

  // Exact probe for a stored (point, oid) pair whose slot `dead` does not
  // mark; returns that slot (rect-guided descent; no I/O accounting — this
  // is tombstone bookkeeping, not a query). With repeated copies of a pair
  // each call finds the next live one.
  std::optional<uint64_t> FindLiveSlot(PointView point, uint32_t oid,
                                       const TombstoneBitmap& dead) const;

  // The slot of entry `index` of leaf page `leaf` (see the file comment).
  uint64_t SlotOf(PageId leaf, size_t index) const {
    return uint64_t{leaf - first_leaf_} * leaf_cap_ + index;
  }
  // OK iff `slot` names a stored entry: its leaf exists and the index is
  // below that leaf's count. Corruption otherwise.
  Status CheckSlot(uint64_t slot) const;

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
  // tier's with PagedIndex::PinnedPages). The tree is immutable once built,
  // but routing reads through a committed version lets a TieredIndex swap
  // a compacted tree in under its readers.
  // The leaf scans skip the slots `dead` marks (null: none).
  std::vector<Neighbor> SearchSnapshot(const PageFile::Snapshot& snap,
                                       PointView query, const QuerySpec& spec,
                                       IoStatsDelta* io,
                                       const TombstoneBitmap* dead) const;
  std::vector<Neighbor> SearchSnapshot(const PageFile::Snapshot& snap,
                                       PointView query, const QuerySpec& spec,
                                       IoStatsDelta* io) const override {
    return SearchSnapshot(snap, query, spec, io, /*dead=*/nullptr);
  }
  // SearchSnapshot's k-NN kinds (`kind` is kKnn or kKnnBestFirst), offering
  // into the caller's `candidates`: the TieredIndex runs the static tier
  // first and its delta after it into the same set.
  void KnnSnapshotInto(const PageFile::Snapshot& snap, PointView query,
                       QueryKind kind, KnnCandidates& candidates,
                       IoStatsDelta* io, const TombstoneBitmap* dead) const;

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

  struct BuildNode;  // a node's aggregates and page, one per layout node

  // Writes the pages of the tree `layout` describes, whose points are
  // slots[node.range], numbered in the layout's breadth-first order.
  void SerializeTree(const std::vector<Point>& points,
                     const std::vector<uint32_t>& oids,
                     const VamLayout& layout, std::span<const uint32_t> slots,
                     std::vector<BuildNode>& pool);

  // BFS over the page image checking header sanity (levels, counts, child
  // liveness) so the audit/stats walks cannot crash on a forged image, and
  // that the leaves form one contiguous run of ids, which it reports.
  Status ValidateStructure(PageId* first_leaf, size_t* leaf_count) const;

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
  // The leaves' contiguous run of page ids (slots are numbered over it).
  PageId first_leaf_ = kInvalidPageId;
  size_t leaf_count_ = 0;
};

}  // namespace srtree

#endif  // SRTREE_STATICTIER_STATIC_SR_TREE_H_
