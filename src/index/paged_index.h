// PagedIndex: the storage plumbing every paged tree shares — the SR-tree
// (and the SS-tree, its sphere-only region), the static tier and the R*,
// K-D-B, VAMSplit R and TV baselines.
//
// A paged tree keeps its nodes in one copy-on-write PageFile and follows its
// one contract (src/storage/page_file.h): a single writer, serialized by
// writer_mu_, reads its working pages through PageFile::ReadInPlace, stages
// every page update through PageFile::StageWrite, and ends each successful
// mutation (and the constructor, BulkLoad and Open) with exactly one commit
// whose metadata words carry (root id, root level, size). Queries read one
// pinned committed version under an EpochGuard, so they are
// snapshot-isolated from the writer: a query sees the tree entirely before
// or entirely after any concurrent commit.
//
// A query has one page-read path: Snapshot::ReadInPlace, a pointer into the
// pinned version's immutable buffer, valid while the query's EpochGuard
// lives — no lock, copy or decode, and every read counted once. The one
// cache model is the simulated LRU (SimulateBufferPool, which forwards to
// PageFile::SimulateCache); it changes only what is counted.
//
// This base owns the page file and the writer lock, and implements what the
// trees share: the Insert/Delete shell (validate, lock, run the tree's
// hook), the committed size(), AcquireSnapshot(), the live Search() path
// (both pin a version and hand it to the tree's one search hook,
// SearchSnapshot()), and the I/O, cache-simulation and epoch forwarders.
// Structural accessors that walk working state (GetTreeStats, VisitNodes,
// Save, ...) belong to the writer's side.

#ifndef SRTREE_INDEX_PAGED_INDEX_H_
#define SRTREE_INDEX_PAGED_INDEX_H_

#include <cstddef>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/index/point_index.h"
#include "src/index/traversal.h"
#include "src/storage/epoch.h"
#include "src/storage/page_file.h"

namespace srtree {

class PagedIndex : public PointIndex {
 public:
  // The mutation shell: rejects a point no query could reach
  // (ValidatePoint), then runs the tree's hook under writer_mu_.
  Status Insert(PointView point, uint32_t oid) final EXCLUDES(writer_mu_);
  Status Delete(PointView point, uint32_t oid) final EXCLUDES(writer_mu_);

  // Size of the most recently committed version (safe against the writer).
  size_t size() const override;

  // Pins the current committed version: queries against the returned
  // snapshot are unaffected by concurrent commits, and version() reports
  // the pinned PageFile version.
  [[nodiscard]] std::unique_ptr<IndexSnapshot> AcquireSnapshot()
      const override;

  IoStats GetIoStats() const override { return file_.GetIoStats(); }
  void SimulateBufferPool(size_t capacity) override {
    file_.SimulateCache(capacity);
  }
  // Reads the writer's running totals, so it takes writer_mu_.
  PageFootprint GetPageFootprint() const override EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    return {file_.live_pages(), file_.page_size(), file_.stored_bytes()};
  }
  EpochManager* epoch_domain_for_test() const override {
    return &file_.epochs();
  }

  // The snapshot machinery a composing index (TieredIndex) pins reads
  // through; tests assert epochs().retired_count() drains to zero.
  EpochManager& epochs() const { return file_.epochs(); }
  PageFile::Snapshot AcquirePageSnapshot(const EpochGuard& guard) const {
    return file_.AcquireSnapshot(guard);
  }
  // The number of the most recently committed version, without pinning it.
  uint64_t committed_version() const { return file_.committed_version(); }

  // The current committed version of `tree`'s pages, pinned for as long as
  // this lives. The guard is declared before the snapshot: the announce
  // precedes the pin.
  struct PinnedPages {
    explicit PinnedPages(const PagedIndex& tree)
        : guard(tree.epochs()), snap(tree.AcquirePageSnapshot(guard)) {}
    EpochGuard guard;
    PageFile::Snapshot snap;
  };

  // The tree's search: runs one validated query (see RunValidatedSearch)
  // against `snap`, a version of this index's page file pinned by the
  // caller, reading every page in place (snap.ReadInPlace).
  virtual std::vector<Neighbor> SearchSnapshot(const PageFile::Snapshot& snap,
                                               PointView query,
                                               const QuerySpec& spec,
                                               IoStatsDelta* io) const = 0;

 protected:
  explicit PagedIndex(size_t page_size) : file_(page_size) {}

  // A live Search() pins the committed version for exactly one query.
  std::vector<Neighbor> SearchImpl(PointView query, const QuerySpec& spec,
                                   IoStatsDelta* io) const final;

  // The trees' mutations, called with a validated point. One that changes
  // the tree ends with exactly one CommitRoot(); one that fails changes
  // nothing and commits nothing, so version() advances only on success.
  virtual Status InsertLocked(PointView point, uint32_t oid)
      REQUIRES(writer_mu_) = 0;
  virtual Status DeleteLocked(PointView point, uint32_t oid)
      REQUIRES(writer_mu_) = 0;

  // Publishes the working state as the next committed version.
  void CommitRoot(PageId root_id, int root_level, size_t size)
      REQUIRES(writer_mu_) {
    file_.Commit({root_id, static_cast<uint64_t>(root_level), size, 0});
  }

  // Publishes a tree built outside the mutation shell — a constructor's
  // empty tree, Open(), a BulkLoad() — taking writer_mu_ for the commit.
  void PublishBuilt(PageId root_id, int root_level, size_t size)
      EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    CommitRoot(root_id, root_level, size);
  }

  // How Open()'s page walk (ValidatePageTree) reads one tree's pages. Every
  // paged tree starts a page with the 8-byte header
  // [u8 level][u8 flags][u16 count][u32 word] and follows it with `count`
  // entries of a per-level stored size; an inner entry's u32 child id ends
  // the entry (row-major pages) or sits in the u32 array that ends the
  // entries (SoA pages, src/index/soa_page.h).
  struct PageTreeShape {
    size_t leaf_capacity = 0;     // entries a leaf page may hold
    size_t node_capacity = 0;     // entries an inner page may hold
    size_t leaf_entry_bytes = 0;  // stored bytes per leaf entry
    size_t node_entry_bytes = 0;  // stored bytes per inner entry
    bool soa = false;
  };

  // Open()'s check of a loaded image before anything decodes its pages:
  // walks from (root_id, root_level) and returns Corruption unless every
  // reachable page is live, carries the level its parent implies, holds at
  // most its capacity of entries within its stored extent, the walk visits
  // no more pages than are live, and the leaves hold `size` points. Every
  // message starts with `tree`, the tree's name.
  Status ValidatePageTree(const std::string& tree, PageId root_id,
                          int root_level, uint64_t size,
                          const PageTreeShape& shape) const;

  // Open()'s load for a tree whose every page fills its block — each one
  // but the SR- and SS-trees, which stage only a node's used bytes.
  // Replaces the page file's contents with the image (PageFile::LoadFrom),
  // then returns Corruption when a loaded page is shorter than page_size:
  // such a tree decodes whole pages, so a checksum-valid image with a short
  // extent would otherwise send it past the buffer.
  Status LoadFullPages(std::istream& in);

  // Where traversals of `snap` start: its committed root, or empty when the
  // version holds no points.
  static TraversalRoot CommittedRoot(const PageFile::Snapshot& snap);

  mutable PageFile file_;
  // Serializes the writer: every Insert/Delete runs its hook under it.
  mutable Mutex writer_mu_;
};

}  // namespace srtree

#endif  // SRTREE_INDEX_PAGED_INDEX_H_
