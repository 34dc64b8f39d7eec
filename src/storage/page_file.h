// PageFile: a simulated disk of fixed-size blocks.
//
// This is the substrate every index structure is built on. It behaves like a
// 1997 raw-device file: pages are allocated/freed by id, and every Read()/
// Write() is counted as one disk access (no caching — the paper's numbers
// assume cold reads per query). An optional BufferPool (buffer_pool.h) can
// be layered on top when caching behavior is wanted.
//
// Storage is in memory; the simulation is about *counting* block transfers
// and enforcing that each node physically fits one block, not about actual
// persistence.
//
// Thread safety — two coexisting contracts:
//
//   * Legacy (frozen-tree) contract: Read() is safe from any number of
//     threads at once. All mutating operations — Allocate/Free/Write/
//     SimulateCache/Load* — require external exclusion against every other
//     call. The six non-SR trees still run under this contract.
//
//   * Commit protocol (single writer / many readers): the writer mutates
//     *working state* through StageWrite(), which hands back the page's
//     working buffer — a fresh one when a published version can see the
//     current buffer (copy-on-write), else the current buffer itself — and
//     atomically publishes the result with Commit(). A published version's
//     page table is an array of fixed-size chunks shared with the versions
//     before and after it: Commit() copies only the chunks the writer
//     touched since the last commit and reuses every other chunk pointer
//     (path copying), so its cost tracks the pages changed, not the pages
//     live. Readers pin an immutable published version via
//     AcquireSnapshot() under an EpochGuard and read through the returned
//     Snapshot; retired versions, superseded chunks and displaced page
//     buffers are reclaimed by the epoch scheme (src/storage/epoch.h) once
//     no reader can reach them. Snapshot::ReadInPlace/Read are safe against
//     a concurrently staging and committing writer; the writer itself must
//     still be a single thread.
//
// Accounting takes no lock: every read and write lands in a per-thread,
// cache-line-padded shard of relaxed atomic counters, and GetIoStats()
// sums the shards. stats_mu_ guards only the simulated LRU and is taken on
// a read only while SimulateCache() is on, so a Snapshot read with the
// simulation off writes no cache line another thread touches.

#ifndef SRTREE_STORAGE_PAGE_FILE_H_
#define SRTREE_STORAGE_PAGE_FILE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/common/status.h"
#include "src/storage/epoch.h"
#include "src/storage/io_stats.h"
#include "src/storage/page.h"

namespace srtree {

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xffffffffu;

class PageFile {
 public:
  // Metadata words carried by every committed version (the SR-tree packs
  // root id, root level, and size; other users are free to repurpose them).
  static constexpr size_t kCommitMetaWords = 4;

  explicit PageFile(size_t page_size = kDefaultPageSize);

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  ~PageFile();

  size_t page_size() const { return page_size_; }

  // An immutable view of one committed version: the page table published by
  // the Commit() that created it, plus its metadata words. Light value type
  // (two pointers); valid only while the EpochGuard passed to
  // AcquireSnapshot() is alive. Reads perform the same I/O accounting as
  // PageFile::Read and are safe against the concurrently mutating writer.
  class Snapshot {
   public:
    // Zero-copy read: returns the version's own page buffer (page_size
    // bytes) and counts one disk read (see PageFile::Read for `level` /
    // `delta`). Copy-on-write never mutates a published buffer, so the bytes
    // are immutable and stay valid exactly as long as the EpochGuard the
    // snapshot was acquired under — the pointer must not outlive it
    // (srcheck rule C5).
    const char* ReadInPlace(PageId id, int level = -1,
                            IoStatsDelta* delta = nullptr) const;

    // ReadInPlace plus a copy into `out` (page_size bytes).
    void Read(PageId id, char* out, int level = -1,
              IoStatsDelta* delta = nullptr) const;

    // Monotonic version number (the constructor publishes version 1; every
    // Commit() increments it by exactly one).
    uint64_t version() const;
    uint64_t meta(size_t i) const;

    // True when `id` was live in this version.
    bool is_live(PageId id) const;

    // Identity of the page *buffer* backing `id` in this version. A
    // (page id, stamp) pair names immutable bytes — copy-on-write assigns a
    // fresh stamp — which is what lets BufferPool cache snapshot reads
    // without any invalidation protocol.
    uint64_t page_stamp(PageId id) const;

    size_t page_size() const { return file_->page_size(); }

   private:
    friend class PageFile;
    Snapshot(const PageFile* file, const void* state)
        : file_(file), state_(state) {}

    const PageFile* file_;
    const void* state_;  // const VersionState*, opaque to keep it private
  };

  // Allocates a zeroed page and returns its id (free pages are recycled).
  PageId Allocate();

  // Returns a page to the free list. The id must be live.
  void Free(PageId id);

  // Writer-side zero-copy read of the *working* state: returns the page's
  // current buffer (page_size bytes) and counts one disk read. `level` tags
  // the read for the per-level breakdown (0 = leaf, -1 = unknown). When
  // `delta` is non-null the read (and any simulated cache hit) is
  // additionally recorded there, giving the caller a per-query view. The
  // pointer is valid until the next Allocate/Free/StageWrite/Commit/Load*
  // and must not be kept past it (srcheck rule C5).
  const char* ReadInPlace(PageId id, int level = -1,
                          IoStatsDelta* delta = nullptr) const;

  // ReadInPlace plus a copy into `out` (page_size bytes). Safe to call
  // concurrently under the legacy contract.
  void Read(PageId id, char* out, int level = -1,
            IoStatsDelta* delta = nullptr) const;

  // Copies `data` (page_size bytes) into the page in place and counts one
  // write. LEGACY frozen-tree path only: writing a page a committed version
  // can see would corrupt live snapshots, so this CHECKs that the page is
  // not shared with the published version. Indexes that commit (the
  // SR-tree) must use StageWrite(); srlint rule R6 enforces this outside
  // src/storage/.
  void Write(PageId id, const char* data);

  // --- commit protocol (single writer) -----------------------------------

  // Writer-side page update; counts one write and returns the page's
  // working buffer (page_size bytes), which the caller must overwrite
  // completely. When the published version can see the current buffer,
  // the returned one is fresh and NOT zeroed (copy-on-write: the old buffer
  // is retired at the next Commit() and the page gets a new stamp);
  // otherwise it is the current buffer, which no snapshot can see. The
  // pointer is valid until the next Allocate/Free/StageWrite/Commit/Load*
  // and must not be kept past it (srcheck rule C5).
  [[nodiscard]] char* StageWrite(PageId id);

  // StageWrite(id) followed by a copy of `data` (page_size bytes), for
  // callers holding a complete page image (perfbench's storage probe).
  void StageWrite(PageId id, const char* data);

  // Atomically publishes the current working state (live pages + buffers +
  // `meta`) as the next version. Readers acquiring a snapshot from this
  // point observe the new version; snapshots acquired earlier keep reading
  // their own. Superseded state is retired through the epoch manager and
  // freed once no reader can reference it.
  void Commit(const std::array<uint64_t, kCommitMetaWords>& meta);

  // Pins the most recently committed version. The guard must outlive the
  // snapshot (requiring it here is what makes an unguarded snapshot
  // impossible to acquire). Safe to call concurrently with the writer.
  Snapshot AcquireSnapshot(const EpochGuard& guard) const;

  // Version number of the most recently committed version.
  uint64_t committed_version() const;

  // Stamp of the *working* buffer currently backing `id` (see
  // Snapshot::page_stamp). The id must be live.
  uint64_t page_stamp(PageId id) const;

  // The reclamation domain for this file's retired versions and buffers.
  // Readers construct EpochGuards against it; tests assert retired_count()
  // drains to zero.
  EpochManager& epochs() const { return epochs_; }

  // Enables a simulated LRU cache of `capacity` pages: subsequent Read()s
  // still count in IoStats::reads, but IoStats::cache_misses only counts
  // reads the cache would not have served. Capacity 0 disables the
  // simulation. Used by the buffer-pool extension bench; the data path is
  // unchanged (contents are always served).
  void SimulateCache(size_t capacity);

  // Direct access to the working page bytes with NO I/O accounting. For
  // invariant checkers and offline statistics walkers only — never in query
  // or update paths.
  const char* PeekPage(PageId id) const;
  char* MutablePageForTest(PageId id);

  // Serializes the whole simulated disk (page size, allocation state, page
  // contents) to a stream/file; LoadFrom replaces this PageFile's contents
  // with a previously saved image. I/O counters are not persisted. These
  // are the substrate of the index structures' Save/Open.
  //
  // Durability contract (format v2, see page_file.cc):
  //   * SaveTo writes a checksummed image — header CRC32C, per-page
  //     CRC32C, and a footer echoing the page counts plus a CRC32C over
  //     the whole image — with fixed little-endian framing. The image must
  //     be the final section of the stream (LoadFrom validates its exact
  //     size against EOF).
  //   * Save(path) is atomic: temp file + flush + fsync + rename via
  //     storage::AtomicWriteFile, so the destination always holds either
  //     the previous image or the complete new one.
  //   * LoadFrom is all-or-nothing: the image is staged into fresh state
  //     and swapped in only after every checksum and count validates. On
  //     any failure this PageFile — possibly a live index — is untouched.
  //   * v1 (pre-checksum) images are no longer readable: their one-release
  //     compatibility window has closed, and LoadFrom rejects them with an
  //     explicit "re-save with v2" Corruption.
  Status SaveTo(std::ostream& out) const;
  Status LoadFrom(std::istream& in);
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

  // By-value sum of the per-thread counter shards / zeroing of every
  // shard. Both are safe against concurrent reads; a read racing either
  // lands on an unspecified side of it.
  IoStats GetIoStats() const;
  void ResetStats();

  // Number of currently live (allocated and not freed) pages.
  size_t live_pages() const { return live_pages_; }

  // True when `id` names a live (allocated and not freed) page. Lets the
  // index Open() paths validate a restored root id before dereferencing it.
  bool is_live(PageId id) const { return IsLive(id); }

 private:
  // Test-only window onto the published chunk table (tests/page_file_test.cc
  // observes how many chunks one Commit() copies).
  friend struct PageFileTestAccess;

  bool IsLive(PageId id) const;

  // One entry of a committed version's page table: the immutable buffer
  // bytes (nullptr = dead in that version) and the buffer's stamp.
  struct PageRef {
    const char* data = nullptr;
    uint64_t stamp = 0;
  };

  // Pages per page-table chunk. Commit() rebuilds each chunk the writer
  // touched and copies one pointer per chunk, so a smaller chunk makes the
  // rebuilds cheaper and the pointer array longer. Measured building a
  // 100k-point, D = 16 SR-tree by Insert (4-vCPU Xeon, GCC 12, Release):
  // 64 and 128 tie (2.2-2.6 s), 256 is 5-10% slower and 512 20-35%; 128
  // keeps the pointer array half as long as 64 does.
  static constexpr size_t kChunkPages = 128;

  // Page-table entries for ids [c * kChunkPages, (c + 1) * kChunkPages).
  // Immutable once published; shared by every version from the commit that
  // built it up to the commit that supersedes it.
  struct Chunk {
    std::array<PageRef, kChunkPages> refs{};
  };

  // An immutable committed version. Built by Commit(), published through
  // `committed_`, torn down by the epoch manager once unreachable. It does
  // not own its chunks: the chunks of the published version are owned by
  // `chunks_`, and a superseded chunk is retired with the version that was
  // current when it was superseded (the last one that can reach it).
  struct VersionState {
    std::vector<const Chunk*> chunks;
    std::array<uint64_t, kCommitMetaWords> meta{};
    uint64_t version = 0;
  };

  // Everything one Commit() unlinks from the published state, retired as a
  // single epoch-reclaimed object.
  struct Retired {
    std::unique_ptr<const VersionState> version;
    std::vector<std::unique_ptr<const Chunk>> chunks;
    std::vector<std::unique_ptr<char[]>> buffers;
  };

  // `id`'s entry in `state`, or nullptr when the id lies past its table.
  static const PageRef* FindRef(const VersionState* state, PageId id);

  // True when the published version references `id`'s working buffer: the
  // page is live and its stamp predates the last Commit(), which published
  // every page live at that point.
  bool SharedWithCommitted(PageId id) const {
    return live_[id] && page_stamp_[id] < first_unpublished_stamp_;
  }

  // Records that `id`'s page-table entry changed since the last Commit().
  void MarkChunkDirty(PageId id);

  // Returns true when the simulated cache already held the page.
  bool TouchCache(PageId id) const REQUIRES(stats_mu_);

  // The accounting shared by every read path: one read in the calling
  // thread's counter shard (plus the simulated-cache probe while it is on)
  // and, when non-null, in `delta`.
  void CountRead(PageId id, int level, IoStatsDelta* delta) const;

  // Counters of one thread slot. Padded to its own cache lines so threads
  // on different slots never share one; relaxed atomics keep two threads
  // that hash to the same slot exact. reads[0] counts reads of unknown
  // level (and of levels >= kTrackedLevels, deeper than any tree with
  // fanout >= 2 over 32-bit oids can grow); reads[l + 1] counts level l.
  // A read bumps exactly one word, and GetIoStats() derives the total.
  static constexpr size_t kStatShards = 32;
  static constexpr int kTrackedLevels = 64;
  struct alignas(64) StatShard {
    std::array<std::atomic<uint64_t>, kTrackedLevels + 1> reads{};
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> cache_hits{0};
  };
  // The calling thread's shard (threads take slots round-robin).
  StatShard& LocalShard() const;

  const size_t page_size_;
  const std::unique_ptr<StatShard[]> shards_;
  // stats_mu_ guards the simulated-cache LRU, the only shared state a read
  // can mutate; reads take it only while simulate_cache_ is set.
  mutable Mutex stats_mu_;
  std::atomic<bool> simulate_cache_{false};
  size_t cache_capacity_ GUARDED_BY(stats_mu_) = 0;
  // front = most recently used
  mutable std::list<PageId> cache_lru_ GUARDED_BY(stats_mu_);
  mutable std::unordered_map<PageId, std::list<PageId>::iterator> cache_index_
      GUARDED_BY(stats_mu_);
  // Dead pages restored from an image may hold a null buffer until
  // Allocate() recycles them — that is what bounds a forged header's
  // allocation to the bytes actually present in the stream.
  std::vector<std::unique_ptr<char[]>> pages_ UNGUARDED_OK(
      "single-writer working state; readers go through committed_");
  std::vector<bool> live_ UNGUARDED_OK(
      "single-writer working state; readers go through committed_");
  std::vector<PageId> free_list_ UNGUARDED_OK(
      "single-writer working state; readers go through committed_");
  size_t live_pages_ UNGUARDED_OK(
      "single-writer working state; readers go through committed_") = 0;

  // --- commit-protocol state (owned by the single writer, except
  //     `committed_`, which readers load through AcquireSnapshot) ----------

  // Stamp of the working buffer per page (see Snapshot::page_stamp).
  std::vector<uint64_t> page_stamp_ UNGUARDED_OK(
      "commit-protocol state owned by the single writer");
  uint64_t next_stamp_ UNGUARDED_OK(
      "commit-protocol state owned by the single writer") = 1;
  // The first stamp handed out since the last Commit(): a live page with an
  // older stamp is shared with the published version.
  uint64_t first_unpublished_stamp_ UNGUARDED_OK(
      "commit-protocol state owned by the single writer") = 1;
  // The published version's chunks (chunks_[c] backs its chunk c).
  std::vector<std::unique_ptr<const Chunk>> chunks_ UNGUARDED_OK(
      "commit-protocol state owned by the single writer; readers reach the "
      "chunks through committed_");
  // chunk_dirty_[c]: an entry of chunk c changed since the last Commit().
  std::vector<bool> chunk_dirty_ UNGUARDED_OK(
      "commit-protocol state owned by the single writer");
  // Buffers displaced by StageWrite/Free/Load* since the last Commit():
  // still referenced by the published version, retired with it at the
  // next one.
  std::vector<std::unique_ptr<char[]>> pending_retire_ UNGUARDED_OK(
      "commit-protocol state owned by the single writer");
  // The published version; never null after construction. seq_cst on both
  // sides pairs with the epoch announce protocol (src/storage/epoch.h).
  std::atomic<const VersionState*> committed_{nullptr};
  mutable EpochManager epochs_;
};

}  // namespace srtree

#endif  // SRTREE_STORAGE_PAGE_FILE_H_
