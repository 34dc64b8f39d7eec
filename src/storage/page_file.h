// PageFile: a simulated disk of fixed-size blocks.
//
// This is the substrate every index structure is built on. It behaves like a
// 1997 raw-device file: pages are allocated/freed by id, and every page read
// and every StageWrite() is counted as one disk access (no caching — the
// paper's numbers assume cold reads per query). Queries read in place from
// a pinned Snapshot; the one cache model is SimulateCache(), an LRU that
// only changes which reads are counted.
//
// Storage is in memory; the simulation is about *counting* block transfers
// and enforcing that each node physically fits one block, not about actual
// persistence.
//
// Logical page vs. physical extent: page_size() is the unit of accounting
// and capacity — a node must fit one page, and reading it costs one read
// whatever it holds. The bytes kept in memory are each page's *extent*, the
// prefix its last writer staged (StageWrite(id, extent), extent <=
// page_size). A writer that fills only part of a block — the SR-tree, whose
// leaf-data area sets the Table 1 fanouts but is never read — stores only
// that part; the bytes past the extent are logically zero. The in-place
// readers (ReadInPlace, PeekPage) hand out the extent itself, so under ASan
// a reader that strays past what its writer staged is a heap overflow; the
// copying readers (Read) return the whole logical page, zero-filled past
// the extent.
//
// Thread safety — one contract, single writer / snapshot-isolated readers:
// the writer (one thread at a time) mutates *working state* through
// Allocate/Free/StageWrite, where StageWrite() hands back the page's working
// buffer — a fresh one when a published version can see the current buffer
// (copy-on-write) or the extent changes, else the current buffer itself —
// and atomically publishes the result with Commit(). A published version's
// page table is an array of
// fixed-size chunks shared with the versions before and after it: Commit()
// copies only the chunks the writer touched since the last commit and
// reuses every other chunk pointer (path copying), so its cost tracks the
// pages changed, not the pages live. Readers pin an immutable published
// version via AcquireSnapshot() under an EpochGuard and read through the
// returned Snapshot; retired versions, superseded chunks and displaced page
// buffers are reclaimed by the epoch scheme (src/storage/epoch.h) once no
// reader can reach them. Snapshot reads are safe against the concurrently
// staging and committing writer. Everything that touches working state —
// the writer-side Read/ReadInPlace/PeekPage, SimulateCache, Save/Load* —
// belongs to the writer's side and must not race it.
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
  // PageFile::ReadInPlace and are safe against the concurrently mutating
  // writer.
  class Snapshot {
   public:
    // Zero-copy read: returns the version's own page buffer, valid for the
    // page's extent in this version (see extent()), and counts one disk read
    // (see PageFile::ReadInPlace for `level` / `delta`). Copy-on-write never mutates a published buffer, so the bytes
    // are immutable and stay valid exactly as long as the EpochGuard the
    // snapshot was acquired under — the pointer must not outlive it
    // (srcheck rule C5).
    const char* ReadInPlace(PageId id, int level = -1,
                            IoStatsDelta* delta = nullptr) const;

    // ReadInPlace plus a copy of the whole logical page into `out`
    // (page_size bytes): the extent, then zeros.
    void Read(PageId id, char* out, int level = -1,
              IoStatsDelta* delta = nullptr) const;

    // Bytes page `id` holds in this version (<= page_size). The id must be
    // live in this version.
    size_t extent(PageId id) const;

    // Asks the CPU to start loading the first kPrefetchBytes (at most the
    // extent) of page `id`
    // into cache, so a ReadInPlace of it shortly after finds them there.
    // A hint only: it counts no read (neither in GetIoStats() nor in any
    // delta), and does nothing when `id` is not live in this version.
    void Prefetch(PageId id) const;

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

  // Allocates a page and returns its id (free pages are recycled). The new
  // page holds no bytes (extent 0), so it reads as a zeroed page until its
  // first StageWrite() sizes its buffer.
  PageId Allocate();

  // Returns a page to the free list. The id must be live.
  void Free(PageId id);

  // Writer-side zero-copy read of the *working* state: returns the page's
  // current buffer, valid for its extent (see extent()), and counts one
  // disk read. `level` tags
  // the read for the per-level breakdown (0 = leaf, -1 = unknown). When
  // `delta` is non-null the read (and any simulated cache hit) is
  // additionally recorded there, giving the caller a per-query view. The
  // pointer is valid until the next Allocate/Free/StageWrite/Commit/Load*
  // and must not be kept past it (srcheck rule C5).
  const char* ReadInPlace(PageId id, int level = -1,
                          IoStatsDelta* delta = nullptr) const;

  // ReadInPlace plus a copy of the whole logical page into `out`
  // (page_size bytes): the extent, then zeros.
  void Read(PageId id, char* out, int level = -1,
            IoStatsDelta* delta = nullptr) const;

  // Bytes the working page `id` holds (<= page_size). The id must be live.
  size_t extent(PageId id) const;

  // Sum of extent() over the live pages: the bytes the working state keeps
  // in page buffers, against live_pages() * page_size() logical bytes. A
  // running total, O(1).
  size_t stored_bytes() const { return stored_bytes_; }

  // --- commit protocol (single writer) -----------------------------------

  // Writer-side page update; counts one write, sets the page's extent to
  // `extent` (CHECKed <= page_size) and returns its working buffer of
  // exactly `extent` bytes, which the caller must overwrite completely —
  // the page's logical bytes past it read as zero. When the published
  // version can see the current buffer, the returned one is fresh and NOT
  // zeroed (copy-on-write: the old buffer is retired at the next Commit()
  // and the page gets a new stamp); when the current buffer is unpublished
  // but of another extent, it is replaced by a fresh one, also NOT zeroed;
  // otherwise it is the current buffer, which no snapshot can see. The
  // pointer is valid until the next Allocate/Free/StageWrite/Commit/Load*
  // and must not be kept past it (srcheck rule C5).
  [[nodiscard]] char* StageWrite(PageId id, size_t extent);

  // The full-page form: StageWrite(id, page_size()).
  [[nodiscard]] char* StageWrite(PageId id) {
    return StageWrite(id, page_size_);
  }

  // StageWrite(id) followed by a copy of `data` (page_size bytes), for
  // callers holding a complete page image (storage probes and tests).
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

  // Enables a simulated LRU cache of `capacity` pages: subsequent reads
  // still count in IoStats::reads, but IoStats::cache_misses only counts
  // reads the cache would not have served. Capacity 0 disables the
  // simulation. Used by the buffer-pool extension bench; the data path is
  // unchanged (contents are always served).
  void SimulateCache(size_t capacity);

  // Direct access to the working page bytes (valid for extent(id)) with NO
  // I/O accounting. For invariant checkers and offline statistics walkers
  // only — never in query or update paths.
  const char* PeekPage(PageId id) const;
  char* MutablePageForTest(PageId id);

  // Serializes the whole simulated disk (page size, allocation state, page
  // contents) to a stream/file; LoadFrom replaces this PageFile's contents
  // with a previously saved image. I/O counters are not persisted. These
  // are the substrate of the index structures' Save/Open.
  //
  // Durability contract (format v3, see page_file.cc):
  //   * SaveTo writes a checksummed image — header CRC32C, each live
  //     page's extent and bytes under a per-page CRC32C, and a footer
  //     echoing the page counts plus a CRC32C over the whole image — with
  //     fixed little-endian framing. The image must be the final section
  //     of the stream (LoadFrom checks that it ends exactly at EOF).
  //   * LoadFrom also reads v2 images (every page a full page_size
  //     record); their pages load at full extent.
  //   * Save(path) is atomic: temp file + flush + fsync + rename via
  //     storage::AtomicWriteFile, so the destination always holds either
  //     the previous image or the complete new one.
  //   * LoadFrom is all-or-nothing: the image is staged into fresh state
  //     and swapped in only after every checksum and count validates. On
  //     any failure this PageFile — possibly a live index — is untouched.
  //     On success the loaded pages are working state: readers keep the
  //     previously published version until the caller's next Commit(),
  //     which is how every index's Open() publishes what it loaded.
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
  // bytes (nullptr = dead in that version), the buffer's stamp and the
  // number of bytes it holds.
  struct PageRef {
    const char* data = nullptr;
    uint64_t stamp = 0;
    uint32_t extent = 0;
  };

  // How much of a page Snapshot::Prefetch asks for (at most its extent):
  // the first 16 cache lines, which hold an SR-tree page's header and its
  // first coordinate columns. Chosen by a sweep on the D = 16 uniform k-NN workload (see
  // docs/ANALYSIS.md "Next-child prefetch"): 256 and 512 bytes and 1,536
  // and 2,048 bytes all measured slower.
  static constexpr size_t kPrefetchBytes = 1024;

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
  // A dead page holds a null buffer until Allocate() recycles it — for
  // pages restored from an image, that is what bounds a forged header's
  // allocation to the bytes actually present in the stream.
  std::vector<std::unique_ptr<char[]>> pages_ UNGUARDED_OK(
      "single-writer working state; readers go through committed_");
  // extents_[id]: the bytes pages_[id] holds (0 for a dead page).
  std::vector<uint32_t> extents_ UNGUARDED_OK(
      "single-writer working state; readers go through committed_");
  std::vector<bool> live_ UNGUARDED_OK(
      "single-writer working state; readers go through committed_");
  std::vector<PageId> free_list_ UNGUARDED_OK(
      "single-writer working state; readers go through committed_");
  size_t live_pages_ UNGUARDED_OK(
      "single-writer working state; readers go through committed_") = 0;
  size_t stored_bytes_ UNGUARDED_OK(
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
