// A sharded LRU buffer pool over a PageFile.
//
// The paper's measurements assume uncached reads, so the index structures
// talk to PageFile directly by default. BufferPool exists for the serving
// path (src/engine/): reads served from the pool do not count as disk
// reads; dirty pages are written back on eviction.
//
// Concurrency: frames are partitioned into shards (page id modulo shard
// count), each with its own mutex, LRU list, and frame map, so concurrent
// readers contend only when they touch the same shard. A frame being copied
// out is *pinned* first — eviction skips pinned frames — which lets the
// copy run outside the shard lock without another thread tearing the frame
// under it. Read()/Pin() are safe from any number of threads. Write() and
// Discard() are single-writer among themselves (like the PageFile
// underneath) but safe against concurrent Pin()/Read() of the same page:
// instead of mutating or freeing a pinned frame they detach it to a
// "zombie" side list, where in-flight pins keep reading the superseded
// bytes; the last unpin frees it. FlushAll() still requires full external
// exclusion.
//
// Snapshot reads: frames are keyed by (page id, buffer stamp). Legacy
// direct reads use stamp 0 and are invalidated by Write()/Discard() as
// before. PinSnapshot() caches a PageFile::Snapshot's pages
// under the snapshot's own stamps — copy-on-write gives a changed page a
// fresh stamp, so a stale hit is impossible by construction and retired
// versions need no invalidation protocol at all: their frames simply age
// out of the LRU.

#ifndef SRTREE_STORAGE_BUFFER_POOL_H_
#define SRTREE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/storage/page_file.h"

namespace srtree {

class BufferPool {
 public:
  // `capacity` is the total number of pages held in memory; must be >= 1.
  // The pool uses min(shards, capacity) shards so every shard owns at least
  // one frame.
  explicit BufferPool(PageFile* file, size_t capacity, size_t shards = 8);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool();

  // The pin protocol as a capability: a thread holding a pin may read the
  // frame's bytes without the shard lock, because eviction skips pinned
  // frames. PinCapability is the (zero-state) capability the analysis
  // tracks; ScopedPin below is its scoped holder.
  class CAPABILITY("pin") PinCapability {};

  // A pinned view of one cached page. While the guard lives, the frame
  // cannot be evicted, so data() stays valid and untorn. Move-only; unpins
  // on destruction. The move machinery is outside what the static analysis
  // can follow — ScopedPin is the annotated, analysis-checked wrapper.
  class PageGuard {
   public:
    PageGuard(PageGuard&& other) noexcept;
    PageGuard& operator=(PageGuard&& other) noexcept;
    PageGuard(const PageGuard&) = delete;
    PageGuard& operator=(const PageGuard&) = delete;
    ~PageGuard();

    const char* data() const { return data_; }

   private:
    friend class BufferPool;
    PageGuard(BufferPool* pool, size_t shard, void* frame, const char* data)
        : pool_(pool), shard_(shard), frame_(frame), data_(data) {}

    BufferPool* pool_ = nullptr;
    size_t shard_ = 0;
    // The pinned Frame (opaque here to keep Frame private). Held by address
    // — stable across LRU splices and zombie detachment — so Unpin releases
    // exactly the frame that was pinned, even after the (id, stamp) key has
    // been superseded in the map.
    void* frame_ = nullptr;
    const char* data_ = nullptr;
  };

  // Scoped-capability form of the pin/unpin protocol: construction pins the
  // page (shared — any number of concurrent pins), destruction unpins.
  // -Wthread-safety verifies every ScopedPin is released on every path.
  // Non-movable by design; a pin that needs to change hands uses PageGuard.
  class SCOPED_CAPABILITY ScopedPin {
   public:
    ScopedPin(BufferPool& pool, PageId id, int level = -1,
              IoStatsDelta* delta = nullptr) ACQUIRE_SHARED(pool.pin_cap_)
        : guard_(pool.Pin(id, level, delta)) {}
    ScopedPin(BufferPool& pool, const PageFile::Snapshot& snap, PageId id,
              int level = -1, IoStatsDelta* delta = nullptr)
        ACQUIRE_SHARED(pool.pin_cap_)
        : guard_(pool.PinSnapshot(snap, id, level, delta)) {}
    ~ScopedPin() RELEASE() {}

    ScopedPin(const ScopedPin&) = delete;
    ScopedPin& operator=(const ScopedPin&) = delete;

    const char* data() const { return guard_.data(); }

   private:
    PageGuard guard_;
  };

  // Pins the page in its shard, fetching it from the file on a miss (which
  // counts one disk read in the file's stats and in `delta`). A hit costs
  // no disk read.
  // [[nodiscard]]: a discarded guard unpins immediately, silently turning
  // the caller's "pinned" pointer reads into use-after-evict races.
  [[nodiscard]] PageGuard Pin(PageId id, int level = -1,
                              IoStatsDelta* delta = nullptr);

  // Pins the page *as of the given snapshot*, fetching through
  // Snapshot::Read on a miss. The frame is keyed by the snapshot's buffer
  // stamp for the page, so versions never alias: a page rewritten since the
  // snapshot lives in the pool under a different stamp. The snapshot (and
  // its EpochGuard) must outlive the returned guard.
  [[nodiscard]] PageGuard PinSnapshot(const PageFile::Snapshot& snap,
                                      PageId id, int level = -1,
                                      IoStatsDelta* delta = nullptr);

  // Reads through the pool: Pin() + copy into `out` (page_size bytes).
  // Safe to call concurrently with other Read()/Pin() calls.
  void Read(PageId id, char* out, int level = -1,
            IoStatsDelta* delta = nullptr);

  // Writes into the pool; the page is flushed to the file on eviction or
  // FlushAll(), so back-to-back updates of a hot node cost one disk write.
  // Safe against concurrent Pin()/Read() of the same page: a pinned frame
  // is detached (in-flight pins keep the old bytes) and a fresh frame takes
  // the key.
  void Write(PageId id, const char* data);

  // Drops the page's direct-read frame from the pool without writeback;
  // pair with PageFile::Free when a node is deleted, or call before a
  // direct PageFile::Write to invalidate the stale frame. A pinned frame is
  // detached rather than freed (its dirty contents are dropped either way).
  // Snapshot-stamped frames are untouched — they can never go stale.
  void Discard(PageId id);

  // Writes every dirty frame back to the file.
  void FlushAll();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }

 private:
  // Frames are keyed by (page id, buffer stamp). Stamp 0 is the legacy
  // direct-read namespace (invalidated by Write/Discard); nonzero stamps
  // come from PageFile snapshots and name immutable bytes.
  struct FrameKey {
    PageId id = 0;
    uint64_t stamp = 0;
    bool operator==(const FrameKey& other) const {
      return id == other.id && stamp == other.stamp;
    }
  };
  struct FrameKeyHash {
    size_t operator()(const FrameKey& key) const {
      // Splitmix-style scramble of the 96 key bits folded to one word.
      uint64_t h = (static_cast<uint64_t>(key.id) << 1) ^ key.stamp;
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      return static_cast<size_t>(h);
    }
  };

  struct Frame {
    FrameKey key;
    std::unique_ptr<char[]> data;
    bool dirty = false;
    int pins = 0;
    // A zombie has been superseded (Write) or dropped (Discard) while
    // pinned: it lives on the shard's zombie list, unreachable from the
    // frame map, until its last pin releases it.
    bool zombie = false;
  };

  // std::list keeps Frame addresses stable across LRU/zombie splices, which
  // is what allows a PageGuard to hold Frame and data pointers without the
  // lock.
  using LruList = std::list<Frame>;

  // Capability map: shard.mu guards the shard's LRU order, its frame map,
  // its zombie list, and (through them) every Frame's dirty/pins/zombie
  // fields. Frame *bytes* are readable without the lock only under a pin.
  struct Shard {
    explicit Shard(size_t capacity_in) : capacity(capacity_in) {}
    Mutex mu;
    LruList lru GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<FrameKey, LruList::iterator, FrameKeyHash> frames
        GUARDED_BY(mu);
    LruList zombies GUARDED_BY(mu);  // superseded frames with live pins
    const size_t capacity;
  };

  Shard& ShardFor(PageId id) { return *shards_[id % shards_.size()]; }

  Frame& Touch(Shard& shard, LruList::iterator it) REQUIRES(shard.mu);
  Frame& InsertFrame(Shard& shard, FrameKey key) REQUIRES(shard.mu);
  void EvictIfFull(Shard& shard) REQUIRES(shard.mu);
  void WriteBack(Shard& shard, Frame& frame) REQUIRES(shard.mu);
  // Moves the frame at `it` (must be in shard.lru and mapped) onto the
  // zombie list; its pins keep the old bytes readable until the last one
  // releases.
  void DetachFrame(Shard& shard, LruList::iterator it) REQUIRES(shard.mu);

  void Unpin(size_t shard_index, void* frame);

  PageFile* file_;
  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  PinCapability pin_cap_;  // carrier for the ScopedPin annotations
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace srtree

#endif  // SRTREE_STORAGE_BUFFER_POOL_H_
