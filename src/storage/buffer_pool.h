// A sharded LRU buffer pool over a PageFile's committed versions.
//
// A leaf: no index or engine path reaches it. Queries read their pinned
// snapshots in place (PageFile::Snapshot::ReadInPlace), and the one cache
// model is the simulated LRU (PageFile::SimulateCache). The pool stays as a
// measured alternative — the storage probes time a pinned hit against an
// in-place read — with its own unit tests; srlint R10 keeps it a leaf.
//
// Frames are keyed by (page id, buffer stamp) and filled through
// PageFile::Snapshot reads. Copy-on-write gives a rewritten page a fresh
// stamp, so a (page id, stamp) pair names immutable bytes: a stale hit is
// impossible by construction, the writer never invalidates anything, and
// retired versions' frames simply age out of the LRU. The pool never writes.
//
// Concurrency: frames are partitioned into shards (page id modulo shard
// count), each with its own mutex, LRU list, and frame map, so concurrent
// readers contend only when they touch the same shard. A frame being read is
// *pinned* first — eviction skips pinned frames — which lets the caller read
// it outside the shard lock without another thread evicting it underneath.
// PinSnapshot() is safe from any number of threads.

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

  // A pinned view of one cached page. While the guard lives, the frame
  // cannot be evicted, so data() stays valid and untorn and may be read
  // without the shard lock. Move-only; unpins on destruction.
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
    // The pinned Frame (opaque here to keep Frame private), held by address
    // — stable across LRU splices — so Unpin releases exactly the frame that
    // was pinned.
    void* frame_ = nullptr;
    const char* data_ = nullptr;
  };

  // Pins the page *as of the given snapshot*, fetching through
  // Snapshot::Read on a miss (which counts one disk read in the file's
  // stats; a hit costs no disk read). The frame is keyed by
  // the snapshot's buffer stamp for the page, so versions never alias: a
  // page rewritten since the snapshot lives in the pool under a different
  // stamp. The snapshot (and its EpochGuard) must outlive the returned
  // guard.
  // [[nodiscard]]: a discarded guard unpins immediately, silently turning
  // the caller's "pinned" pointer reads into use-after-evict races.
  [[nodiscard]] PageGuard PinSnapshot(const PageFile::Snapshot& snap,
                                      PageId id);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  // Frames are keyed by (page id, buffer stamp): the stamp comes from a
  // PageFile snapshot, so the key names immutable bytes.
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
    int pins = 0;
  };

  // std::list keeps Frame addresses stable across LRU splices, which is
  // what allows a PageGuard to hold Frame and data pointers without the
  // lock.
  using LruList = std::list<Frame>;

  // Capability map: shard.mu guards the shard's LRU order, its frame map,
  // and (through them) every Frame's pin count. Frame *bytes* are readable
  // without the lock only under a pin.
  struct Shard {
    explicit Shard(size_t capacity_in) : capacity(capacity_in) {}
    Mutex mu;
    LruList lru GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<FrameKey, LruList::iterator, FrameKeyHash> frames
        GUARDED_BY(mu);
    const size_t capacity;
  };

  Frame& Touch(Shard& shard, LruList::iterator it) REQUIRES(shard.mu);
  Frame& InsertFrame(Shard& shard, FrameKey key) REQUIRES(shard.mu);
  void EvictIfFull(Shard& shard) REQUIRES(shard.mu);

  void Unpin(size_t shard_index, void* frame);

  PageFile* file_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace srtree

#endif  // SRTREE_STORAGE_BUFFER_POOL_H_
