#include "src/storage/buffer_pool.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

namespace srtree {

BufferPool::BufferPool(PageFile* file, size_t capacity, size_t shards)
    : file_(file), capacity_(capacity) {
  CHECK(file_ != nullptr);
  CHECK_GE(capacity_, 1u);
  const size_t shard_count = std::max<size_t>(1, std::min(shards, capacity_));
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    // Distribute the capacity; the first shards absorb the remainder.
    shards_.push_back(std::make_unique<Shard>(
        capacity_ / shard_count + (i < capacity_ % shard_count ? 1 : 0)));
  }
}

BufferPool::~BufferPool() {
  FlushAll();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mu);
    // A zombie outliving the pool means some PageGuard outlives it too —
    // its data pointer is about to dangle.
    CHECK(shard->zombies.empty());
  }
}

BufferPool::Frame& BufferPool::Touch(Shard& shard, LruList::iterator it) {
  shard.lru.splice(shard.lru.begin(), shard.lru, it);
  return shard.lru.front();
}

void BufferPool::EvictIfFull(Shard& shard) {
  if (shard.lru.size() < shard.capacity) return;
  // Scan from the LRU end for an unpinned victim; when every frame is
  // pinned by in-flight readers the shard temporarily grows instead (the
  // overshoot is bounded by the number of concurrent pins).
  for (auto it = std::prev(shard.lru.end());; --it) {
    if (it->pins == 0) {
      if (it->dirty) WriteBack(shard, *it);
      shard.frames.erase(it->key);
      shard.lru.erase(it);
      return;
    }
    if (it == shard.lru.begin()) return;
  }
}

void BufferPool::WriteBack(Shard& shard, Frame& frame) {
  (void)shard;  // present so the REQUIRES(shard.mu) contract is expressible
  // Only legacy (stamp 0) frames ever take Write(); snapshot-stamped frames
  // cache immutable committed bytes and must never flow back to the file.
  CHECK_EQ(frame.key.stamp, 0u);
  file_->Write(frame.key.id, frame.data.get());
  frame.dirty = false;
}

void BufferPool::DetachFrame(Shard& shard, LruList::iterator it) {
  it->zombie = true;
  // Superseded or discarded contents never reach the file.
  it->dirty = false;
  shard.frames.erase(it->key);
  shard.zombies.splice(shard.zombies.begin(), shard.lru, it);
}

BufferPool::Frame& BufferPool::InsertFrame(Shard& shard, FrameKey key) {
  EvictIfFull(shard);
  shard.lru.push_front(
      Frame{key, std::make_unique<char[]>(file_->page_size())});
  shard.frames[key] = shard.lru.begin();
  return shard.lru.front();
}

BufferPool::PageGuard BufferPool::Pin(PageId id, int level,
                                      IoStatsDelta* delta) {
  const size_t shard_index = id % shards_.size();
  Shard& shard = *shards_[shard_index];
  const FrameKey key{id, 0};
  MutexLock lock(shard.mu);
  auto it = shard.frames.find(key);
  if (it != shard.frames.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    Frame& frame = Touch(shard, it->second);
    ++frame.pins;
    return PageGuard(this, shard_index, &frame, frame.data.get());
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  Frame& frame = InsertFrame(shard, key);
  file_->Read(id, frame.data.get(), level, delta);
  ++frame.pins;
  return PageGuard(this, shard_index, &frame, frame.data.get());
}

BufferPool::PageGuard BufferPool::PinSnapshot(const PageFile::Snapshot& snap,
                                              PageId id, int level,
                                              IoStatsDelta* delta) {
  const size_t shard_index = id % shards_.size();
  Shard& shard = *shards_[shard_index];
  const FrameKey key{id, snap.page_stamp(id)};
  MutexLock lock(shard.mu);
  auto it = shard.frames.find(key);
  if (it != shard.frames.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    Frame& frame = Touch(shard, it->second);
    ++frame.pins;
    return PageGuard(this, shard_index, &frame, frame.data.get());
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  Frame& frame = InsertFrame(shard, key);
  snap.Read(id, frame.data.get(), level, delta);
  ++frame.pins;
  return PageGuard(this, shard_index, &frame, frame.data.get());
}

void BufferPool::Unpin(size_t shard_index, void* frame_ptr) {
  Shard& shard = *shards_[shard_index];
  Frame* frame = static_cast<Frame*>(frame_ptr);
  MutexLock lock(shard.mu);
  CHECK_GT(frame->pins, 0);
  --frame->pins;
  if (frame->zombie && frame->pins == 0) {
    // Last pin out frees the superseded frame. The zombie list is as short
    // as the number of concurrent writer-vs-reader collisions, so the
    // address scan is cheap.
    for (auto it = shard.zombies.begin(); it != shard.zombies.end(); ++it) {
      if (&*it == frame) {
        shard.zombies.erase(it);
        return;
      }
    }
    CHECK(false);  // a zombie frame must be on its shard's zombie list
  }
}

BufferPool::PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_),
      shard_(other.shard_),
      frame_(other.frame_),
      data_(other.data_) {
  other.pool_ = nullptr;
  other.frame_ = nullptr;
  other.data_ = nullptr;
}

BufferPool::PageGuard& BufferPool::PageGuard::operator=(
    PageGuard&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr) pool_->Unpin(shard_, frame_);
    pool_ = other.pool_;
    shard_ = other.shard_;
    frame_ = other.frame_;
    data_ = other.data_;
    other.pool_ = nullptr;
    other.frame_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

BufferPool::PageGuard::~PageGuard() {
  if (pool_ != nullptr) pool_->Unpin(shard_, frame_);
}

void BufferPool::Read(PageId id, char* out, int level, IoStatsDelta* delta) {
  // The copy runs unlocked: the pin guarantees the frame outlives it.
  const ScopedPin pin(*this, id, level, delta);
  std::memcpy(out, pin.data(), file_->page_size());
}

void BufferPool::Write(PageId id, const char* data) {
  Shard& shard = ShardFor(id);
  const FrameKey key{id, 0};
  MutexLock lock(shard.mu);
  auto it = shard.frames.find(key);
  if (it != shard.frames.end() && it->second->pins > 0) {
    // In-flight pins are reading these bytes; give them the old frame and
    // take the key over with a fresh one.
    DetachFrame(shard, it->second);
    it = shard.frames.end();
  }
  Frame& frame = (it != shard.frames.end()) ? Touch(shard, it->second)
                                            : InsertFrame(shard, key);
  std::memcpy(frame.data.get(), data, file_->page_size());
  frame.dirty = true;
}

void BufferPool::Discard(PageId id) {
  Shard& shard = ShardFor(id);
  const FrameKey key{id, 0};
  MutexLock lock(shard.mu);
  const auto it = shard.frames.find(key);
  if (it == shard.frames.end()) return;
  if (it->second->pins > 0) {
    DetachFrame(shard, it->second);
    return;
  }
  shard.lru.erase(it->second);
  shard.frames.erase(it);
}

void BufferPool::FlushAll() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mu);
    for (Frame& frame : shard->lru) {
      if (frame.dirty) WriteBack(*shard, frame);
    }
  }
}

}  // namespace srtree
