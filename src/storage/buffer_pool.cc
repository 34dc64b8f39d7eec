#include "src/storage/buffer_pool.h"

#include <algorithm>

#include "src/common/check.h"

namespace srtree {

BufferPool::BufferPool(PageFile* file, size_t capacity, size_t shards)
    : file_(file) {
  CHECK(file_ != nullptr);
  CHECK_GE(capacity, 1u);
  const size_t shard_count = std::max<size_t>(1, std::min(shards, capacity));
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    // Distribute the capacity; the first shards absorb the remainder.
    shards_.push_back(std::make_unique<Shard>(
        capacity / shard_count + (i < capacity % shard_count ? 1 : 0)));
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
      shard.frames.erase(it->key);
      shard.lru.erase(it);
      return;
    }
    if (it == shard.lru.begin()) return;
  }
}

BufferPool::Frame& BufferPool::InsertFrame(Shard& shard, FrameKey key) {
  EvictIfFull(shard);
  shard.lru.push_front(
      Frame{key, std::make_unique<char[]>(file_->page_size())});
  shard.frames[key] = shard.lru.begin();
  return shard.lru.front();
}

BufferPool::PageGuard BufferPool::PinSnapshot(const PageFile::Snapshot& snap,
                                              PageId id) {
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
  snap.Read(id, frame.data.get());
  ++frame.pins;
  return PageGuard(this, shard_index, &frame, frame.data.get());
}

void BufferPool::Unpin(size_t shard_index, void* frame_ptr) {
  Shard& shard = *shards_[shard_index];
  Frame* frame = static_cast<Frame*>(frame_ptr);
  MutexLock lock(shard.mu);
  CHECK_GT(frame->pins, 0);
  --frame->pins;
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

}  // namespace srtree
