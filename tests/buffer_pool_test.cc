#include "src/storage/buffer_pool.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace srtree {
namespace {

// Allocates `count` pages of `file`, fills page i with the byte 'a' + i and
// commits them, so snapshots can see them.
std::vector<PageId> CommitFilledPages(PageFile& file, int count) {
  std::vector<PageId> ids;
  for (int i = 0; i < count; ++i) {
    const PageId id = file.Allocate();
    std::memset(file.StageWrite(id), 'a' + i, file.page_size());
    ids.push_back(id);
  }
  file.Commit({});
  return ids;
}

// Pins page `id` as of `snap` and releases it.
void Touch(BufferPool& pool, const PageFile::Snapshot& snap, PageId id) {
  const BufferPool::PageGuard pin = pool.PinSnapshot(snap, id);
}

TEST(BufferPoolTest, HitsAvoidDiskReads) {
  PageFile file(64);
  const PageId a = CommitFilledPages(file, 1)[0];
  file.ResetStats();

  BufferPool pool(&file, 4);
  const EpochGuard guard(file.epochs());
  const PageFile::Snapshot snap = file.AcquireSnapshot(guard);
  for (int i = 0; i < 3; ++i) {
    const BufferPool::PageGuard pin = pool.PinSnapshot(snap, a);
    EXPECT_EQ(pin.data()[0], 'a');
  }
  EXPECT_EQ(file.GetIoStats().reads, 1u);  // only the first miss hit the disk
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPoolTest, ReadsStayCorrectAcrossEvictions) {
  PageFile file(16);
  const std::vector<PageId> ids = CommitFilledPages(file, 8);
  BufferPool pool(&file, 3);
  const EpochGuard guard(file.epochs());
  const PageFile::Snapshot snap = file.AcquireSnapshot(guard);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      const BufferPool::PageGuard pin = pool.PinSnapshot(snap, ids[i]);
      EXPECT_EQ(pin.data()[0], static_cast<char>('a' + i));
    }
  }
  // Cycling 8 pages through 3 frames in LRU order never hits.
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 24u);
}

// Eviction takes the least recently used frame: touching `a` before the
// pool fills keeps it resident while `b` is evicted.
TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  PageFile file(64);
  const std::vector<PageId> ids = CommitFilledPages(file, 3);
  BufferPool pool(&file, 2, /*shards=*/1);
  const EpochGuard guard(file.epochs());
  const PageFile::Snapshot snap = file.AcquireSnapshot(guard);
  Touch(pool, snap, ids[0]);
  Touch(pool, snap, ids[1]);
  Touch(pool, snap, ids[0]);  // a is now the most recently used
  Touch(pool, snap, ids[2]);  // evicts b
  EXPECT_EQ(pool.misses(), 3u);
  Touch(pool, snap, ids[0]);
  EXPECT_EQ(pool.hits(), 2u);
  Touch(pool, snap, ids[1]);
  EXPECT_EQ(pool.misses(), 4u);
}

// Eviction skips pinned frames: with every frame pinned, the shard grows
// instead of tearing a frame out from under its holder.
TEST(BufferPoolTest, PinnedFramesSurviveEvictionPressure) {
  PageFile file(64);
  const std::vector<PageId> ids = CommitFilledPages(file, 4);
  BufferPool pool(&file, 2, /*shards=*/1);
  const EpochGuard guard(file.epochs());
  const PageFile::Snapshot snap = file.AcquireSnapshot(guard);
  const BufferPool::PageGuard pin_a = pool.PinSnapshot(snap, ids[0]);
  const BufferPool::PageGuard pin_b = pool.PinSnapshot(snap, ids[1]);
  for (int i = 2; i < 4; ++i) {
    const BufferPool::PageGuard pin = pool.PinSnapshot(snap, ids[i]);
    EXPECT_EQ(pin.data()[0], static_cast<char>('a' + i));
  }
  EXPECT_EQ(pin_a.data()[0], 'a');
  EXPECT_EQ(pin_b.data()[0], 'b');
  // Both pinned frames are still cached.
  const BufferPool::PageGuard again = pool.PinSnapshot(snap, ids[0]);
  EXPECT_EQ(pool.hits(), 1u);
}

// A page rewritten and committed gets a fresh stamp, so the pool caches
// each version under its own key: an old snapshot keeps hitting the old
// bytes, a new one misses once and then hits the new bytes.
TEST(BufferPoolTest, VersionsNeverAlias) {
  PageFile file(64);
  const PageId a = CommitFilledPages(file, 1)[0];
  BufferPool pool(&file, 4, /*shards=*/1);
  const EpochGuard guard(file.epochs());
  const PageFile::Snapshot old_snap = file.AcquireSnapshot(guard);
  { const BufferPool::PageGuard pin = pool.PinSnapshot(old_snap, a); }

  std::memset(file.StageWrite(a), 'n', file.page_size());
  file.Commit({});
  const PageFile::Snapshot new_snap = file.AcquireSnapshot(guard);
  {
    const BufferPool::PageGuard pin = pool.PinSnapshot(new_snap, a);
    EXPECT_EQ(pin.data()[0], 'n');
  }
  {
    const BufferPool::PageGuard pin = pool.PinSnapshot(old_snap, a);
    EXPECT_EQ(pin.data()[0], 'a');
  }
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(pool.hits(), 1u);
}

// Concurrent pins of pages a writer keeps rewriting and committing: every
// reader pins its own snapshot, and each pinned frame must hold one complete
// committed version (a uniform byte pattern), never a torn mix. Run under
// TSan by the CI sanitizer job.
TEST(BufferPoolTest, ConcurrentPinsOfCommittedVersionsAreUntorn) {
  constexpr size_t kPageSize = 256;
  PageFile file(kPageSize);
  const std::vector<PageId> ids = CommitFilledPages(file, 4);

  BufferPool pool(&file, 3);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  const auto uniform = [](const char* data, size_t n) {
    for (size_t i = 1; i < n; ++i) {
      if (data[i] != data[0]) return false;
    }
    return true;
  };
  const auto reader = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const EpochGuard guard(file.epochs());
      const PageFile::Snapshot snap = file.AcquireSnapshot(guard);
      for (const PageId id : ids) {
        const BufferPool::PageGuard pin = pool.PinSnapshot(snap, id);
        if (!uniform(pin.data(), kPageSize)) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) readers.emplace_back(reader);

  for (int i = 0; i < 4000; ++i) {
    std::memset(file.StageWrite(ids[static_cast<size_t>(i) % ids.size()]),
                i & 0x7f, kPageSize);
    file.Commit({});
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace srtree
