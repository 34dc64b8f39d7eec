#include "src/storage/buffer_pool.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace srtree {
namespace {

TEST(BufferPoolTest, HitsAvoidDiskReads) {
  PageFile file(64);
  const PageId a = file.Allocate();
  std::vector<char> data(64, 'a');
  file.Write(a, data.data());
  file.ResetStats();

  BufferPool pool(&file, 4);
  std::vector<char> out(64);
  pool.Read(a, out.data());
  pool.Read(a, out.data());
  pool.Read(a, out.data());
  EXPECT_EQ(file.GetIoStats().reads, 1u);  // only the first miss hit the disk
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  PageFile file(64);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  const PageId c = file.Allocate();
  file.ResetStats();

  BufferPool pool(&file, 2);
  std::vector<char> data(64, 'x');
  pool.Write(a, data.data());
  EXPECT_EQ(file.GetIoStats().writes, 0u);  // buffered, not yet on disk

  std::vector<char> out(64);
  pool.Read(b, out.data());
  pool.Read(c, out.data());  // evicts a (LRU), forcing the writeback
  EXPECT_EQ(file.GetIoStats().writes, 1u);

  std::vector<char> check(64);
  file.Read(a, check.data());
  EXPECT_EQ(std::memcmp(check.data(), data.data(), 64), 0);
}

TEST(BufferPoolTest, WriteCoalescing) {
  PageFile file(64);
  const PageId a = file.Allocate();
  file.ResetStats();

  {
    BufferPool pool(&file, 2);
    std::vector<char> data(64, 'y');
    for (int i = 0; i < 10; ++i) pool.Write(a, data.data());
  }  // destructor flushes
  EXPECT_EQ(file.GetIoStats().writes, 1u);
}

TEST(BufferPoolTest, DiscardDropsWithoutWriteback) {
  PageFile file(64);
  const PageId a = file.Allocate();
  file.ResetStats();

  BufferPool pool(&file, 2);
  std::vector<char> data(64, 'z');
  pool.Write(a, data.data());
  pool.Discard(a);
  pool.FlushAll();
  EXPECT_EQ(file.GetIoStats().writes, 0u);
}

TEST(BufferPoolTest, ReadsStayCorrectAcrossEvictions) {
  PageFile file(16);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    const PageId id = file.Allocate();
    std::vector<char> data(16, static_cast<char>('a' + i));
    file.Write(id, data.data());
    ids.push_back(id);
  }
  BufferPool pool(&file, 3);
  std::vector<char> out(16);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      pool.Read(ids[i], out.data());
      EXPECT_EQ(out[0], static_cast<char>('a' + i));
    }
  }
}

// The zombie protocol, single-threaded: a Write() to a pinned page detaches
// the pinned frame (the holder keeps reading the pre-write bytes until it
// unpins) and installs the new bytes for every subsequent reader.
TEST(BufferPoolTest, WriteToPinnedFrameKeepsOldBytesUntilUnpin) {
  PageFile file(64);
  const PageId a = file.Allocate();
  std::vector<char> old_bytes(64, 'o');
  file.Write(a, old_bytes.data());

  BufferPool pool(&file, 4);
  {
    BufferPool::PageGuard guard = pool.Pin(a);
    EXPECT_EQ(guard.data()[0], 'o');

    std::vector<char> new_bytes(64, 'n');
    pool.Write(a, new_bytes.data());

    // The pin still sees the bytes it pinned — no torn or switched view.
    EXPECT_EQ(std::memcmp(guard.data(), old_bytes.data(), 64), 0);

    // A fresh pin sees the new bytes immediately.
    BufferPool::PageGuard fresh = pool.Pin(a);
    EXPECT_EQ(std::memcmp(fresh.data(), new_bytes.data(), 64), 0);
  }
  // The detached frame was superseded, so only the new bytes reach disk.
  pool.FlushAll();
  std::vector<char> check(64);
  file.Read(a, check.data());
  EXPECT_EQ(check[0], 'n');
}

TEST(BufferPoolTest, DiscardLeavesPinnedFrameReadable) {
  PageFile file(64);
  const PageId a = file.Allocate();
  std::vector<char> on_disk(64, 'd');
  file.Write(a, on_disk.data());

  BufferPool pool(&file, 4);
  std::vector<char> staged(64, 's');
  pool.Write(a, staged.data());
  {
    BufferPool::PageGuard guard = pool.Pin(a);
    pool.Discard(a);
    // The pinned (now zombie) frame keeps its bytes; the staged write is
    // dropped, never written back.
    EXPECT_EQ(std::memcmp(guard.data(), staged.data(), 64), 0);
  }
  pool.FlushAll();
  std::vector<char> check(64);
  file.Read(a, check.data());
  EXPECT_EQ(check[0], 'd');
}

// Concurrent Pin/Read of a page that a writer keeps re-Writing: every pin
// must observe one complete write (a uniform byte pattern), never a torn
// mix. Run under TSan by the CI sanitizer job.
TEST(BufferPoolTest, ConcurrentPinAndWriteInvalidateIsUntorn) {
  constexpr size_t kPageSize = 256;
  PageFile file(kPageSize);
  const PageId a = file.Allocate();
  std::vector<char> init(kPageSize, static_cast<char>(0));
  file.Write(a, init.data());

  BufferPool pool(&file, 8);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  const auto uniform = [](const char* data, size_t n) {
    for (size_t i = 1; i < n; ++i) {
      if (data[i] != data[0]) return false;
    }
    return true;
  };
  const auto reader = [&] {
    std::vector<char> out(kPageSize);
    while (!stop.load(std::memory_order_relaxed)) {
      {
        BufferPool::PageGuard guard = pool.Pin(a);
        if (!uniform(guard.data(), kPageSize)) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      pool.Read(a, out.data());
      if (!uniform(out.data(), kPageSize)) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) readers.emplace_back(reader);

  std::vector<char> buf(kPageSize);
  for (int i = 0; i < 4000; ++i) {
    std::memset(buf.data(), static_cast<char>(i & 0x7f), kPageSize);
    pool.Write(a, buf.data());
    if (i % 16 == 15) pool.Discard(a);  // mix in pin-while-discard traffic
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace srtree
