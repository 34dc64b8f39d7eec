#include "src/storage/page_file.h"

#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace srtree {
namespace {

TEST(PageFileTest, AllocateReadWrite) {
  PageFile file(256);
  const PageId id = file.Allocate();
  std::vector<char> data(256, 'a');
  file.Write(id, data.data());

  std::vector<char> out(256);
  file.Read(id, out.data());
  EXPECT_EQ(std::memcmp(out.data(), data.data(), 256), 0);
  EXPECT_EQ(file.GetIoStats().reads, 1u);
  EXPECT_EQ(file.GetIoStats().writes, 1u);
}

TEST(PageFileTest, AllocationZeroesPages) {
  PageFile file(64);
  const PageId id = file.Allocate();
  std::vector<char> out(64, 'z');
  file.Read(id, out.data());
  for (const char c : out) EXPECT_EQ(c, 0);
}

TEST(PageFileTest, FreeRecyclesIds) {
  PageFile file(64);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(file.live_pages(), 2u);
  file.Free(a);
  EXPECT_EQ(file.live_pages(), 1u);
  const PageId c = file.Allocate();
  EXPECT_EQ(c, a);  // recycled
  // Recycled pages come back zeroed.
  std::vector<char> out(64, 'z');
  file.Read(c, out.data());
  for (const char ch : out) EXPECT_EQ(ch, 0);
}

TEST(PageFileTest, PerLevelReadAccounting) {
  PageFile file(64);
  const PageId a = file.Allocate();
  std::vector<char> buf(64);
  file.Read(a, buf.data(), /*level=*/0);
  file.Read(a, buf.data(), /*level=*/0);
  file.Read(a, buf.data(), /*level=*/2);
  file.Read(a, buf.data(), /*level=*/-1);  // unknown level
  const IoStats stats = file.GetIoStats();
  EXPECT_EQ(stats.reads, 4u);
  EXPECT_EQ(stats.leaf_reads(), 2u);
  EXPECT_EQ(stats.nonleaf_reads(), 1u);
  ASSERT_EQ(stats.reads_by_level.size(), 3u);
  EXPECT_EQ(stats.reads_by_level[1], 0u);
}

TEST(PageFileTest, StatsReset) {
  PageFile file(64);
  const PageId a = file.Allocate();
  std::vector<char> buf(64);
  file.Read(a, buf.data(), 0);
  file.Write(a, buf.data());
  file.ResetStats();
  const IoStats stats = file.GetIoStats();
  EXPECT_EQ(stats.reads, 0u);
  EXPECT_EQ(stats.writes, 0u);
  EXPECT_EQ(stats.leaf_reads(), 0u);
  EXPECT_EQ(stats.accesses(), 0u);
  EXPECT_TRUE(stats.reads_by_level.empty());
}

TEST(PageFileTest, PeekDoesNotCount) {
  PageFile file(64);
  const PageId a = file.Allocate();
  (void)file.PeekPage(a);
  EXPECT_EQ(file.GetIoStats().reads, 0u);
}

// The zero-copy snapshot read hands out the committed buffer itself and
// counts exactly what the copying Read counts.
TEST(PageFileTest, SnapshotReadInPlaceCountsLikeRead) {
  PageFile file(64);
  const PageId a = file.Allocate();
  std::vector<char> data(64, 'q');
  file.StageWrite(a, data.data());
  file.Commit({});
  file.ResetStats();

  const EpochGuard guard(file.epochs());
  const PageFile::Snapshot snap = file.AcquireSnapshot(guard);
  IoStatsDelta in_place;
  const char* page = snap.ReadInPlace(a, /*level=*/1, &in_place);
  EXPECT_EQ(std::memcmp(page, data.data(), 64), 0);
  // Same bytes on every call: no copy is made.
  EXPECT_EQ(snap.ReadInPlace(a, /*level=*/1, &in_place), page);

  IoStatsDelta copied;
  std::vector<char> out(64);
  snap.Read(a, out.data(), /*level=*/1, &copied);
  snap.Read(a, out.data(), /*level=*/1, &copied);
  EXPECT_EQ(in_place, copied);

  const IoStats stats = file.GetIoStats();
  EXPECT_EQ(stats.reads, 4u);
  EXPECT_EQ(stats.cache_misses, 4u);
  ASSERT_EQ(stats.reads_by_level.size(), 2u);
  EXPECT_EQ(stats.reads_by_level[1], 4u);
}

// Concurrent readers count into per-thread shards; the summed counters are
// exact, with no lock on the read path.
TEST(PageFileTest, ConcurrentSnapshotReadsCountExactly) {
  PageFile file(64);
  std::vector<PageId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(file.Allocate());
    std::vector<char> data(64, static_cast<char>('a' + i));
    file.StageWrite(ids.back(), data.data());
  }
  file.Commit({});
  file.ResetStats();

  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 5000;
  std::vector<IoStatsDelta> deltas(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const EpochGuard guard(file.epochs());
      const PageFile::Snapshot snap = file.AcquireSnapshot(guard);
      for (int r = 0; r < kReadsPerThread; ++r) {
        const size_t i = static_cast<size_t>(r) % ids.size();
        const char* page = snap.ReadInPlace(ids[i], r % 3, &deltas[t]);
        ASSERT_EQ(page[0], static_cast<char>('a' + i));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  IoStatsDelta total;
  for (const IoStatsDelta& d : deltas) total.MergeFrom(d);
  const IoStats stats = file.GetIoStats();
  EXPECT_EQ(stats.reads, uint64_t{kThreads} * kReadsPerThread);
  EXPECT_EQ(stats.reads, total.reads);
  EXPECT_EQ(stats.leaf_reads(), total.leaf_reads);
  EXPECT_EQ(stats.nonleaf_reads(), total.nonleaf_reads);
  ASSERT_EQ(stats.reads_by_level.size(), 3u);
}

TEST(PageFileTest, SimulatedCacheHitsCountedPerShard) {
  PageFile file(64);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  file.SimulateCache(1);
  std::vector<char> buf(64);
  file.Read(a, buf.data(), 0);  // miss
  file.Read(a, buf.data(), 0);  // hit
  file.Read(b, buf.data(), 0);  // miss, evicts a
  file.Read(a, buf.data(), 0);  // miss
  EXPECT_EQ(file.GetIoStats().reads, 4u);
  EXPECT_EQ(file.GetIoStats().cache_misses, 3u);
  file.SimulateCache(0);
  file.Read(a, buf.data(), 0);
  EXPECT_EQ(file.GetIoStats().cache_misses, 4u);
}

TEST(PageFileDeathTest, UseAfterFreeAborts) {
  PageFile file(64);
  const PageId a = file.Allocate();
  file.Free(a);
  std::vector<char> buf(64);
  EXPECT_DEATH(file.Read(a, buf.data()), "CHECK failed");
  EXPECT_DEATH(file.Free(a), "CHECK failed");
}

}  // namespace
}  // namespace srtree
