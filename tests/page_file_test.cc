#include "src/storage/page_file.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace srtree {

// Test-only window onto the published chunk table (a friend of PageFile).
struct PageFileTestAccess {
  static constexpr size_t kChunkPages = PageFile::kChunkPages;

  // The published version's chunk pointers, in chunk order. Single-threaded
  // tests only: no epoch guard is taken.
  static std::vector<const void*> PublishedChunks(const PageFile& file) {
    const PageFile::VersionState* state =
        file.committed_.load(std::memory_order_seq_cst);
    return {state->chunks.begin(), state->chunks.end()};
  }
};

namespace {

constexpr size_t kChunk = PageFileTestAccess::kChunkPages;
constexpr size_t kSmallPage = 64;

// Fills page `id` (staged) with `tag` in every byte.
void StageFilled(PageFile& file, PageId id, char tag) {
  std::memset(file.StageWrite(id), tag, file.page_size());
}

// Indices of the chunks whose pointers differ between two chunk tables of
// equal length.
std::vector<size_t> ChangedChunks(const std::vector<const void*>& before,
                                  const std::vector<const void*>& after) {
  EXPECT_EQ(before.size(), after.size());
  std::vector<size_t> changed;
  for (size_t c = 0; c < std::min(before.size(), after.size()); ++c) {
    if (before[c] != after[c]) changed.push_back(c);
  }
  return changed;
}

// What a snapshot answers for one page.
struct PageView {
  bool live = false;
  char first = 0;
  uint64_t stamp = 0;
  bool operator==(const PageView&) const = default;
};

// A page's first logical byte (0 when its extent is empty).
char FirstByte(const PageFile::Snapshot& snap, PageId id) {
  std::vector<char> page(snap.page_size());
  snap.Read(id, page.data());
  return page[0];
}

std::vector<PageView> Observe(const PageFile::Snapshot& snap, size_t ids) {
  std::vector<PageView> out(ids);
  for (size_t i = 0; i < ids; ++i) {
    const PageId id = static_cast<PageId>(i);
    if (!snap.is_live(id)) continue;
    out[i] = {true, FirstByte(snap, id), snap.page_stamp(id)};
  }
  return out;
}

// Stages page `id` at `extent` bytes, byte b holding tag + b.
void StageExtent(PageFile& file, PageId id, size_t extent, char tag) {
  char* page = file.StageWrite(id, extent);
  for (size_t b = 0; b < extent; ++b) page[b] = static_cast<char>(tag + b);
}

// Expects `page` (page_size bytes) to hold StageExtent(extent, tag)'s bytes
// and zeros past them.
void ExpectLogicalPage(const std::vector<char>& page, size_t extent,
                       char tag) {
  for (size_t b = 0; b < page.size(); ++b) {
    ASSERT_EQ(page[b], b < extent ? static_cast<char>(tag + b) : 0)
        << "byte " << b;
  }
}

// A file of `pages` pages spanning several chunks, page i filled with
// (i % 100), committed once.
std::unique_ptr<PageFile> MakeCommittedFile(size_t pages) {
  auto file = std::make_unique<PageFile>(kSmallPage);
  for (size_t i = 0; i < pages; ++i) {
    const PageId id = file->Allocate();
    StageFilled(*file, id, static_cast<char>(i % 100));
  }
  file->Commit({});
  return file;
}

TEST(PageFileTest, AllocateReadWrite) {
  PageFile file(256);
  const PageId id = file.Allocate();
  std::vector<char> data(256, 'a');
  file.StageWrite(id, data.data());
  file.Commit({});

  std::vector<char> out(256);
  file.Read(id, out.data());
  EXPECT_EQ(std::memcmp(out.data(), data.data(), 256), 0);
  {
    const EpochGuard guard(file.epochs());
    std::vector<char> committed(256);
    file.AcquireSnapshot(guard).Read(id, committed.data());
    EXPECT_EQ(std::memcmp(committed.data(), data.data(), 256), 0);
  }
  EXPECT_EQ(file.GetIoStats().reads, 2u);
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
  file.StageWrite(a, buf.data());
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

// Prefetch is a cache hint, not a read: it moves no counter, leaves a
// caller's delta alone, does not touch the simulated LRU, and is a no-op
// for an id the snapshot's version does not hold.
TEST(PageFileTest, SnapshotPrefetchCountsNoRead) {
  PageFile file(kDefaultPageSize);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  std::vector<char> data(kDefaultPageSize, 'p');
  file.StageWrite(a, data.data());
  file.StageWrite(b, data.data());
  file.Commit({});
  file.SimulateCache(1);
  file.ResetStats();

  const EpochGuard guard(file.epochs());
  const PageFile::Snapshot before_free = file.AcquireSnapshot(guard);
  IoStatsDelta delta;
  before_free.ReadInPlace(a, /*level=*/0, &delta);
  const IoStatsDelta delta_then = delta;
  const IoStats stats_then = file.GetIoStats();

  before_free.Prefetch(a);
  before_free.Prefetch(b);  // not the cached page: still no LRU change
  EXPECT_EQ(delta, delta_then);
  const IoStats stats_now = file.GetIoStats();
  EXPECT_EQ(stats_now.reads, stats_then.reads);
  EXPECT_EQ(stats_now.cache_misses, stats_then.cache_misses);
  EXPECT_EQ(stats_now.reads_by_level, stats_then.reads_by_level);
  // `a` is still the one page in the simulated cache, so this is a hit.
  IoStatsDelta reread;
  before_free.ReadInPlace(a, /*level=*/0, &reread);
  EXPECT_EQ(reread.reads, 1u);
  EXPECT_EQ(reread.cache_misses, 0u);

  // Freed in a later version: the new snapshot's table has no buffer for
  // it, and the old snapshot still prefetches its own copy.
  file.Free(b);
  file.Commit({});
  const PageFile::Snapshot after_free = file.AcquireSnapshot(guard);
  ASSERT_FALSE(after_free.is_live(b));
  const IoStats stats_before_noops = file.GetIoStats();
  after_free.Prefetch(b);
  before_free.Prefetch(b);
  // Ids past the end of the page table.
  after_free.Prefetch(1'000'000);
  after_free.Prefetch(kInvalidPageId);
  const IoStats stats_after_noops = file.GetIoStats();
  EXPECT_EQ(stats_after_noops.reads, stats_before_noops.reads);
  EXPECT_EQ(stats_after_noops.cache_misses, stats_before_noops.cache_misses);
  file.SimulateCache(0);
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

// A snapshot pinned before StageWrite, Free, or an Allocate that reuses a
// freed id keeps its bytes, stamps and is_live answers, in every chunk.
TEST(PageFileTest, PinnedSnapshotSurvivesStageFreeAndReuse) {
  const size_t pages = 3 * kChunk + 5;
  auto file = MakeCommittedFile(pages);
  const PageId staged = 3;                                 // chunk 0
  const PageId freed = static_cast<PageId>(kChunk + 7);     // chunk 1
  const PageId dropped = static_cast<PageId>(2 * kChunk + 1);  // chunk 2
  const PageId tail = static_cast<PageId>(3 * kChunk + 2);  // chunk 3

  const EpochGuard guard(file->epochs());
  const PageFile::Snapshot before = file->AcquireSnapshot(guard);
  const std::vector<PageView> expect_before = Observe(before, pages);

  StageFilled(*file, staged, 'S');
  file->Free(freed);
  file->Free(dropped);
  StageFilled(*file, tail, 'T');
  EXPECT_EQ(Observe(before, pages), expect_before);  // staged, unpublished
  file->Commit({1});
  EXPECT_EQ(Observe(before, pages), expect_before);

  const PageFile::Snapshot middle = file->AcquireSnapshot(guard);
  const std::vector<PageView> expect_middle = Observe(middle, pages);
  EXPECT_EQ(expect_middle[staged].first, 'S');
  EXPECT_NE(expect_middle[staged].stamp, expect_before[staged].stamp);
  EXPECT_FALSE(expect_middle[freed].live);
  EXPECT_FALSE(expect_middle[dropped].live);
  EXPECT_EQ(expect_middle[tail].first, 'T');

  // Allocate recycles the most recently freed id, zeroed, under a new stamp.
  EXPECT_EQ(file->Allocate(), dropped);
  EXPECT_EQ(file->Allocate(), freed);
  StageFilled(*file, freed, 'R');
  file->Commit({2});
  EXPECT_EQ(Observe(before, pages), expect_before);
  EXPECT_EQ(Observe(middle, pages), expect_middle);

  const std::vector<PageView> now =
      Observe(file->AcquireSnapshot(guard), pages);
  EXPECT_EQ(now[freed].first, 'R');
  EXPECT_EQ(now[dropped].first, 0);
  EXPECT_NE(now[freed].stamp, expect_before[freed].stamp);
  EXPECT_EQ(now[tail], expect_middle[tail]);
  EXPECT_EQ(now[pages - 1], expect_before[pages - 1]);  // untouched page
}

TEST(PageFileTest, RetiredChunksAndBuffersDrainOnceReadersQuiesce) {
  auto file = MakeCommittedFile(3 * kChunk);
  {
    const EpochGuard guard(file->epochs());
    const PageFile::Snapshot pinned = file->AcquireSnapshot(guard);
    for (size_t round = 0; round < 8; ++round) {
      StageFilled(*file, static_cast<PageId>(round * 40), 'x');
      file->Commit({round});
    }
    EXPECT_GT(file->epochs().retired_count(), 0u);
    EXPECT_EQ(pinned.ReadInPlace(0)[0], 0);
  }
  file->epochs().ReclaimExpired();
  EXPECT_EQ(file->epochs().retired_count(), 0u);
}

// Commit after a LoadFrom that shrinks, then grows, the page count: the
// new version serves exactly the image, and a snapshot of the larger
// version keeps reading it.
TEST(PageFileTest, CommitAfterLoadThatShrinksOrGrows) {
  const auto image_of = [](size_t pages, size_t free_every) {
    auto source = MakeCommittedFile(pages);
    for (size_t i = 0; i < pages; i += free_every) {
      source->Free(static_cast<PageId>(i));
    }
    std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
    EXPECT_TRUE(source->SaveTo(image).ok());
    return image.str();
  };
  constexpr size_t big = 3 * kChunk + 9;
  constexpr size_t small = kChunk / 2 + 1;
  const std::string big_image = image_of(big, 5);
  const std::string small_image = image_of(small, 7);
  const auto load = [](PageFile& file, const std::string& bytes) {
    std::stringstream in(bytes, std::ios::in | std::ios::binary);
    ASSERT_TRUE(file.LoadFrom(in).ok());
    file.Commit({});
  };
  const auto expect_image = [](const PageFile::Snapshot& snap, size_t pages,
                               size_t free_every) {
    for (size_t i = 0; i < big + kChunk; ++i) {
      const PageId id = static_cast<PageId>(i);
      const bool live = i < pages && i % free_every != 0;
      ASSERT_EQ(snap.is_live(id), live) << "page " << i;
      if (live) ASSERT_EQ(snap.ReadInPlace(id)[0], static_cast<char>(i % 100));
    }
  };

  PageFile file(kSmallPage);
  load(file, big_image);
  const EpochGuard guard(file.epochs());
  const PageFile::Snapshot big_snap = file.AcquireSnapshot(guard);
  expect_image(big_snap, big, 5);
  EXPECT_EQ(PageFileTestAccess::PublishedChunks(file).size(), 4u);

  load(file, small_image);
  expect_image(file.AcquireSnapshot(guard), small, 7);
  EXPECT_EQ(PageFileTestAccess::PublishedChunks(file).size(), 1u);
  expect_image(big_snap, big, 5);

  load(file, big_image);
  expect_image(file.AcquireSnapshot(guard), big, 5);
  EXPECT_EQ(PageFileTestAccess::PublishedChunks(file).size(), 4u);
  // The commit after the load published the reloaded pages: staging one
  // copies it, and the version keeps the loaded bytes.
  const PageFile::Snapshot reloaded = file.AcquireSnapshot(guard);
  const PageId page = 1;
  const uint64_t stamp = file.page_stamp(page);
  StageFilled(file, page, 'w');
  EXPECT_NE(file.page_stamp(page), stamp);
  file.Commit({});
  expect_image(reloaded, big, 5);
  EXPECT_EQ(file.AcquireSnapshot(guard).ReadInPlace(page)[0], 'w');
}

// Path copying: a commit rebuilds exactly the chunks whose entries changed
// and shares every other chunk with the previous version.
TEST(PageFileTest, CommitCopiesOnlyTouchedChunks) {
  auto file = MakeCommittedFile(3 * kChunk);
  std::vector<const void*> before = PageFileTestAccess::PublishedChunks(*file);
  ASSERT_EQ(before.size(), 3u);

  StageFilled(*file, static_cast<PageId>(kChunk + 3), 'a');
  file->Commit({});
  std::vector<const void*> after = PageFileTestAccess::PublishedChunks(*file);
  EXPECT_EQ(ChangedChunks(before, after), std::vector<size_t>{1});

  // A page staged since the last commit is rewritten in place: its entry,
  // and so its chunk, is unchanged.
  before = after;
  StageFilled(*file, static_cast<PageId>(2 * kChunk), 'b');
  StageFilled(*file, static_cast<PageId>(2 * kChunk), 'c');
  file->Commit({});
  after = PageFileTestAccess::PublishedChunks(*file);
  EXPECT_EQ(ChangedChunks(before, after), std::vector<size_t>{2});

  before = after;
  file->Commit({});  // nothing changed
  EXPECT_EQ(PageFileTestAccess::PublishedChunks(*file), before);

  file->Free(5);
  file->Commit({});
  after = PageFileTestAccess::PublishedChunks(*file);
  EXPECT_EQ(ChangedChunks(before, after), std::vector<size_t>{0});
}

// Readers pin versions while one writer stages, frees, reallocates and
// commits pages across every chunk boundary. Each page holds one 64-bit
// word repeated, the number of the commit that last wrote it, so a reader
// can check that a pinned version is never torn and never from its future.
TEST(PageFileTest, ReaderRacesWriterCommittingAcrossChunks) {
  constexpr size_t kPages = 4 * kChunk;
  constexpr uint64_t kCommits = 400;
  constexpr size_t kWords = kSmallPage / sizeof(uint64_t);
  PageFile file(kSmallPage);
  const auto stage_word = [&](PageId id, uint64_t word) {
    uint64_t* words = reinterpret_cast<uint64_t*>(file.StageWrite(id));
    for (size_t w = 0; w < kWords; ++w) words[w] = word;
  };
  for (size_t i = 0; i < kPages; ++i) stage_word(file.Allocate(), 0);
  file.Commit({0});

  std::atomic<bool> done{false};
  std::atomic<uint64_t> checks{0};
  std::atomic<uint64_t> bad_pages{0};  // torn, or written after the version
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const EpochGuard guard(file.epochs());
        const PageFile::Snapshot snap = file.AcquireSnapshot(guard);
        const uint64_t version_commit = snap.meta(0);
        for (size_t i = 0; i < kPages; ++i) {
          const PageId id = static_cast<PageId>(i);
          if (!snap.is_live(id)) continue;
          const auto* words =
              reinterpret_cast<const uint64_t*>(snap.ReadInPlace(id));
          bool ok = words[0] <= version_commit;
          for (size_t w = 1; w < kWords; ++w) ok = ok && words[w] == words[0];
          if (!ok) bad_pages.fetch_add(1, std::memory_order_relaxed);
        }
        checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Each commit touches one page in every chunk, plus a free and a
  // reallocation that move between chunks. The writer starts once the
  // readers are reading.
  while (checks.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  std::vector<PageId> freed;
  for (uint64_t c = 1; c <= kCommits; ++c) {
    for (size_t chunk = 0; chunk < 4; ++chunk) {
      const PageId id =
          static_cast<PageId>(chunk * kChunk + (c * 37 + chunk) % kChunk);
      if (file.is_live(id)) stage_word(id, c);
    }
    const PageId victim = static_cast<PageId>((c * 101) % kPages);
    if (file.is_live(victim)) {
      file.Free(victim);
      freed.push_back(victim);
    }
    if (freed.size() > 8) {
      const PageId reused = file.Allocate();
      stage_word(reused, c);
      freed.erase(std::find(freed.begin(), freed.end(), reused));
    }
    file.Commit({c});
  }
  while (checks.load(std::memory_order_relaxed) < 4) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(bad_pages.load(), 0u);
  file.epochs().ReclaimExpired();
  EXPECT_EQ(file.epochs().retired_count(), 0u);
}

// --- logical page vs. stored extent -----------------------------------

TEST(PageFileTest, ReadsZeroFillPastTheExtent) {
  PageFile file(kSmallPage);
  const PageId id = file.Allocate();
  EXPECT_EQ(file.extent(id), 0u);
  StageExtent(file, id, 20, 'a');
  EXPECT_EQ(file.extent(id), 20u);
  file.Commit({});

  std::vector<char> out(kSmallPage, 'z');
  file.Read(id, out.data());
  ExpectLogicalPage(out, 20, 'a');
  const EpochGuard guard(file.epochs());
  const PageFile::Snapshot snap = file.AcquireSnapshot(guard);
  EXPECT_EQ(snap.extent(id), 20u);
  std::vector<char> committed(kSmallPage, 'z');
  snap.Read(id, committed.data());
  ExpectLogicalPage(committed, 20, 'a');
  // An empty extent reads as a zeroed page.
  StageExtent(file, id, 0, 'b');
  file.Commit({});
  std::vector<char> empty(kSmallPage, 'z');
  file.AcquireSnapshot(guard).Read(id, empty.data());
  ExpectLogicalPage(empty, 0, 'b');
}

// A snapshot keeps the extent its version published while the writer
// shrinks the page, grows it, and reshapes an unpublished buffer.
TEST(PageFileTest, SnapshotKeepsItsExtentAcrossCopyOnWrite) {
  PageFile file(kSmallPage);
  const PageId id = file.Allocate();
  StageExtent(file, id, 40, 'a');
  file.Commit({});
  const EpochGuard guard(file.epochs());
  const PageFile::Snapshot wide = file.AcquireSnapshot(guard);

  StageExtent(file, id, 10, 'b');   // copy-on-write, shrinking
  StageExtent(file, id, 30, 'c');   // unpublished buffer, new extent
  file.Commit({});
  const PageFile::Snapshot middle = file.AcquireSnapshot(guard);
  StageExtent(file, id, kSmallPage, 'd');  // copy-on-write, growing
  file.Commit({});
  const PageFile::Snapshot full = file.AcquireSnapshot(guard);

  const auto read = [&](const PageFile::Snapshot& snap) {
    std::vector<char> out(kSmallPage, 'z');
    snap.Read(id, out.data());
    return out;
  };
  EXPECT_EQ(wide.extent(id), 40u);
  ExpectLogicalPage(read(wide), 40, 'a');
  EXPECT_EQ(middle.extent(id), 30u);
  ExpectLogicalPage(read(middle), 30, 'c');
  EXPECT_EQ(full.extent(id), kSmallPage);
  ExpectLogicalPage(read(full), kSmallPage, 'd');
  EXPECT_EQ(file.stored_bytes(), kSmallPage);
}

TEST(PageFileTest, AllocateRecyclingAShortPageYieldsAZeroedFullPage) {
  PageFile file(kSmallPage);
  const PageId a = file.Allocate();
  StageExtent(file, a, 12, 'q');
  file.Free(a);  // unpublished: its buffer is released at once
  EXPECT_EQ(file.Allocate(), a);
  EXPECT_EQ(file.extent(a), 0u);
  std::vector<char> out(kSmallPage, 'z');
  file.Read(a, out.data());
  ExpectLogicalPage(out, 0, 'q');

  StageExtent(file, a, 12, 'q');
  file.Commit({});
  file.Free(a);  // published: its buffer is retired at the next commit
  EXPECT_EQ(file.Allocate(), a);
  file.Commit({});
  const EpochGuard guard(file.epochs());
  std::vector<char> committed(kSmallPage, 'z');
  file.AcquireSnapshot(guard).Read(a, committed.data());
  ExpectLogicalPage(committed, 0, 'q');
}

TEST(PageFileTest, StoredBytesTrackLiveExtents) {
  PageFile file(kSmallPage);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  EXPECT_EQ(file.stored_bytes(), 0u);
  StageExtent(file, a, 10, 'a');
  StageExtent(file, b, kSmallPage, 'b');
  EXPECT_EQ(file.stored_bytes(), 10 + kSmallPage);
  file.Commit({});
  StageExtent(file, a, 3, 'c');
  EXPECT_EQ(file.stored_bytes(), 3 + kSmallPage);
  file.Free(b);
  EXPECT_EQ(file.stored_bytes(), 3u);

  // An image round-trip restores the extents and the total.
  std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.SaveTo(image).ok());
  PageFile loaded(kSmallPage);
  ASSERT_TRUE(loaded.LoadFrom(image).ok());
  EXPECT_EQ(loaded.stored_bytes(), 3u);
  EXPECT_EQ(loaded.extent(a), 3u);
  std::vector<char> out(kSmallPage, 'z');
  loaded.Read(a, out.data());
  ExpectLogicalPage(out, 3, 'c');
}

// The paper's accounting is per page, whatever its extent: one write per
// StageWrite, one read per read, none per prefetch.
TEST(PageFileTest, ExtentsDoNotChangeAccounting) {
  PageFile file(kSmallPage);
  const PageId id = file.Allocate();
  StageExtent(file, id, 5, 'a');
  StageExtent(file, id, 9, 'b');
  StageExtent(file, id, 9, 'c');
  (void)file.StageWrite(id);
  EXPECT_EQ(file.GetIoStats().writes, 4u);
  StageExtent(file, id, 7, 'd');
  file.Commit({});

  const EpochGuard guard(file.epochs());
  const PageFile::Snapshot snap = file.AcquireSnapshot(guard);
  snap.Prefetch(id);
  EXPECT_EQ(file.GetIoStats().reads, 0u);
  std::vector<char> out(kSmallPage);
  snap.Read(id, out.data());
  (void)snap.ReadInPlace(id);
  file.Read(id, out.data());
  EXPECT_EQ(file.GetIoStats().reads, 3u);
  EXPECT_EQ(file.GetIoStats().writes, 5u);
}

TEST(PageFileDeathTest, ExtentPastThePageAborts) {
  PageFile file(kSmallPage);
  const PageId id = file.Allocate();
  EXPECT_DEATH((void)file.StageWrite(id, kSmallPage + 1), "CHECK failed");
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
