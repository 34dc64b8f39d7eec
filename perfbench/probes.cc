#include "perfbench/probes.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/geometry/kernel.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/page_file.h"

namespace perfbench {
namespace {

using srtree::BufferPool;
using srtree::EpochGuard;
using srtree::IoStatsDelta;
using srtree::PageFile;
using srtree::PageId;
using srtree::Point;
using srtree::PointView;
using srtree::Xoshiro256;

constexpr int kProbeThreads = 4;
// Operations per thread per timed loop: enough that one loop takes tens of
// milliseconds at the expected per-operation cost.
constexpr size_t kOpsPerThread = 200'000;
constexpr size_t kCommits = 256;

std::vector<PageId> RandomPageOrder(size_t pages, size_t count,
                                    uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<PageId> order(count);
  for (PageId& id : order) id = static_cast<PageId>(rng.NextBounded(pages));
  return order;
}

// Runs body(thread_index) on `threads` threads released together, and
// returns the mean over threads of each thread's own elapsed nanoseconds.
template <typename Body>
double TimeOnThreads(int threads, Body body) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<int64_t> elapsed(static_cast<size_t>(threads), 0);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      const int64_t start = NowNs();
      body(t);
      elapsed[static_cast<size_t>(t)] = NowNs() - start;
    });
  }
  while (ready.load() < threads) {
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  double sum = 0;
  for (const int64_t e : elapsed) sum += static_cast<double>(e);
  return sum / threads;
}

}  // namespace

StorageProbe RunStorageProbe(size_t live_pages, uint64_t seed, SpanLog& log) {
  CHECK_GT(live_pages, 0u);
  StorageProbe result;
  PageFile file;
  const size_t page_size = file.page_size();
  {
    std::vector<char> page(page_size);
    for (size_t i = 0; i < live_pages; ++i) {
      const PageId id = file.Allocate();
      std::memset(page.data(), static_cast<int>(i & 0xff), page_size);
      file.StageWrite(id, page.data());
    }
    file.Commit({0, 0, live_pages, 0});
  }

  std::vector<std::vector<PageId>> orders;
  for (int t = 0; t < kProbeThreads; ++t) {
    orders.push_back(RandomPageOrder(live_pages, kOpsPerThread,
                                     seed + 101 + static_cast<uint64_t>(t)));
  }

  const auto read_loop = [&](int t) {
    const EpochGuard guard(file.epochs());
    const PageFile::Snapshot snap = file.AcquireSnapshot(guard);
    std::vector<char> out(page_size);
    IoStatsDelta io;
    for (const PageId id : orders[static_cast<size_t>(t)]) {
      snap.Read(id, out.data(), 0, &io);
    }
    CHECK_EQ(io.reads, kOpsPerThread);
  };
  int64_t start = NowNs();
  result.read_ns_1t = TimeOnThreads(1, read_loop) / kOpsPerThread;
  log.Record("probe.Snapshot::Read.1t", start, NowNs(), 0);
  start = NowNs();
  result.read_ns_4t = TimeOnThreads(kProbeThreads, read_loop) / kOpsPerThread;
  log.Record("probe.Snapshot::Read.4t", start, NowNs(), 0);

  {
    Xoshiro256 rng(seed + 7);
    std::vector<char> page(page_size, 0x5a);
    Samples commit_us;
    start = NowNs();
    for (size_t i = 0; i < kCommits; ++i) {
      const PageId id = static_cast<PageId>(rng.NextBounded(live_pages));
      const int64_t t0 = NowNs();
      file.StageWrite(id, page.data());
      file.Commit({0, 0, live_pages, i});
      commit_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
    }
    log.Record("probe.StageWrite+Commit", start, NowNs(), 0);
    result.commit_us = commit_us.Median();
  }

  {
    // One spare frame per shard, so every page stays resident.
    BufferPool pool(&file, live_pages + 8);
    {
      const EpochGuard guard(file.epochs());
      const PageFile::Snapshot snap = file.AcquireSnapshot(guard);
      for (size_t i = 0; i < live_pages; ++i) {
        const BufferPool::PageGuard pin =
            pool.PinSnapshot(snap, static_cast<PageId>(i));
        CHECK(pin.data() != nullptr);
      }
    }
    const uint64_t misses_before = pool.misses();
    start = NowNs();
    result.pool_pin_ns_4t =
        TimeOnThreads(kProbeThreads, [&](int t) {
          const EpochGuard guard(file.epochs());
          const PageFile::Snapshot snap = file.AcquireSnapshot(guard);
          for (const PageId id : orders[static_cast<size_t>(t)]) {
            const BufferPool::PageGuard pin = pool.PinSnapshot(snap, id);
            CHECK(pin.data() != nullptr);
          }
        }) /
        kOpsPerThread;
    log.Record("probe.BufferPool::PinSnapshot.4t", start, NowNs(), 0);
    // Every timed pin must have been a hit, or this is not the hit path.
    CHECK_EQ(pool.misses(), misses_before);
  }
  return result;
}

GeometryProbe RunGeometryProbe(const std::vector<Point>& points,
                               size_t leaf_entries, size_t node_entries,
                               uint64_t seed, SpanLog& log) {
  CHECK(!points.empty());
  CHECK_GT(leaf_entries, 0u);
  CHECK_GT(node_entries, 0u);
  constexpr size_t kBlocks = 32;
  constexpr size_t kQueries = 32;
  constexpr size_t kTargetElements = 8'000'000;
  const srtree::DistanceKernel& kernel = srtree::GetDistanceKernel();
  const int dim = static_cast<int>(points[0].size());
  Xoshiro256 rng(seed + 11);
  const auto random_point = [&]() -> const Point& {
    return points[rng.NextBounded(points.size())];
  };

  std::vector<Point> queries;
  for (size_t i = 0; i < kQueries; ++i) queries.push_back(random_point());
  double sink = 0;
  GeometryProbe result;

  {
    std::vector<srtree::SoaBuffer> blocks(kBlocks);
    for (srtree::SoaBuffer& block : blocks) {
      block.Reset(dim, leaf_entries);
      for (size_t i = 0; i < leaf_entries; ++i) {
        block.SetElement(i, random_point());
      }
    }
    std::vector<double> out(leaf_entries);
    const size_t rounds =
        std::max<size_t>(1, kTargetElements / (kBlocks * kQueries *
                                               leaf_entries));
    const double inf = std::numeric_limits<double>::infinity();
    const int64_t start = NowNs();
    for (size_t r = 0; r < rounds; ++r) {
      for (const srtree::SoaBuffer& block : blocks) {
        for (const Point& q : queries) {
          kernel.SquaredL2ToManyBounded(q, block.block(), inf, out.data());
          sink += out[0];
        }
      }
    }
    const int64_t end = NowNs();
    log.Record("probe.SquaredL2ToManyBounded", start, end, 0);
    result.l2_ns_per_elem =
        static_cast<double>(end - start) /
        static_cast<double>(rounds * kBlocks * kQueries * leaf_entries);
  }

  {
    struct NodeBlock {
      srtree::SoaBuffer centers, lo, hi;
      std::vector<double> radii;
    };
    std::vector<NodeBlock> blocks(kBlocks);
    for (NodeBlock& b : blocks) {
      b.centers.Reset(dim, node_entries);
      b.lo.Reset(dim, node_entries);
      b.hi.Reset(dim, node_entries);
      b.radii.resize(node_entries);
      for (size_t i = 0; i < node_entries; ++i) {
        const Point& c = random_point();
        const double half = 0.02 + 0.1 * rng.NextDouble();
        Point lo(c), hi(c);
        for (int d = 0; d < dim; ++d) {
          lo[static_cast<size_t>(d)] -= half;
          hi[static_cast<size_t>(d)] += half;
        }
        b.centers.SetElement(i, c);
        b.lo.SetElement(i, lo);
        b.hi.SetElement(i, hi);
        b.radii[i] = half * 2.0;
      }
    }
    std::vector<double> out(node_entries);
    const size_t rounds =
        std::max<size_t>(1, kTargetElements / (kBlocks * kQueries *
                                               node_entries));
    const int64_t start = NowNs();
    for (size_t r = 0; r < rounds; ++r) {
      for (const NodeBlock& b : blocks) {
        for (const Point& q : queries) {
          kernel.SphereMinDistToMany(q, b.centers.block(), b.radii.data(),
                                     out.data());
          sink += out[0];
          kernel.MinDistRectToMany(q, b.lo.block(), b.hi.block(), out.data());
          sink += out[0];
        }
      }
    }
    const int64_t end = NowNs();
    log.Record("probe.SphereMinDist+RectMinDist", start, end, 0);
    result.mindist_ns_per_entry =
        static_cast<double>(end - start) /
        static_cast<double>(rounds * kBlocks * kQueries * node_entries);
  }
  // Keeps the kernel outputs observable so no call can be dropped.
  CHECK(sink == sink);
  return result;
}

}  // namespace perfbench
