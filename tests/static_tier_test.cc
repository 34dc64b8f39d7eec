// StaticSRTree: the immutable read-optimized tier. These tests cover the
// full round trip (BulkLoad → Save → factory OpenIndex → auditor-clean,
// query-exact), oracle exactness of all three query kinds against brute
// force, slot probes and the tombstone bitmap on the snapshot search entry
// points, and the immutability contract.

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/debug/fuzzer.h"
#include "src/debug/structural_auditor.h"
#include "src/index/brute_force.h"
#include "src/index/index_factory.h"
#include "src/statictier/static_sr_tree.h"
#include "src/storage/epoch.h"
#include "src/storage/image_io.h"
#include "src/workload/queries.h"
#include "src/workload/uniform.h"

namespace srtree {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

StaticSRTree::Options SmallOptions(int dim) {
  StaticSRTree::Options options;
  options.dim = dim;
  options.page_size = 1024;
  return options;
}

// Loads the same dataset into the tree and a brute-force oracle.
void LoadBoth(StaticSRTree& tree, BruteForceIndex& oracle,
              const Dataset& data) {
  std::vector<Point> points;
  std::vector<uint32_t> oids;
  for (size_t i = 0; i < data.size(); ++i) {
    points.emplace_back(data.point(i).begin(), data.point(i).end());
    oids.push_back(static_cast<uint32_t>(i));
  }
  ASSERT_TRUE(tree.BulkLoad(points, oids).ok());
  ASSERT_TRUE(oracle.BulkLoad(points, oids).ok());
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].oid, want[i].oid) << "rank " << i;
    // Same kernel, same doubles; the epsilon only covers benign
    // summation-order differences (matches the fuzzer's convention).
    EXPECT_NEAR(got[i].distance, want[i].distance, 1e-9) << "rank " << i;
  }
}

TEST(StaticSRTreeTest, AllQueryKindsMatchBruteForce) {
  constexpr int kDim = 6;
  StaticSRTree tree(SmallOptions(kDim));
  BruteForceIndex::Options bf;
  bf.dim = kDim;
  BruteForceIndex oracle(bf);
  const Dataset data = MakeUniformDataset(3000, kDim, /*seed=*/11);
  LoadBoth(tree, oracle, data);
  EXPECT_EQ(tree.size(), data.size());
  EXPECT_TRUE(tree.CheckInvariants().ok());

  uint64_t dfs_reads = 0;
  uint64_t bf_reads = 0;
  for (const Point& q : SampleQueriesFromDataset(data, 25, /*seed=*/13)) {
    const QueryResult dfs = tree.Search(q, QuerySpec::Knn(10));
    const QueryResult best_first = tree.Search(q, QuerySpec::KnnBestFirst(10));
    dfs_reads += dfs.io.reads;
    bf_reads += best_first.io.reads;
    ExpectSameNeighbors(dfs.neighbors,
                        oracle.Search(q, QuerySpec::Knn(10)).neighbors);
    ExpectSameNeighbors(best_first.neighbors,
                        oracle.Search(q, QuerySpec::KnnBestFirst(10)).neighbors);
    const double radius =
        oracle.Search(q, QuerySpec::Knn(8)).neighbors.back().distance;
    ExpectSameNeighbors(tree.Search(q, QuerySpec::Range(radius)).neighbors,
                        oracle.Search(q, QuerySpec::Range(radius)).neighbors);
  }
  // Best-first is I/O-optimal for the SR MINDIST bound: over the workload it
  // cannot read more pages than the depth-first traversal.
  EXPECT_LE(bf_reads, dfs_reads);
}

TEST(StaticSRTreeTest, SaveOpenRoundTripThroughFactory) {
  constexpr int kDim = 8;
  StaticSRTree tree(SmallOptions(kDim));
  BruteForceIndex::Options bf;
  bf.dim = kDim;
  BruteForceIndex oracle(bf);
  const Dataset data = MakeUniformDataset(2500, kDim, /*seed=*/23);
  LoadBoth(tree, oracle, data);

  const std::string path = TempPath("static_tier.idx");
  ASSERT_TRUE(tree.Save(path).ok());
  StatusOr<std::string> tag = PeekIndexImageTag(path);
  ASSERT_TRUE(tag.ok()) << tag.status().ToString();
  EXPECT_EQ(*tag, StaticSRTree::kImageTag);

  auto reopened = OpenIndex(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), tree.size());
  EXPECT_EQ((*reopened)->dim(), kDim);
  EXPECT_TRUE((*reopened)->CheckInvariants().ok());
  EXPECT_TRUE(debug::StructuralAuditor().Audit(**reopened).empty());

  for (const Point& q : SampleQueriesFromDataset(data, 20, /*seed=*/29)) {
    ExpectSameNeighbors((*reopened)->Search(q, QuerySpec::Knn(10)).neighbors,
                        oracle.Search(q, QuerySpec::Knn(10)).neighbors);
    ExpectSameNeighbors(
        (*reopened)->Search(q, QuerySpec::KnnBestFirst(10)).neighbors,
        oracle.Search(q, QuerySpec::KnnBestFirst(10)).neighbors);
    const double radius =
        oracle.Search(q, QuerySpec::Knn(6)).neighbors.back().distance;
    ExpectSameNeighbors((*reopened)->Search(q, QuerySpec::Range(radius)).neighbors,
                        oracle.Search(q, QuerySpec::Range(radius)).neighbors);
  }
}

TEST(StaticSRTreeTest, EmptyTreeRoundTripsAndAnswersEmpty) {
  StaticSRTree tree(SmallOptions(3));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const Point q{0.5, 0.5, 0.5};
  EXPECT_TRUE(tree.Search(q, QuerySpec::Knn(5)).neighbors.empty());
  EXPECT_TRUE(tree.Search(q, QuerySpec::Range(10.0)).neighbors.empty());

  const std::string path = TempPath("static_tier_empty.idx");
  ASSERT_TRUE(tree.Save(path).ok());
  auto reopened = StaticSRTree::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), 0u);
  EXPECT_TRUE((*reopened)->Search(q, QuerySpec::Knn(5)).neighbors.empty());
}

TEST(StaticSRTreeTest, MutationsAreUnimplemented) {
  StaticSRTree tree(SmallOptions(2));
  EXPECT_TRUE(tree.Insert(Point{0.1, 0.2}, 1).IsUnimplemented());
  EXPECT_TRUE(tree.Delete(Point{0.1, 0.2}, 1).IsUnimplemented());
}

TEST(StaticSRTreeTest, ContainsProbesStoredPairsExactly) {
  constexpr int kDim = 4;
  StaticSRTree tree(SmallOptions(kDim));
  const Dataset data = MakeUniformDataset(600, kDim, /*seed=*/31);
  std::vector<Point> points;
  std::vector<uint32_t> oids;
  for (size_t i = 0; i < data.size(); ++i) {
    points.emplace_back(data.point(i).begin(), data.point(i).end());
    oids.push_back(static_cast<uint32_t>(i));
  }
  ASSERT_TRUE(tree.BulkLoad(points, oids).ok());

  const TombstoneBitmap none;
  EXPECT_TRUE(tree.FindLiveSlot(points[0], 0, none).has_value());
  EXPECT_TRUE(tree.FindLiveSlot(points[599], 599, none).has_value());
  // Same point, wrong oid → absent; nearby point → absent.
  EXPECT_FALSE(tree.FindLiveSlot(points[0], 599, none).has_value());
  Point shifted = points[0];
  shifted[0] += 1e-3;
  EXPECT_FALSE(tree.FindLiveSlot(shifted, 0, none).has_value());

  // Every entry has its own slot, and a dead slot is no longer found.
  std::set<uint64_t> slots;
  for (size_t i = 0; i < points.size(); ++i) {
    const std::optional<uint64_t> slot =
        tree.FindLiveSlot(points[i], oids[i], none);
    ASSERT_TRUE(slot.has_value());
    EXPECT_TRUE(tree.CheckSlot(*slot).ok());
    slots.insert(*slot);
  }
  EXPECT_EQ(slots.size(), points.size());
  TombstoneBitmap dead;
  dead.Set(*tree.FindLiveSlot(points[7], 7, none));
  EXPECT_FALSE(tree.FindLiveSlot(points[7], 7, dead).has_value());
  EXPECT_TRUE(tree.FindLiveSlot(points[8], 8, dead).has_value());
}

TEST(StaticSRTreeTest, FindLiveSlotSkipsDeadCopiesOfARepeatedPair) {
  StaticSRTree tree(SmallOptions(2));
  const Point repeated = {0.5, 0.5};
  const std::vector<Point> points = {repeated, {0.1, 0.9}, repeated};
  ASSERT_TRUE(tree.BulkLoad(points, {7, 8, 7}).ok());

  TombstoneBitmap dead;
  const std::optional<uint64_t> first = tree.FindLiveSlot(repeated, 7, dead);
  ASSERT_TRUE(first.has_value());
  dead.Set(*first);
  const std::optional<uint64_t> second = tree.FindLiveSlot(repeated, 7, dead);
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*first, *second);
  dead.Set(*second);
  EXPECT_FALSE(tree.FindLiveSlot(repeated, 7, dead).has_value());
  EXPECT_EQ(dead.count(), 2u);

  size_t exported = 0;
  ASSERT_TRUE(tree.ExportLiveEntries(dead, [&](PointView p, uint32_t oid) {
                    EXPECT_EQ(oid, 8u);
                    EXPECT_EQ(Point(p.begin(), p.end()), points[1]);
                    ++exported;
                  }).ok());
  EXPECT_EQ(exported, 1u);
}

TEST(StaticSRTreeTest, TombstoneFilterMasksPointsInSnapshotSearches) {
  constexpr int kDim = 3;
  StaticSRTree tree(SmallOptions(kDim));
  BruteForceIndex::Options bf;
  bf.dim = kDim;
  BruteForceIndex oracle(bf);
  const Dataset data = MakeUniformDataset(800, kDim, /*seed=*/37);
  LoadBoth(tree, oracle, data);

  // Tombstone every fourth point; the oracle deletes them for real.
  TombstoneBitmap tombstones;
  for (size_t i = 0; i < data.size(); i += 4) {
    const std::optional<uint64_t> slot =
        tree.FindLiveSlot(data.point(i), static_cast<uint32_t>(i), tombstones);
    ASSERT_TRUE(slot.has_value());
    tombstones.Set(*slot);
    ASSERT_TRUE(oracle.Delete(data.point(i), static_cast<uint32_t>(i)).ok());
  }

  const EpochGuard guard(tree.epochs());
  const PageFile::Snapshot snap = tree.AcquirePageSnapshot(guard);
  for (const Point& q : SampleQueriesFromDataset(data, 15, /*seed=*/41)) {
    ExpectSameNeighbors(
        tree.SearchSnapshot(snap, q, QuerySpec::Knn(10), nullptr, &tombstones),
        oracle.Search(q, QuerySpec::Knn(10)).neighbors);
    ExpectSameNeighbors(tree.SearchSnapshot(snap, q, QuerySpec::KnnBestFirst(10),
                                            nullptr, &tombstones),
                        oracle.Search(q, QuerySpec::Knn(10)).neighbors);
    const double radius =
        oracle.Search(q, QuerySpec::Knn(5)).neighbors.back().distance;
    ExpectSameNeighbors(tree.SearchSnapshot(snap, q, QuerySpec::Range(radius),
                                            nullptr, &tombstones),
        oracle.Search(q, QuerySpec::Range(radius)).neighbors);
  }
}

// Query-only fuzz through the factory: bulk load, then seeded batches of
// all three query kinds cross-checked against the oracle with the
// structural auditor after every batch.
TEST(StaticSRTreeTest, QueryOnlyFuzzStaysOracleExactAndAudited) {
  IndexConfig config;
  config.dim = 4;
  config.page_size = 1024;
  std::unique_ptr<PointIndex> index =
      MakeIndex(IndexType::kStaticSRTree, config);

  debug::FuzzOptions options;
  options.seed = 515;
  options.num_mutations = 0;
  options.initial_points = 3000;
  options.query_only_batches = 10;
  options.knn_queries_per_batch = 25;
  options.range_queries_per_batch = 25;

  debug::MutationFuzzer fuzzer(options);
  const Status status = fuzzer.Run(index);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(fuzzer.stats().knn_queries, 250u);
}

// The concurrent read-path fuzz over the static tier: many reader threads,
// oracle-exact results, io-accounting parity.
TEST(StaticSRTreeTest, ConcurrentQueryFuzz) {
  StaticSRTree tree(SmallOptions(5));
  debug::ConcurrentFuzzOptions options;
  options.seed = 616;
  options.num_points = 1500;
  options.num_threads = 4;
  const Status status = debug::RunConcurrentQueryFuzz(tree, options);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

}  // namespace
}  // namespace srtree
