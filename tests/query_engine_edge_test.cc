// QueryEngine edge cases: degenerate batch shapes and lifecycle corners
// that the main query_engine_test's steady-state batches never hit. Every
// batch result is compared against a sequential Search() loop over the same
// queries — the engine's determinism contract says they must be identical.

#include "src/engine/query_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/index/index_factory.h"
#include "src/index/point_index.h"
#include "src/index/query.h"
#include "src/workload/queries.h"
#include "src/workload/uniform.h"

namespace srtree {
namespace {

constexpr int kDim = 4;

std::unique_ptr<PointIndex> BuildSmallIndex(size_t n) {
  IndexConfig config;
  config.dim = kDim;
  config.page_size = 1024;
  config.leaf_data_size = 0;
  auto index = MakeIndex(IndexType::kSRTree, config);
  const Dataset data = MakeUniformDataset(n, kDim, /*seed=*/211);
  const Status status = index->BulkLoad(data.ToPoints(), data.SequentialOids());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return index;
}

// The sequential oracle: the same queries, one at a time, on the same index.
std::vector<QueryResult> RunSequential(const PointIndex& index,
                                       const std::vector<Query>& queries) {
  std::vector<QueryResult> results;
  results.reserve(queries.size());
  for (const Query& q : queries) {
    results.push_back(index.Search(q.point, q.spec));
  }
  return results;
}

void ExpectSameAnswers(const std::vector<QueryResult>& got,
                       const std::vector<QueryResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status.code(), want[i].status.code()) << "query " << i;
    EXPECT_EQ(got[i].neighbors, want[i].neighbors) << "query " << i;
  }
}

TEST(QueryEngineEdgeTest, EmptyBatchCompletesAndCountsZero) {
  EngineOptions options;
  options.num_workers = 4;
  QueryEngine engine(BuildSmallIndex(200), options);

  const std::vector<QueryResult> results = engine.RunBatch({});
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(engine.last_batch_stats().queries, 0u);
  EXPECT_EQ(engine.last_batch_stats().steals, 0u);

  // The pool must stay healthy: an empty batch followed by a real one.
  const std::vector<Query> queries = {
      {Point(kDim, 0.5), QuerySpec::Knn(3)},
  };
  ExpectSameAnswers(engine.RunBatch(queries),
                    RunSequential(engine.index(), queries));
}

TEST(QueryEngineEdgeTest, MoreWorkersThanQueries) {
  EngineOptions options;
  options.num_workers = 8;
  QueryEngine engine(BuildSmallIndex(200), options);

  std::vector<Query> queries;
  for (const Point& q : SampleUniformQueries(kDim, 3, /*seed=*/223)) {
    queries.push_back({q, QuerySpec::Knn(5)});
  }
  ASSERT_LT(queries.size(), 8u);

  const std::vector<QueryResult> results = engine.RunBatch(queries);
  ExpectSameAnswers(results, RunSequential(engine.index(), queries));
  EXPECT_EQ(engine.last_batch_stats().queries, queries.size());
}

TEST(QueryEngineEdgeTest, KLargerThanDataset) {
  constexpr size_t kPoints = 40;
  EngineOptions options;
  options.num_workers = 4;
  QueryEngine engine(BuildSmallIndex(kPoints), options);

  std::vector<Query> queries;
  for (const Point& q : SampleUniformQueries(kDim, 6, /*seed=*/227)) {
    queries.push_back({q, QuerySpec::Knn(10 * kPoints)});
  }
  const std::vector<QueryResult> results = engine.RunBatch(queries);
  ExpectSameAnswers(results, RunSequential(engine.index(), queries));
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.neighbors.size(), kPoints);  // the whole dataset, ranked
  }
}

TEST(QueryEngineEdgeTest, DestructionWithIdlePool) {
  // Workers park on the work CV immediately; the destructor must wake and
  // join them without a batch ever having run.
  for (const int workers : {1, 2, 8}) {
    EngineOptions options;
    options.num_workers = workers;
    QueryEngine engine(BuildSmallIndex(50), options);
    EXPECT_EQ(engine.num_workers(), workers);
  }
}

TEST(QueryEngineEdgeTest, BackToBackBatchesNeverCrossEpochs) {
  // Regression test for a cross-epoch use-after-free: a worker that has
  // snapshotted batch N's state but not yet claimed anything can lose the
  // race to the others; they finish N, the caller dispatches batch N+1,
  // and the late worker's first claim then lands in N+1 while it still
  // holds N's queries and results pointer — a write through a destroyed
  // vector. The epoch tag lives in the claim cursor: a worker only claims
  // while the cursor's epoch half matches the batch it snapshotted, and
  // otherwise re-snapshots first. Tiny batches on many workers maximize
  // the window, and alternating two batches of different sizes and points
  // makes a crossed claim visible: it answers the wrong query into the
  // wrong (or a freed) vector and leaves this batch's slot empty. A
  // regression can surface under TSan as a data race / heap-use-after-free,
  // or in any build as a wrong or missing result.
  EngineOptions options;
  options.num_workers = 8;
  QueryEngine engine(BuildSmallIndex(200), options);

  std::vector<Query> batches[2];
  std::vector<QueryResult> want[2];
  for (int b = 0; b < 2; ++b) {
    for (const Point& q :
         SampleUniformQueries(kDim, b == 0 ? 5 : 2, /*seed=*/229 + b)) {
      batches[b].push_back({q, QuerySpec::Knn(4)});
    }
    want[b] = RunSequential(engine.index(), batches[b]);
  }
  for (int round = 0; round < 500; ++round) {
    ExpectSameAnswers(engine.RunBatch(batches[round % 2]), want[round % 2]);
  }
}

TEST(QueryEngineEdgeTest, ReleaseIndexAfterEmptyBatch) {
  EngineOptions options;
  options.num_workers = 2;
  QueryEngine engine(BuildSmallIndex(100), options);
  (void)engine.RunBatch({});
  std::unique_ptr<PointIndex> index = engine.ReleaseIndex();
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->size(), 100u);
}

// Every batch shape the cursor can meet — empty, smaller than the pool,
// one past a power of two, many times the pool — on pool sizes from one
// worker to more than the container's cores. Every seventh query asks for
// the whole dataset, so per-query cost is skewed and the workers that draw
// the expensive ones fall behind. Each case must match the sequential loop
// byte for byte, and the index's own read counter must move by exactly the
// sequential reads: a query run twice (or skipped) would show there.
class QueryEngineSweepTest
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(QueryEngineSweepTest, SkewedBatchMatchesSequentialAndRunsEachOnce) {
  constexpr size_t kPoints = 200;
  const auto [workers, batch_size] = GetParam();
  EngineOptions options;
  options.num_workers = workers;
  QueryEngine engine(BuildSmallIndex(kPoints), options);

  std::vector<Query> queries;
  const std::vector<Point> points =
      SampleUniformQueries(kDim, batch_size, /*seed=*/233);
  for (size_t i = 0; i < points.size(); ++i) {
    queries.push_back(
        {points[i], QuerySpec::Knn(i % 7 == 3 ? kPoints : 1)});
  }
  const std::vector<QueryResult> want = RunSequential(engine.index(), queries);
  uint64_t want_reads = 0;
  for (const QueryResult& r : want) want_reads += r.io.reads;

  const uint64_t before = engine.index().GetIoStats().reads;
  const std::vector<QueryResult> got = engine.RunBatch(queries);
  const uint64_t after = engine.index().GetIoStats().reads;

  ExpectSameAnswers(got, want);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].io.reads, want[i].io.reads) << "query " << i;
  }
  const BatchStats stats = engine.last_batch_stats();
  EXPECT_EQ(stats.queries, batch_size);
  EXPECT_EQ(stats.io.reads, want_reads);
  EXPECT_EQ(after - before, want_reads);
  // steals counts queries beyond an even share, so a lone worker has none
  // and no worker can exceed the whole batch.
  const size_t even_share = (batch_size + workers - 1) / workers;
  EXPECT_LE(stats.steals, batch_size - even_share);
  if (workers == 1) {
    EXPECT_EQ(stats.steals, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkersByBatch, QueryEngineSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values<size_t>(0, 1, 2, 3, 5, 64, 65,
                                                 200)),
    [](const ::testing::TestParamInfo<std::tuple<int, size_t>>& info) {
      std::string name = "W";
      name += std::to_string(std::get<0>(info.param));
      name += "_N";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

}  // namespace
}  // namespace srtree
