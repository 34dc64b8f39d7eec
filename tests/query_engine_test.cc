// The unified Search() API and the concurrent QueryEngine.
//
// Covers, for every index type (seven trees + the scan baseline):
//   * Search() against the brute-force oracle for all three query kinds;
//   * the input-validation contract (k <= 0, negative/non-finite radius,
//     dimensionality mismatch) — InvalidArgument plus an empty result,
//     where the pre-redesign behavior was a crash or an unchecked traversal;
//   * per-query IoStatsDelta / elapsed-time fields and the accounting-parity
//     contract against the legacy global counters;
//   * RunBatch() determinism: 8 workers return byte-identical neighbors to a
//     sequential loop;
//   * snapshot pinning: one batch observes one committed version even while
//     a writer commits mutations mid-batch (SR-tree).

#include "src/engine/query_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/benchlib/experiment.h"
#include "src/index/brute_force.h"
#include "src/index/point_index.h"
#include "src/index/query.h"
#include "src/workload/queries.h"
#include "src/workload/uniform.h"

namespace srtree {
namespace {

std::vector<IndexType> AllIndexTypes() {
  std::vector<IndexType> types = {
      IndexType::kSRTree,  IndexType::kSSTree,        IndexType::kRStarTree,
      IndexType::kKdbTree, IndexType::kVamSplitRTree, IndexType::kTvTree,
      IndexType::kScan};
  return types;
}

class SearchApiTest : public ::testing::TestWithParam<IndexType> {
 protected:
  static constexpr int kDim = 6;
  static constexpr size_t kPoints = 400;

  std::unique_ptr<PointIndex> BuildIndex() {
    IndexConfig config;
    config.dim = kDim;
    config.page_size = 1024;
    config.leaf_data_size = 0;
    auto index = MakeIndex(GetParam(), config);
    const Status status =
        index->BulkLoad(data_.ToPoints(), data_.SequentialOids());
    EXPECT_TRUE(status.ok()) << status.ToString();
    return index;
  }

  std::unique_ptr<BruteForceIndex> BuildOracle() {
    BruteForceIndex::Options options;
    options.dim = kDim;
    auto oracle = std::make_unique<BruteForceIndex>(options);
    EXPECT_TRUE(
        oracle->BulkLoad(data_.ToPoints(), data_.SequentialOids()).ok());
    return oracle;
  }

  Dataset data_ = MakeUniformDataset(kPoints, kDim, /*seed=*/101);
  std::vector<Point> queries_ =
      SampleQueriesFromDataset(data_, 12, /*seed=*/103);
};

TEST_P(SearchApiTest, MatchesOracleForEveryQueryKind) {
  const auto index = BuildIndex();
  const auto oracle = BuildOracle();
  for (const Point& q : queries_) {
    for (const QuerySpec& spec :
         {QuerySpec::Knn(7), QuerySpec::KnnBestFirst(7),
          QuerySpec::Range(0.4)}) {
      const QueryResult got = index->Search(q, spec);
      const QueryResult want = oracle->Search(q, spec);
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      ASSERT_EQ(got.neighbors.size(), want.neighbors.size());
      for (size_t i = 0; i < got.neighbors.size(); ++i) {
        EXPECT_EQ(got.neighbors[i].oid, want.neighbors[i].oid) << "rank " << i;
        EXPECT_DOUBLE_EQ(got.neighbors[i].distance,
                         want.neighbors[i].distance);
      }
    }
  }
}

// Regression: k <= 0 used to CHECK-crash inside KnnCandidates, and a
// negative radius ran a pointless traversal; both are now rejected before
// any page is touched.
TEST_P(SearchApiTest, InvalidSpecsAreRejected) {
  const auto index = BuildIndex();
  const Point& q = queries_.front();

  for (const QuerySpec& bad :
       {QuerySpec::Knn(0), QuerySpec::Knn(-3), QuerySpec::KnnBestFirst(0),
        QuerySpec::KnnBestFirst(-1), QuerySpec::Range(-0.5),
        QuerySpec::Range(std::numeric_limits<double>::quiet_NaN()),
        QuerySpec::Range(std::numeric_limits<double>::infinity())}) {
    const QueryResult result = index->Search(q, bad);
    EXPECT_TRUE(result.status.IsInvalidArgument()) << result.status.ToString();
    EXPECT_TRUE(result.neighbors.empty());
    EXPECT_EQ(result.io.reads, 0u);  // rejected before any traversal
  }

  const Point wrong_dim(kDim + 1, 0.5);
  const QueryResult result = index->Search(wrong_dim, QuerySpec::Knn(3));
  EXPECT_TRUE(result.status.IsInvalidArgument());
  EXPECT_TRUE(result.neighbors.empty());
}

TEST_P(SearchApiTest, QueryResultCarriesPerQueryAccounting) {
  const auto index = BuildIndex();
  const QueryResult result =
      index->Search(queries_.front(), QuerySpec::Knn(5));
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.io.reads, 0u);
  EXPECT_EQ(result.io.reads, result.io.leaf_reads + result.io.nonleaf_reads);
  // No cache simulation is attached, so every read is a (simulated) miss.
  EXPECT_EQ(result.io.cache_misses, result.io.reads);
  EXPECT_GE(result.elapsed_seconds, 0.0);
}

// Accounting parity: across a single-threaded batch, the per-query deltas
// must sum to exactly the movement of the legacy global counters.
TEST_P(SearchApiTest, DeltaSumsMatchGlobalCounters) {
  const auto index = BuildIndex();
  const IoStats before = index->GetIoStats();
  IoStatsDelta sum;
  for (const Point& q : queries_) {
    sum.MergeFrom(index->Search(q, QuerySpec::Knn(5)).io);
    sum.MergeFrom(index->Search(q, QuerySpec::KnnBestFirst(3)).io);
    sum.MergeFrom(index->Search(q, QuerySpec::Range(0.35)).io);
  }
  const IoStats after = index->GetIoStats();
  EXPECT_EQ(sum.reads, after.reads - before.reads);
  EXPECT_EQ(sum.leaf_reads, after.leaf_reads() - before.leaf_reads());
  EXPECT_EQ(sum.nonleaf_reads, after.nonleaf_reads() - before.nonleaf_reads());
  EXPECT_EQ(sum.cache_misses, after.cache_misses - before.cache_misses);
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, SearchApiTest, ::testing::ValuesIn(AllIndexTypes()),
    [](const ::testing::TestParamInfo<IndexType>& info) {
      std::string name = IndexTypeName(info.param);
      for (char& c : name) {
        if (c == '-' || c == '*' || c == ' ') c = '_';
      }
      return name;
    });

class QueryEngineTest : public ::testing::Test {
 protected:
  static constexpr int kDim = 8;

  std::unique_ptr<PointIndex> BuildTree(size_t n) {
    IndexConfig config;
    config.dim = kDim;
    config.page_size = 1024;
    config.leaf_data_size = 0;
    auto index = MakeIndex(IndexType::kSRTree, config);
    const Dataset data = MakeUniformDataset(n, kDim, /*seed=*/211);
    EXPECT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
    data_ = data;
    return index;
  }

  std::vector<Query> MakeBatch(size_t num_queries) {
    const std::vector<Point> points =
        SampleQueriesFromDataset(data_, num_queries, /*seed=*/223);
    std::vector<Query> batch;
    for (size_t i = 0; i < points.size(); ++i) {
      switch (i % 3) {
        case 0:
          batch.push_back(Query{points[i], QuerySpec::Knn(6)});
          break;
        case 1:
          batch.push_back(Query{points[i], QuerySpec::KnnBestFirst(4)});
          break;
        default:
          batch.push_back(Query{points[i], QuerySpec::Range(0.6)});
          break;
      }
    }
    return batch;
  }

  Dataset data_{kDim};
};

// The acceptance criterion of the redesign: a parallel RunBatch must be
// indistinguishable from running the queries one by one.
TEST_F(QueryEngineTest, EightWorkersMatchSequentialByteForByte) {
  auto index = BuildTree(1200);
  const std::vector<Query> batch = MakeBatch(200);

  std::vector<std::vector<Neighbor>> sequential;
  for (const Query& q : batch) {
    sequential.push_back(index->Search(q.point, q.spec).neighbors);
  }

  EngineOptions options;
  options.num_workers = 8;
  QueryEngine engine(std::move(index), options);
  const std::vector<QueryResult> results = engine.RunBatch(batch);

  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok());
    EXPECT_EQ(results[i].neighbors, sequential[i]) << "query " << i;
  }

  const BatchStats stats = engine.last_batch_stats();
  EXPECT_EQ(stats.queries, batch.size());
  // No worker can run more than the whole batch, so the imbalance beyond
  // an even share is at most what the other seven workers' shares hold.
  EXPECT_LE(stats.steals, batch.size() - (batch.size() + 7) / 8);
  EXPECT_GT(stats.io.reads, 0u);
}

TEST_F(QueryEngineTest, EmptyAndTinyBatches) {
  auto index = BuildTree(300);
  EngineOptions options;
  options.num_workers = 4;
  QueryEngine engine(std::move(index), options);

  EXPECT_TRUE(engine.RunBatch({}).empty());

  const std::vector<Query> one = MakeBatch(1);
  const std::vector<QueryResult> results = engine.RunBatch(one);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_FALSE(results[0].neighbors.empty());
}

// Snapshot pinning: every query of one batch is answered from the same
// committed version. A batch of IDENTICAL queries therefore returns
// identical results even while a single writer commits inserts and deletes
// mid-batch — without the pinned snapshot, chunks running before and after
// a commit would disagree.
TEST_F(QueryEngineTest, RunBatchPinsOneSnapshotAcrossWriterCommits) {
  auto owned = BuildTree(900);
  PointIndex* const raw = owned.get();  // the SR-tree's single writer handle

  EngineOptions options;
  options.num_workers = 4;  // per-query claims => commits land in between
  QueryEngine engine(std::move(owned), options);

  const std::vector<Query> probe = MakeBatch(1);
  std::vector<Query> batch(96, Query{probe[0].point, QuerySpec::Knn(8)});

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    const Dataset extra = MakeUniformDataset(400, kDim, /*seed=*/733);
    const std::vector<Point> points = extra.ToPoints();
    uint32_t oid = 1'000'000;
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const Point& p = points[i % points.size()];
      ASSERT_TRUE(raw->Insert(p, oid).ok());
      if (i % 2 == 1) {
        ASSERT_TRUE(raw->Delete(p, oid).ok());
      }
      ++oid;
      ++i;
    }
  });

  for (int round = 0; round < 20; ++round) {
    const std::vector<QueryResult> results = engine.RunBatch(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
      EXPECT_EQ(results[i].neighbors, results[0].neighbors)
          << "round " << round << " query " << i
          << " diverged from its batch snapshot";
    }
  }

  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_TRUE(engine.index().CheckInvariants().ok());
}

TEST_F(QueryEngineTest, InvalidQueriesSurfacePerResultStatus) {
  auto index = BuildTree(300);
  std::vector<Query> batch = MakeBatch(4);
  batch[1].spec = QuerySpec::Knn(0);
  batch[3].spec = QuerySpec::Range(-1.0);

  EngineOptions options;
  options.num_workers = 2;
  QueryEngine engine(std::move(index), options);
  const std::vector<QueryResult> results = engine.RunBatch(batch);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_TRUE(results[1].status.IsInvalidArgument());
  EXPECT_TRUE(results[2].status.ok());
  EXPECT_TRUE(results[3].status.IsInvalidArgument());
  EXPECT_TRUE(results[1].neighbors.empty());
  EXPECT_TRUE(results[3].neighbors.empty());
}

}  // namespace
}  // namespace srtree
