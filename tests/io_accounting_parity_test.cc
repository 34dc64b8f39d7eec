// Accounting parity under concurrency: after a multi-worker RunBatch, the
// page file's global counters — per-thread shards summed on demand — must
// move by exactly the sum of the per-query IoStatsDeltas, in total and per
// level. Run under TSan in CI: the shards take no lock, so this is the test
// that the lock-free read path neither loses nor double-counts a read.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/query_engine.h"
#include "src/index/index_factory.h"
#include "src/index/point_index.h"
#include "src/workload/queries.h"
#include "src/workload/uniform.h"
#include "tests/test_util.h"

namespace srtree {
namespace {

constexpr int kDim = 8;

class IoAccountingParityTest : public ::testing::TestWithParam<IndexType> {
 protected:
  std::unique_ptr<PointIndex> BuildIndex() {
    IndexConfig config;
    config.dim = kDim;
    config.page_size = 1024;
    config.leaf_data_size = 0;
    auto index = MakeIndex(GetParam(), config);
    EXPECT_TRUE(index->BulkLoad(data_.ToPoints(), data_.SequentialOids()).ok());
    if (GetParam() == IndexType::kTieredSRTree) {
      // Populate the delta and tombstone some static points, so both tiers
      // and the tombstone filter are on the read path.
      const Dataset extra = MakeUniformDataset(150, kDim, /*seed=*/41);
      for (size_t i = 0; i < extra.size(); ++i) {
        EXPECT_TRUE(
            index->Insert(extra.point(i), static_cast<uint32_t>(90000 + i))
                .ok());
      }
      for (size_t i = 0; i < 40; ++i) {
        EXPECT_TRUE(
            index->Delete(data_.point(i * 7), static_cast<uint32_t>(i * 7))
                .ok());
      }
    }
    return index;
  }

  std::vector<Query> MakeBatch() const {
    std::vector<Query> batch;
    const std::vector<Point> points =
        SampleQueriesFromDataset(data_, 300, /*seed=*/43);
    for (size_t i = 0; i < points.size(); ++i) {
      const QuerySpec spec = i % 3 == 0   ? QuerySpec::Knn(10)
                             : i % 3 == 1 ? QuerySpec::KnnBestFirst(6)
                                          : QuerySpec::Range(0.45);
      batch.push_back(Query{points[i], spec});
    }
    return batch;
  }

  Dataset data_ = MakeUniformDataset(3000, kDim, /*seed=*/39);
};

TEST_P(IoAccountingParityTest, FourWorkerBatchDeltasSumToGlobalCounters) {
  EngineOptions options;
  options.num_workers = 4;
  QueryEngine engine(BuildIndex(), options);
  const std::vector<Query> batch = MakeBatch();

  const IoStats before = engine.index().GetIoStats();
  IoStatsDelta sum;
  for (int round = 0; round < 3; ++round) {
    for (const QueryResult& r : engine.RunBatch(batch)) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      sum.MergeFrom(r.io);
    }
  }
  const IoStats after = engine.index().GetIoStats();

  ASSERT_GT(sum.reads, 0u);
  EXPECT_EQ(after.reads - before.reads, sum.reads);
  EXPECT_EQ(after.cache_misses - before.cache_misses, sum.cache_misses);
  EXPECT_EQ(after.writes, before.writes);  // queries never write
  // reads_by_level: level 0 is the deltas' leaf reads, every level above
  // sums to their non-leaf reads.
  ASSERT_GE(after.reads_by_level.size(), before.reads_by_level.size());
  std::vector<uint64_t> moved(after.reads_by_level);
  for (size_t l = 0; l < before.reads_by_level.size(); ++l) {
    moved[l] -= before.reads_by_level[l];
  }
  ASSERT_FALSE(moved.empty());
  EXPECT_EQ(moved[0], sum.leaf_reads);
  uint64_t nonleaf = 0;
  for (size_t l = 1; l < moved.size(); ++l) nonleaf += moved[l];
  EXPECT_EQ(nonleaf, sum.nonleaf_reads);
  EXPECT_EQ(sum.leaf_reads + sum.nonleaf_reads, sum.reads);
}

INSTANTIATE_TEST_SUITE_P(
    SrFamily, IoAccountingParityTest,
    ::testing::Values(IndexType::kSRTree, IndexType::kStaticSRTree,
                      IndexType::kTieredSRTree),
    [](const ::testing::TestParamInfo<IndexType>& info) {
      return testing::TypeToken(info.param);
    });

}  // namespace
}  // namespace srtree
