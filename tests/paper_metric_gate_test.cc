// Exact gate on the paper's own metric. Performance work on the read and
// write paths must leave page reads per query, the Table 1 fanouts and the
// Fig. 9 maintenance counts bit-identical; these tests pin them on fixed
// small uniform SR-trees, the static tier and the five baseline trees (SS,
// R*, K-D-B, VAMSplit R, TV), so any drift turns the suite red instead
// of slipping into the figures.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/index/index_factory.h"
#include "src/index/point_index.h"
#include "src/workload/queries.h"
#include "src/workload/uniform.h"

namespace srtree {
namespace {

// Everything the gate pins for one tree.
struct GateValues {
  size_t leaf_capacity = 0;
  size_t node_capacity = 0;
  int height = 0;
  uint64_t node_count = 0;
  uint64_t leaf_count = 0;
  uint64_t splits = 0;
  uint64_t reinsertions = 0;
  uint64_t build_reads = 0;   // Fig. 9 disk accesses during the build
  uint64_t build_writes = 0;
  // Summed over the query set: k-NN DFS, best-first and range.
  uint64_t knn_leaf_reads = 0;
  uint64_t knn_nonleaf_reads = 0;
  uint64_t best_first_reads = 0;
  uint64_t range_reads = 0;
};

void ExpectSame(const GateValues& got, const GateValues& want) {
  EXPECT_EQ(got.leaf_capacity, want.leaf_capacity);
  EXPECT_EQ(got.node_capacity, want.node_capacity);
  EXPECT_EQ(got.height, want.height);
  EXPECT_EQ(got.node_count, want.node_count);
  EXPECT_EQ(got.leaf_count, want.leaf_count);
  EXPECT_EQ(got.splits, want.splits);
  EXPECT_EQ(got.reinsertions, want.reinsertions);
  EXPECT_EQ(got.build_reads, want.build_reads);
  EXPECT_EQ(got.build_writes, want.build_writes);
  EXPECT_EQ(got.knn_leaf_reads, want.knn_leaf_reads);
  EXPECT_EQ(got.knn_nonleaf_reads, want.knn_nonleaf_reads);
  EXPECT_EQ(got.best_first_reads, want.best_first_reads);
  EXPECT_EQ(got.range_reads, want.range_reads);
}

GateValues Measure(IndexType type, const IndexConfig& config, size_t n,
                   double range_radius) {
  const Dataset data = MakeUniformDataset(n, config.dim, /*seed=*/5);
  std::unique_ptr<PointIndex> index = MakeIndex(type, config);
  GateValues v;
  const IoStats before = index->GetIoStats();
  EXPECT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
  const IoStats built = index->GetIoStats();
  v.build_reads = built.reads - before.reads;
  v.build_writes = built.writes - before.writes;
  v.leaf_capacity = index->leaf_capacity();
  v.node_capacity = index->node_capacity();
  const TreeStats tree = index->GetTreeStats();
  v.height = tree.height;
  v.node_count = tree.node_count;
  v.leaf_count = tree.leaf_count;
  const MaintenanceStats maintenance = index->GetMaintenanceStats();
  v.splits = maintenance.splits;
  v.reinsertions = maintenance.reinsertions;
  // Query anchors sampled from the data, as in the paper (Section 3.1).
  for (const Point& q : SampleQueriesFromDataset(data, 40, /*seed=*/7)) {
    const QueryResult knn = index->Search(q, QuerySpec::Knn(21));
    EXPECT_TRUE(knn.status.ok());
    EXPECT_EQ(knn.neighbors.size(), 21u);
    v.knn_leaf_reads += knn.io.leaf_reads;
    v.knn_nonleaf_reads += knn.io.nonleaf_reads;
    v.best_first_reads +=
        index->Search(q, QuerySpec::KnnBestFirst(21)).io.reads;
    v.range_reads += index->Search(q, QuerySpec::Range(range_radius)).io.reads;
  }
  return v;
}

// The paper's configuration: D = 16, 8 KB pages, 512-byte leaf data.
TEST(PaperMetricGate, SrTreeUniformD16DefaultPages) {
  IndexConfig config;
  config.dim = 16;
  const GateValues want{
      .leaf_capacity = 12,
      .node_capacity = 20,
      .height = 3,
      .node_count = 21,
      .leaf_count = 317,
      .splits = 335,
      .reinsertions = 1400,
      .build_reads = 25387,
      .build_writes = 25724,
      .knn_leaf_reads = 12230,
      .knn_nonleaf_reads = 840,
      .best_first_reads = 12941,
      .range_reads = 3580};
  ExpectSame(Measure(IndexType::kSRTree, config, 3000, 0.5), want);
}

// Lower dimensionality where pruning works, so reads depend on the order
// entries are visited in.
TEST(PaperMetricGate, SrTreeUniformD4SmallPages) {
  IndexConfig config;
  config.dim = 4;
  config.page_size = 1024;
  config.leaf_data_size = 0;
  const GateValues want{
      .leaf_capacity = 28,
      .node_capacity = 9,
      .height = 4,
      .node_count = 31,
      .leaf_count = 175,
      .splits = 202,
      .reinsertions = 1010,
      .build_reads = 46116,
      .build_writes = 46321,
      .knn_leaf_reads = 635,
      .knn_nonleaf_reads = 411,
      .best_first_reads = 855,
      .range_reads = 465};
  ExpectSame(Measure(IndexType::kSRTree, config, 4000, 0.1), want);
}

// The static tier's zero-copy read path reads the same pages.
TEST(PaperMetricGate, StaticTierUniformD8) {
  IndexConfig config;
  config.dim = 8;
  config.page_size = 2048;
  config.leaf_data_size = 0;
  const GateValues want{
      .leaf_capacity = 30,
      .node_capacity = 10,
      .height = 4,
      .node_count = 23,
      .leaf_count = 200,
      .splits = 0,
      .reinsertions = 0,
      .build_reads = 0,
      .build_writes = 223,
      .knn_leaf_reads = 2345,
      .knn_nonleaf_reads = 657,
      .best_first_reads = 2882,
      .range_reads = 729};
  ExpectSame(Measure(IndexType::kStaticSRTree, config, 6000, 0.25), want);
}


// The six baseline trees on small-page low-D uniform sets where pruning
// works, so the reads depend on each tree's bound and on the order its
// traversals visit entries in.
IndexConfig BaselineConfig() {
  IndexConfig config;
  config.dim = 8;
  config.page_size = 2048;
  config.leaf_data_size = 0;
  return config;
}

TEST(PaperMetricGate, SsTreeUniformD8) {
  const GateValues want{
      .leaf_capacity = 30,
      .node_capacity = 25,
      .height = 3,
      .node_count = 8,
      .leaf_count = 119,
      .splits = 124,
      .reinsertions = 753,
      .build_reads = 27558,
      .build_writes = 27684,
      .knn_leaf_reads = 4033,
      .knn_nonleaf_reads = 320,
      .best_first_reads = 3803,
      .range_reads = 1542};
  ExpectSame(Measure(IndexType::kSSTree, BaselineConfig(), 3000, 0.25), want);
}

TEST(PaperMetricGate, RStarTreeUniformD8) {
  const GateValues want{
      .leaf_capacity = 30,
      .node_capacity = 15,
      .height = 3,
      .node_count = 14,
      .leaf_count = 145,
      .splits = 156,
      .reinsertions = 221,
      .build_reads = 14230,
      .build_writes = 14388,
      .knn_leaf_reads = 2604,
      .knn_nonleaf_reads = 504,
      .best_first_reads = 2999,
      .range_reads = 657};
  ExpectSame(Measure(IndexType::kRStarTree, BaselineConfig(), 3000, 0.25),
             want);
}

TEST(PaperMetricGate, KdbTreeUniformD8) {
  const GateValues want{
      .leaf_capacity = 30,
      .node_capacity = 15,
      .height = 3,
      .node_count = 16,
      .leaf_count = 145,
      .splits = 158,
      .reinsertions = 0,
      .build_reads = 8666,
      .build_writes = 3316,
      .knn_leaf_reads = 2942,
      .knn_nonleaf_reads = 514,
      .best_first_reads = 3361,
      .range_reads = 708};
  ExpectSame(Measure(IndexType::kKdbTree, BaselineConfig(), 3000, 0.25), want);
}

TEST(PaperMetricGate, VamSplitRTreeUniformD8) {
  const GateValues want{
      .leaf_capacity = 30,
      .node_capacity = 15,
      .height = 3,
      .node_count = 8,
      .leaf_count = 100,
      .splits = 0,
      .reinsertions = 0,
      .build_reads = 0,
      .build_writes = 108,
      .knn_leaf_reads = 2051,
      .knn_nonleaf_reads = 298,
      .best_first_reads = 2281,
      .range_reads = 540};
  ExpectSame(Measure(IndexType::kVamSplitRTree, BaselineConfig(), 3000, 0.25),
             want);
}

// At D = 10 the TV-tree indexes only the first 8 dimensions, so its
// directory bound is the active-subspace MINDIST, weaker than the full one.
TEST(PaperMetricGate, TvTreeUniformD10) {
  IndexConfig config = BaselineConfig();
  config.dim = 10;
  const GateValues want{
      .leaf_capacity = 24,
      .node_capacity = 15,
      .height = 4,
      .node_count = 19,
      .leaf_count = 174,
      .splits = 189,
      .reinsertions = 276,
      .build_reads = 15074,
      .build_writes = 15266,
      .knn_leaf_reads = 4865,
      .knn_nonleaf_reads = 750,
      .best_first_reads = 5406,
      .range_reads = 1061};
  ExpectSame(Measure(IndexType::kTvTree, config, 3000, 0.3), want);
}

}  // namespace
}  // namespace srtree
