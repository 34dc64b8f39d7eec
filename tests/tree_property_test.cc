// Property tests run against every index structure, dimensionality, and
// data distribution: results must match brute force exactly, and the
// structural invariants must hold through arbitrary insert/delete traffic.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/index/brute_force.h"
#include "src/workload/queries.h"
#include "tests/test_util.h"

namespace srtree {
namespace {

using testing::DistKind;
using testing::DistKindName;
using testing::MakeSmallPageIndex;
using testing::MakeTestDataset;
using testing::SearchKnn;
using testing::SearchRange;
using testing::TypeToken;

struct PropertyParam {
  IndexType type;
  int dim;
  DistKind dist;
};

std::string ParamName(const ::testing::TestParamInfo<PropertyParam>& info) {
  return TypeToken(info.param.type) + "_d" + std::to_string(info.param.dim) +
         "_" + DistKindName(info.param.dist);
}

class TreePropertyTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  bool IsDynamic() const {
    return GetParam().type != IndexType::kVamSplitRTree;
  }

  std::unique_ptr<PointIndex> BuildIndex(const Dataset& data) {
    auto index = MakeSmallPageIndex(GetParam().type, GetParam().dim);
    const Status status = index->BulkLoad(data.ToPoints(),
                                          data.SequentialOids());
    EXPECT_TRUE(status.ok()) << status.ToString();
    return index;
  }

  // By pointer: the index embeds a mutex (thread-safe stats) and cannot move.
  std::unique_ptr<BruteForceIndex> BuildReference(const Dataset& data) {
    BruteForceIndex::Options options;
    options.dim = GetParam().dim;
    auto reference = std::make_unique<BruteForceIndex>(options);
    const Status status =
        reference->BulkLoad(data.ToPoints(), data.SequentialOids());
    EXPECT_TRUE(status.ok());
    return reference;
  }

  static void ExpectSameNeighbors(const std::vector<Neighbor>& actual,
                                  const std::vector<Neighbor>& expected) {
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].oid, expected[i].oid) << "rank " << i;
      EXPECT_DOUBLE_EQ(actual[i].distance, expected[i].distance) << "rank "
                                                                 << i;
    }
  }
};

TEST_P(TreePropertyTest, InvariantsAfterBulkLoad) {
  const Dataset data = MakeTestDataset(GetParam().dist, 600, GetParam().dim,
                                       /*seed=*/7);
  auto index = BuildIndex(data);
  EXPECT_EQ(index->size(), data.size());
  const Status status = index->CheckInvariants();
  EXPECT_TRUE(status.ok()) << status.ToString();
  const TreeStats stats = index->GetTreeStats();
  EXPECT_EQ(stats.entry_count, data.size());
  EXPECT_GE(stats.height, 2) << "test datasets should force real trees";
}

TEST_P(TreePropertyTest, KnnMatchesBruteForce) {
  const Dataset data = MakeTestDataset(GetParam().dist, 600, GetParam().dim,
                                       /*seed=*/11);
  auto index = BuildIndex(data);
  const std::unique_ptr<BruteForceIndex> reference = BuildReference(data);

  std::vector<Point> queries =
      SampleQueriesFromDataset(data, 15, /*seed=*/13);
  for (Point& q : SampleUniformQueries(GetParam().dim, 10, /*seed=*/17)) {
    queries.push_back(std::move(q));
  }
  for (const Point& q : queries) {
    for (const int k : {1, 5, 21}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      ExpectSameNeighbors(SearchKnn(*index, q, k), SearchKnn(*reference, q, k));
    }
  }
}

TEST_P(TreePropertyTest, BestFirstMatchesDepthFirstAndReadsNoMore) {
  const Dataset data = MakeTestDataset(GetParam().dist, 600, GetParam().dim,
                                       /*seed=*/11);
  auto index = BuildIndex(data);
  const std::vector<Point> queries =
      SampleQueriesFromDataset(data, 15, /*seed=*/13);

  uint64_t dfs_reads = 0;
  uint64_t bf_reads = 0;
  for (const Point& q : queries) {
    const QueryResult dfs = index->Search(q, QuerySpec::Knn(10));
    dfs_reads += dfs.io.reads;

    const QueryResult best_first =
        index->Search(q, QuerySpec::KnnBestFirst(10));
    bf_reads += best_first.io.reads;

    ExpectSameNeighbors(best_first.neighbors, dfs.neighbors);
  }
  // Best-first is I/O-optimal for a given MINDIST bound: over the workload
  // it cannot read more pages than the depth-first traversal.
  EXPECT_LE(bf_reads, dfs_reads);
}

TEST_P(TreePropertyTest, MaintenanceCountersTrackStructureChanges) {
  const Dataset data = MakeTestDataset(GetParam().dist, 600, GetParam().dim,
                                       /*seed=*/61);
  auto index = BuildIndex(data);
  const MaintenanceStats stats = index->GetMaintenanceStats();
  const TreeStats tree = index->GetTreeStats();
  if (GetParam().type == IndexType::kVamSplitRTree) {
    EXPECT_EQ(stats.splits, 0u);  // static bulk load never splits pages
    return;
  }
  // Insert-only growth allocates pages through splits (one new page each)
  // and root growth (one per level), so splits account for all pages beyond
  // one per level.
  EXPECT_GE(stats.splits + stats.forced_splits,
            tree.leaf_count + tree.node_count -
                static_cast<uint64_t>(tree.height));
  if (GetParam().type == IndexType::kKdbTree) {
    EXPECT_EQ(stats.reinsertions, 0u);
  } else {
    EXPECT_GT(stats.reinsertions, 0u);  // forced reinsertion fired
    EXPECT_EQ(stats.forced_splits, 0u);
  }
}

TEST_P(TreePropertyTest, KnnWithKLargerThanDataset) {
  const Dataset data = MakeTestDataset(GetParam().dist, 50, GetParam().dim,
                                       /*seed=*/23);
  auto index = BuildIndex(data);
  const std::unique_ptr<BruteForceIndex> reference = BuildReference(data);
  const Point q(GetParam().dim, 0.5);
  ExpectSameNeighbors(SearchKnn(*index, q, 200),
                      SearchKnn(*reference, q, 200));
}

TEST_P(TreePropertyTest, RangeMatchesBruteForce) {
  const Dataset data = MakeTestDataset(GetParam().dist, 600, GetParam().dim,
                                       /*seed=*/29);
  auto index = BuildIndex(data);
  const std::unique_ptr<BruteForceIndex> reference = BuildReference(data);

  const std::vector<Point> queries =
      SampleQueriesFromDataset(data, 10, /*seed=*/31);
  for (const Point& q : queries) {
    // Radius reaching roughly the 20 nearest points.
    const std::vector<Neighbor> knn = SearchKnn(*reference, q, 20);
    const double radius = knn.back().distance;
    ExpectSameNeighbors(SearchRange(*index, q, radius),
                        SearchRange(*reference, q, radius));
  }
}

TEST_P(TreePropertyTest, EmptyAndSingleton) {
  auto index = MakeSmallPageIndex(GetParam().type, GetParam().dim);
  const Point q(GetParam().dim, 0.25);
  EXPECT_TRUE(SearchKnn(*index, q, 3).empty());
  EXPECT_TRUE(SearchRange(*index, q, 10.0).empty());
  EXPECT_TRUE(index->CheckInvariants().ok());

  const Status status = index->BulkLoad({Point(GetParam().dim, 0.5)}, {42});
  ASSERT_TRUE(status.ok()) << status.ToString();
  const std::vector<Neighbor> result = SearchKnn(*index, q, 3);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].oid, 42u);
  EXPECT_TRUE(index->CheckInvariants().ok());
}

// An empty tree reports no leaf regions: its empty root leaf bounds
// nothing, and counting its empty rect would make the averages inf.
TEST_P(TreePropertyTest, EmptyTreeRegionSummaryHasNoLeaves) {
  auto index = MakeSmallPageIndex(GetParam().type, GetParam().dim);
  const RegionSummary summary = index->LeafRegionSummary();
  EXPECT_EQ(summary.leaf_count, 0u);
  EXPECT_TRUE(std::isfinite(summary.avg_rect_volume));
  EXPECT_TRUE(std::isfinite(summary.avg_rect_diagonal));
  EXPECT_TRUE(std::isfinite(summary.avg_sphere_volume));
  EXPECT_TRUE(std::isfinite(summary.avg_sphere_diameter));
}

TEST_P(TreePropertyTest, InsertDeleteTrafficKeepsInvariants) {
  if (!IsDynamic()) {
    GTEST_SKIP() << "static structure";
  }
  const Dataset data = MakeTestDataset(GetParam().dist, 500, GetParam().dim,
                                       /*seed=*/37);
  auto index = MakeSmallPageIndex(GetParam().type, GetParam().dim);
  const std::unique_ptr<BruteForceIndex> reference = BuildReference(Dataset(GetParam().dim));

  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index->Insert(data.point(i), static_cast<uint32_t>(i)).ok());
    ASSERT_TRUE(
        reference->Insert(data.point(i), static_cast<uint32_t>(i)).ok());
    // Interleave deletions: every third point is removed again.
    if (i % 3 == 2) {
      const size_t victim = i - 1;
      ASSERT_TRUE(
          index->Delete(data.point(victim), static_cast<uint32_t>(victim))
              .ok());
      ASSERT_TRUE(reference
                      ->Delete(data.point(victim),
                               static_cast<uint32_t>(victim))
                      .ok());
    }
    if (i % 100 == 99) {
      const Status status = index->CheckInvariants();
      ASSERT_TRUE(status.ok()) << status.ToString() << " at step " << i;
    }
  }
  EXPECT_EQ(index->size(), reference->size());

  const Status status = index->CheckInvariants();
  EXPECT_TRUE(status.ok()) << status.ToString();
  for (const Point& q :
       SampleQueriesFromDataset(data, 10, /*seed=*/41)) {
    ExpectSameNeighbors(SearchKnn(*index, q, 10),
                        SearchKnn(*reference, q, 10));
  }
}

TEST_P(TreePropertyTest, DeleteToEmptyAndReuse) {
  if (!IsDynamic()) {
    GTEST_SKIP() << "static structure";
  }
  const Dataset data = MakeTestDataset(GetParam().dist, 200, GetParam().dim,
                                       /*seed=*/43);
  auto index = MakeSmallPageIndex(GetParam().type, GetParam().dim);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(index->Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(
        index->Delete(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  EXPECT_EQ(index->size(), 0u);
  EXPECT_TRUE(index->CheckInvariants().ok());
  EXPECT_TRUE(SearchKnn(*index, Point(GetParam().dim, 0.5), 3).empty());

  // The emptied index must accept new points.
  ASSERT_TRUE(index->Insert(data.point(0), 999).ok());
  const std::vector<Neighbor> result = SearchKnn(*index, data.point(0), 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].oid, 999u);
}

TEST_P(TreePropertyTest, DeleteMissingPointIsNotFound) {
  if (!IsDynamic()) {
    GTEST_SKIP() << "static structure";
  }
  const Dataset data = MakeTestDataset(GetParam().dist, 100, GetParam().dim,
                                       /*seed=*/47);
  auto index = BuildIndex(data);
  // Absent oid on a present point.
  EXPECT_TRUE(index->Delete(data.point(0), 12345).IsNotFound());
  // Absent point.
  const Point outside(GetParam().dim, -3.5);
  EXPECT_TRUE(index->Delete(outside, 0).IsNotFound());
  EXPECT_EQ(index->size(), data.size());
}

TEST_P(TreePropertyTest, DuplicatePointsAreAllRetrievable) {
  auto index = MakeSmallPageIndex(GetParam().type, GetParam().dim);
  const Point p(GetParam().dim, 0.3);
  std::vector<Point> points(5, p);
  std::vector<uint32_t> oids = {10, 11, 12, 13, 14};
  // Give the bulk loader some distinct company as well.
  const Dataset extra = MakeTestDataset(GetParam().dist, 100, GetParam().dim,
                                        /*seed=*/53);
  for (size_t i = 0; i < extra.size(); ++i) {
    const PointView v = extra.point(i);
    points.emplace_back(v.begin(), v.end());
    oids.push_back(static_cast<uint32_t>(100 + i));
  }
  ASSERT_TRUE(index->BulkLoad(points, oids).ok());

  const std::vector<Neighbor> result = SearchKnn(*index, p, 5);
  ASSERT_EQ(result.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result[i].oid, 10 + i);
    EXPECT_EQ(result[i].distance, 0.0);
  }
}

std::vector<PropertyParam> AllPropertyParams() {
  std::vector<PropertyParam> params;
  for (const IndexType type :
       {IndexType::kSRTree, IndexType::kSSTree, IndexType::kRStarTree,
        IndexType::kKdbTree, IndexType::kVamSplitRTree, IndexType::kTvTree}) {
    for (const int dim : {2, 8, 16, 32}) {
      for (const DistKind dist :
           {DistKind::kUniform, DistKind::kCluster, DistKind::kHistogram}) {
        params.push_back(PropertyParam{type, dim, dist});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllTreesDimsAndDistributions, TreePropertyTest,
                         ::testing::ValuesIn(AllPropertyParams()), ParamName);

}  // namespace
}  // namespace srtree
