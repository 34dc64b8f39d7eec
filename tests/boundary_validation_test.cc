// Non-finite input is rejected at the API boundary.
//
// Regressions: a query with a NaN coordinate used to return OK with zero
// neighbors (every MINDIST comparison against NaN is false, so the
// traversal pruned everything), and an SR-tree Insert of a NaN point was
// counted by size() but could never be found again.

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/sr_tree.h"
#include "src/index/index_factory.h"
#include "src/index/point_index.h"
#include "src/workload/uniform.h"
#include "tests/test_util.h"

namespace srtree {
namespace {

constexpr int kDim = 4;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<IndexType> AllIndexTypes() {
  return {IndexType::kSRTree,       IndexType::kSSTree,
          IndexType::kRStarTree,    IndexType::kKdbTree,
          IndexType::kVamSplitRTree, IndexType::kXTree,
          IndexType::kTvTree,       IndexType::kScan,
          IndexType::kStaticSRTree, IndexType::kTieredSRTree};
}

std::vector<Point> NonFinitePoints() {
  std::vector<Point> points;
  for (const double bad : {kNaN, kInf, -kInf}) {
    Point p(kDim, 0.5);
    p[1] = bad;
    points.push_back(p);
  }
  return points;
}

void ExpectRejected(const QueryResult& result) {
  EXPECT_TRUE(result.status.IsInvalidArgument()) << result.status.ToString();
  EXPECT_TRUE(result.neighbors.empty());
  EXPECT_EQ(result.io.reads, 0u);  // rejected before any traversal
}

class NonFiniteQueryTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(NonFiniteQueryTest, RejectedByIndexAndSnapshot) {
  auto index = testing::MakeSmallPageIndex(GetParam(), kDim);
  const Dataset data = MakeUniformDataset(300, kDim, /*seed=*/31);
  ASSERT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
  const std::unique_ptr<IndexSnapshot> snapshot = index->AcquireSnapshot();
  for (const Point& q : NonFinitePoints()) {
    for (const QuerySpec& spec : {QuerySpec::Knn(5), QuerySpec::KnnBestFirst(5),
                                  QuerySpec::Range(0.5)}) {
      ExpectRejected(index->Search(q, spec));
      ExpectRejected(snapshot->Search(q, spec));
    }
  }
  // A finite query still works.
  const QueryResult ok = index->Search(Point(kDim, 0.5), QuerySpec::Knn(5));
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.neighbors.size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, NonFiniteQueryTest,
                         ::testing::ValuesIn(AllIndexTypes()),
                         [](const ::testing::TestParamInfo<IndexType>& info) {
                           return testing::TypeToken(info.param);
                         });

// Every SR-tree mutation path (the dynamic tree and the tiered index's
// delta) rejects a non-finite point without committing anything.
TEST(NonFiniteMutationTest, SrTreeRejectsNonFinitePoints) {
  for (const IndexType type : {IndexType::kSRTree, IndexType::kTieredSRTree}) {
    SCOPED_TRACE(testing::TypeToken(type));
    auto index = testing::MakeSmallPageIndex(type, kDim);
    const Dataset data = MakeUniformDataset(200, kDim, /*seed=*/37);
    ASSERT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
    const uint64_t version = index->AcquireSnapshot()->version();
    for (const Point& p : NonFinitePoints()) {
      EXPECT_TRUE(index->Insert(p, 9000).IsInvalidArgument());
      EXPECT_TRUE(index->Delete(p, 9000).IsInvalidArgument());
    }
    EXPECT_EQ(index->size(), 200u);
    EXPECT_EQ(index->AcquireSnapshot()->version(), version);
    EXPECT_TRUE(index->CheckInvariants().ok());
    // Every stored point stays reachable.
    EXPECT_EQ(index->Search(Point(kDim, 0.5), QuerySpec::Knn(500))
                  .neighbors.size(),
              200u);
  }
}

}  // namespace
}  // namespace srtree
