// Non-finite input is rejected at the API boundary.
//
// Regressions: a query with a NaN coordinate used to return OK with zero
// neighbors (every MINDIST comparison against NaN is false, so the
// traversal pruned everything), and an Insert of a NaN point (SR, SS and
// R* trees alike) was counted by size() but could never be found again.

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

// Static structures take no single-point mutations (Unimplemented); the
// rest must reject a non-finite point before touching the index.
bool TakesPointMutations(IndexType type) {
  return type != IndexType::kVamSplitRTree &&
         type != IndexType::kStaticSRTree;
}

class NonFiniteMutationTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(NonFiniteMutationTest, InsertAndDeleteRejectedWithoutSideEffects) {
  auto index = testing::MakeSmallPageIndex(GetParam(), kDim);
  const Dataset data = MakeUniformDataset(200, kDim, /*seed=*/41);
  ASSERT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
  const uint64_t version = index->AcquireSnapshot()->version();
  for (const Point& p : NonFinitePoints()) {
    const Status inserted = index->Insert(p, 9000);
    const Status deleted = index->Delete(p, 9000);
    EXPECT_FALSE(inserted.ok());
    EXPECT_FALSE(deleted.ok());
    if (TakesPointMutations(GetParam())) {
      EXPECT_TRUE(inserted.IsInvalidArgument()) << inserted.ToString();
      EXPECT_TRUE(deleted.IsInvalidArgument()) << deleted.ToString();
    }
  }
  EXPECT_EQ(index->size(), 200u);
  EXPECT_EQ(index->AcquireSnapshot()->version(), version);
  EXPECT_TRUE(index->CheckInvariants().ok());
  EXPECT_EQ(index->Search(Point(kDim, 0.5), QuerySpec::Knn(500))
                .neighbors.size(),
            200u);
}

// BulkLoad validates every point before storing any: one bad point leaves
// the index empty and still loadable.
TEST_P(NonFiniteMutationTest, BulkLoadRejectedBeforeStoringAnything) {
  const Dataset data = MakeUniformDataset(150, kDim, /*seed=*/43);
  for (const Point& bad : NonFinitePoints()) {
    auto index = testing::MakeSmallPageIndex(GetParam(), kDim);
    std::vector<Point> points = data.ToPoints();
    points[points.size() / 2] = bad;
    const Status status = index->BulkLoad(points, data.SequentialOids());
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_EQ(index->size(), 0u);
    EXPECT_TRUE(index->CheckInvariants().ok());
    ASSERT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
    EXPECT_EQ(index->Search(Point(kDim, 0.5), QuerySpec::Knn(500))
                  .neighbors.size(),
              150u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, NonFiniteMutationTest,
                         ::testing::ValuesIn(AllIndexTypes()),
                         [](const ::testing::TestParamInfo<IndexType>& info) {
                           return testing::TypeToken(info.param);
                         });

}  // namespace
}  // namespace srtree
