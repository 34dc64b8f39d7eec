#include "src/rstar/rstar_tree.h"

#include <gtest/gtest.h>

#include "src/index/brute_force.h"
#include "src/workload/histogram.h"
#include "src/workload/uniform.h"
#include "src/workload/queries.h"

namespace srtree {
namespace {

TEST(TvRTreeTest, ActiveDimensionDefaultsAndFanout) {
  TvRTree::Options options;
  options.dim = 16;
  TvRTree tree(options);
  EXPECT_EQ(tree.active_dims(), 8);  // min(8, dim)
  // Directory entries cover only 8 of the 16 dimensions, so the fanout
  // roughly doubles the R*-tree's 31 — the TV-tree's claimed advantage.
  EXPECT_EQ(tree.node_capacity(), 62u);  // (8192-8) / (2*8*8 + 4)
  EXPECT_EQ(tree.leaf_capacity(), 12u);  // leaves store full vectors
  EXPECT_EQ(tree.name(), "TV-tree");
}

TEST(TvRTreeTest, ExplicitActiveDims) {
  TvRTree::Options options;
  options.dim = 16;
  options.active_dims = 4;
  TvRTree tree(options);
  EXPECT_EQ(tree.active_dims(), 4);
  EXPECT_EQ(tree.node_capacity(), 120u);  // (8192-8) / (2*4*8 + 4)
}

TEST(TvRTreeTest, FullActiveDimsBehavesLikeRStar) {
  // With active_dims == dim the TV-tree and R*-tree are the same
  // algorithm; their query answers and tree shapes must coincide.
  TvRTree::Options tv_options;
  tv_options.dim = 4;
  tv_options.active_dims = 4;
  tv_options.page_size = 1024;
  tv_options.leaf_data_size = 0;
  TvRTree tv(tv_options);

  RStarTree::Options rs_options;
  rs_options.dim = 4;
  rs_options.page_size = 1024;
  rs_options.leaf_data_size = 0;
  RStarTree rstar(rs_options);

  const Dataset data = MakeUniformDataset(1000, 4, /*seed=*/89);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tv.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
    ASSERT_TRUE(rstar.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  EXPECT_EQ(tv.height(), rstar.height());
  EXPECT_EQ(tv.GetTreeStats().leaf_count, rstar.GetTreeStats().leaf_count);
  for (const Point& q : SampleQueriesFromDataset(data, 10, /*seed=*/91)) {
    const auto a = tv.Search(q, QuerySpec::Knn(5)).neighbors;
    const auto b = rstar.Search(q, QuerySpec::Knn(5)).neighbors;
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].oid, b[i].oid);
  }
}

TEST(TvRTreeTest, ReducedDimensionsStayExact) {
  // Even when only 4 of 16 dimensions are indexed, results must match
  // brute force: the active-subspace MINDIST is a valid lower bound.
  TvRTree::Options options;
  options.dim = 16;
  options.active_dims = 4;
  options.page_size = 2048;
  options.leaf_data_size = 0;
  TvRTree tree(options);

  BruteForceIndex::Options ref_options;
  ref_options.dim = 16;
  BruteForceIndex reference(ref_options);

  HistogramConfig config;
  config.n = 800;
  config.dim = 16;
  config.seed = 93;
  const Dataset data = MakeHistogramDataset(config);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
    ASSERT_TRUE(
        reference.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  for (const Point& q : SampleQueriesFromDataset(data, 10, /*seed=*/97)) {
    const auto actual = tree.Search(q, QuerySpec::Knn(10)).neighbors;
    const auto expected = reference.Search(q, QuerySpec::Knn(10)).neighbors;
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].oid, expected[i].oid);
    }
  }
}

TEST(TvRTreeTest, RejectsActiveDimsAboveDim) {
  TvRTree::Options options;
  options.dim = 4;
  options.active_dims = 8;
  EXPECT_DEATH(TvRTree tree(options), "CHECK failed");
}

}  // namespace
}  // namespace srtree
