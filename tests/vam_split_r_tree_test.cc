#include "src/rstar/rstar_tree.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/workload/uniform.h"

namespace srtree {
namespace {

TEST(VamSplitRTreeTest, PaperFanouts) {
  VamSplitRTree::Options options;
  options.dim = 16;
  VamSplitRTree tree(options);
  EXPECT_EQ(tree.node_capacity(), 31u);
  EXPECT_EQ(tree.leaf_capacity(), 12u);
  EXPECT_EQ(tree.name(), "VAMSplit R-tree");
}

TEST(VamSplitRTreeTest, StaticStructureRejectsUpdates) {
  VamSplitRTree::Options options;
  options.dim = 2;
  VamSplitRTree tree(options);
  EXPECT_TRUE(tree.Insert(Point{0.5, 0.5}, 0).IsUnimplemented());
  EXPECT_TRUE(tree.Delete(Point{0.5, 0.5}, 0).IsUnimplemented());
}

TEST(VamSplitRTreeTest, BulkLoadTwiceFails) {
  VamSplitRTree::Options options;
  options.dim = 2;
  VamSplitRTree tree(options);
  const Dataset data = MakeUniformDataset(100, 2, /*seed=*/59);
  ASSERT_TRUE(tree.BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
  EXPECT_EQ(tree.BulkLoad(data.ToPoints(), data.SequentialOids()).code(),
            StatusCode::kFailedPrecondition);
}

// BulkLoad publishes the whole build as one committed version: a snapshot
// pinned before it still sees the empty tree.
TEST(VamSplitRTreeTest, BulkLoadCommitsExactlyOnce) {
  VamSplitRTree::Options options;
  options.dim = 2;
  VamSplitRTree tree(options);
  const std::unique_ptr<IndexSnapshot> before = tree.AcquireSnapshot();
  const Dataset data = MakeUniformDataset(500, 2, /*seed=*/67);
  ASSERT_TRUE(tree.BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
  const std::unique_ptr<IndexSnapshot> after = tree.AcquireSnapshot();
  EXPECT_EQ(after->version(), before->version() + 1);
  EXPECT_EQ(after->size(), 500u);
  EXPECT_EQ(before->size(), 0u);
  EXPECT_TRUE(
      before->Search(data.point(0), QuerySpec::Knn(5)).neighbors.empty());
  EXPECT_EQ(after->Search(data.point(0), QuerySpec::Knn(5)).neighbors.size(),
            5u);
}

TEST(VamSplitRTreeTest, UsesMinimumNumberOfLeaves) {
  // The defining guarantee: the split point is rounded to multiples of the
  // maximal-subtree capacity, so exactly ceil(n / leaf_capacity) leaves are
  // allocated.
  for (const size_t n : {100u, 1000u, 2500u}) {
    VamSplitRTree::Options options;
    options.dim = 4;
    options.page_size = 1024;
    options.leaf_data_size = 0;
    VamSplitRTree tree(options);
    const Dataset data = MakeUniformDataset(n, 4, /*seed=*/61);
    ASSERT_TRUE(tree.BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
    const TreeStats stats = tree.GetTreeStats();
    const uint64_t min_leaves =
        (n + tree.leaf_capacity() - 1) / tree.leaf_capacity();
    EXPECT_EQ(stats.leaf_count, min_leaves) << "n=" << n;
    EXPECT_TRUE(tree.CheckInvariants().ok());
  }
}

TEST(VamSplitRTreeTest, MinimalHeight) {
  VamSplitRTree::Options options;
  options.dim = 4;
  options.page_size = 1024;
  options.leaf_data_size = 0;
  VamSplitRTree tree(options);
  const size_t n = 2000;
  const Dataset data = MakeUniformDataset(n, 4, /*seed=*/67);
  ASSERT_TRUE(tree.BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
  // Smallest h with leaf_cap * node_cap^h >= n.
  uint64_t cap = tree.leaf_capacity();
  int height = 1;
  while (cap < n) {
    cap *= tree.node_capacity();
    ++height;
  }
  EXPECT_EQ(tree.height(), height);
}

TEST(VamSplitRTreeTest, EmptyBulkLoad) {
  VamSplitRTree::Options options;
  options.dim = 2;
  VamSplitRTree tree(options);
  ASSERT_TRUE(tree.BulkLoad({}, {}).ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(
      tree.Search(Point{0.0, 0.0}, QuerySpec::Knn(3)).neighbors.empty());
}

}  // namespace
}  // namespace srtree
