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
