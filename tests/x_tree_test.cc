#include "src/xtree/x_tree.h"

#include <string>

#include <gtest/gtest.h>

#include "src/workload/uniform.h"

namespace srtree {
namespace {

TEST(XTreeTest, PaperFanouts) {
  XTree::Options options;
  options.dim = 16;
  XTree tree(options);
  // Same per-page layout as the R*-tree; supernodes multiply it.
  EXPECT_EQ(tree.node_capacity(), 31u);
  EXPECT_EQ(tree.leaf_capacity(), 12u);
  EXPECT_EQ(tree.name(), "X-tree");
}

TEST(XTreeTest, LowDimensionalDataNeedsNoSupernodes) {
  // In 2-d, topological splits rarely exceed the overlap threshold, so the
  // X-tree degenerates to an R-tree: no supernodes.
  XTree::Options options;
  options.dim = 2;
  options.page_size = 1024;
  options.leaf_data_size = 0;
  XTree tree(options);
  const Dataset data = MakeUniformDataset(2000, 2, /*seed=*/71);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const XTree::SupernodeStats stats = tree.GetSupernodeStats();
  EXPECT_EQ(stats.supernodes, 0u);
  EXPECT_EQ(tree.supernode_extensions(), 0u);
}

TEST(XTreeTest, HighDimensionalDataCreatesSupernodes) {
  // In 16-d uniform data, directory splits overlap heavily, so the X-tree
  // must fall back to supernodes (the behavior Berchtold et al. designed
  // it for).
  XTree::Options options;
  options.dim = 16;
  options.page_size = 2048;
  options.leaf_data_size = 0;
  XTree tree(options);
  const Dataset data = MakeUniformDataset(4000, 16, /*seed=*/73);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_GT(tree.supernode_extensions(), 0u);
  const XTree::SupernodeStats stats = tree.GetSupernodeStats();
  EXPECT_GT(stats.supernodes, 0u);
  EXPECT_GT(stats.supernode_pages, stats.supernodes);  // > 1 page each

  // Open's page walk follows the supernode chains.
  const std::string path = ::testing::TempDir() + "/x_supernodes.idx";
  ASSERT_TRUE(tree.Save(path).ok());
  auto reopened = XTree::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->GetSupernodeStats().supernode_pages,
            stats.supernode_pages);
}

TEST(XTreeTest, SupernodeReadsCostOnePerPage) {
  XTree::Options options;
  options.dim = 16;
  options.page_size = 2048;
  options.leaf_data_size = 0;
  XTree tree(options);
  const Dataset data = MakeUniformDataset(4000, 16, /*seed=*/73);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  const TreeStats stats = tree.GetTreeStats();
  const QueryResult result = tree.Search(data.point(0), QuerySpec::Knn(1));
  // Reading the root supernode alone may already cost several reads; the
  // total must be at least the tree height and is bounded by the page
  // population.
  EXPECT_GE(result.io.reads, static_cast<uint64_t>(tree.height()));
  EXPECT_LE(result.io.reads, stats.node_count + stats.leaf_count);
}

TEST(XTreeTest, DeleteShrinksSupernodes) {
  XTree::Options options;
  options.dim = 16;
  options.page_size = 2048;
  options.leaf_data_size = 0;
  XTree tree(options);
  const Dataset data = MakeUniformDataset(3000, 16, /*seed=*/79);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  for (size_t i = 0; i < data.size(); i += 2) {
    ASSERT_TRUE(tree.Delete(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  const Status status = tree.CheckInvariants();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(tree.size(), data.size() / 2);
}

TEST(XTreeTest, RejectsWrongDimensionality) {
  XTree::Options options;
  options.dim = 3;
  XTree tree(options);
  EXPECT_TRUE(tree.Insert(Point{1.0}, 0).IsInvalidArgument());
}

}  // namespace
}  // namespace srtree
