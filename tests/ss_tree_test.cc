#include "src/core/sr_tree.h"

#include <gtest/gtest.h>

#include "src/workload/uniform.h"

namespace srtree {
namespace {

TEST(SSTreeTest, PaperFanouts) {
  SSTree::Options options;
  options.dim = 16;
  SSTree tree(options);
  // A sphere entry (center + radius + weight + child) is nearly half the
  // rectangle entry, which is the SS-tree's "almost double fanout" claim.
  EXPECT_EQ(tree.node_capacity(), 56u);  // (8192-8) / (16*8 + 8 + 4 + 4)
  EXPECT_EQ(tree.leaf_capacity(), 12u);
  EXPECT_EQ(tree.name(), "SS-tree");
}

TEST(SSTreeTest, LeafSummaryReportsBothShapes) {
  // Figure 6's measurement needs the bounding rectangles of SS-tree leaves
  // even though the tree itself stores only spheres.
  SSTree::Options options;
  options.dim = 8;
  options.page_size = 2048;
  options.leaf_data_size = 0;
  SSTree tree(options);
  const Dataset data = MakeUniformDataset(800, 8, /*seed=*/11);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  const RegionSummary summary = tree.LeafRegionSummary();
  EXPECT_TRUE(summary.has_spheres);
  EXPECT_TRUE(summary.has_rects);
  // The paper's core observation: leaf bounding rectangles occupy far less
  // volume than the bounding spheres of the same leaves...
  EXPECT_LT(summary.avg_rect_volume, summary.avg_sphere_volume);
  // ...while the spheres have the shorter diameter.
  EXPECT_LT(summary.avg_sphere_diameter, summary.avg_rect_diagonal);
}

TEST(SSTreeTest, HeightIsShallowerThanRStarStyleFanoutWouldGive) {
  // With node fanout 56 vs 31, the SS-tree needs no more levels than the
  // same data in an R*-tree; sanity-check it builds and balances.
  SSTree::Options options;
  options.dim = 4;
  options.page_size = 1024;
  options.leaf_data_size = 0;
  SSTree tree(options);
  const Dataset data = MakeUniformDataset(2000, 4, /*seed=*/13);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_GE(tree.height(), 2);
  const TreeStats stats = tree.GetTreeStats();
  EXPECT_EQ(stats.entry_count, 2000u);
  EXPECT_GT(stats.leaf_count, 10u);
}

TEST(SSTreeTest, CentroidWeightsTrackSubtreeSizes) {
  SSTree::Options options;
  options.dim = 2;
  options.page_size = 1024;
  options.leaf_data_size = 0;
  SSTree tree(options);
  const Dataset data = MakeUniformDataset(600, 2, /*seed=*/17);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  // CheckInvariants validates weight sums at every entry.
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(SSTreeTest, RejectsWrongDimensionality) {
  SSTree::Options options;
  options.dim = 3;
  SSTree tree(options);
  EXPECT_TRUE(tree.Insert(Point{1.0}, 0).IsInvalidArgument());
}

}  // namespace
}  // namespace srtree
