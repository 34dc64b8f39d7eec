#include "src/core/sr_tree.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/workload/queries.h"
#include "src/workload/uniform.h"

namespace srtree {
namespace {

TEST(SRTreeTest, PaperFanouts) {
  SRTree::Options options;
  options.dim = 16;
  SRTree tree(options);
  // Table 1: the SR-tree node holds 20 entries and the leaf 12 at D=16 —
  // one third of the SS-tree fanout, two thirds of the R*-tree's
  // (Section 5.3).
  EXPECT_EQ(tree.node_capacity(), 20u);  // (8192-8)/(16*8+8+2*16*8+4+4)
  EXPECT_EQ(tree.leaf_capacity(), 12u);
  EXPECT_EQ(tree.name(), "SR-tree");
}

std::unique_ptr<SRTree> BuildUniformSRTree(const Dataset& data,
                                           SRTree::Options options) {
  options.dim = data.dim();
  auto tree = std::make_unique<SRTree>(options);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_TRUE(tree->Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  return tree;
}

TEST(SRTreeTest, LeafRegionsReportBothShapes) {
  SRTree::Options options;
  options.page_size = 2048;
  options.leaf_data_size = 0;
  const Dataset data = MakeUniformDataset(800, 8, /*seed=*/19);
  const auto tree = BuildUniformSRTree(data, options);
  const RegionSummary summary = tree->LeafRegionSummary();
  EXPECT_TRUE(summary.has_spheres);
  EXPECT_TRUE(summary.has_rects);
  EXPECT_GT(summary.leaf_count, 10u);
  // The intersection region is no larger than either shape; in particular
  // the rectangle volume must undercut the sphere volume in 8 dimensions.
  EXPECT_LT(summary.avg_rect_volume, summary.avg_sphere_volume);
}

TEST(SRTreeTest, RadiusRuleTightensSpheresVsSsTree) {
  // Section 4.2: radius = min(d_s, d_r) can only shrink the spheres
  // relative to the SS-tree's d_s on identical data and identical
  // insertion order... the trees diverge structurally, so compare the
  // ablation within the SR-tree itself (identical structure decisions flow
  // from identical centroids; the radius rule only affects the stored
  // radii and search).
  const Dataset data = MakeUniformDataset(1000, 8, /*seed=*/23);

  SRTree::Options with_rule;
  with_rule.page_size = 2048;
  with_rule.leaf_data_size = 0;
  auto tree_with = BuildUniformSRTree(data, with_rule);

  SRTree::Options without_rule = with_rule;
  without_rule.use_rect_in_radius = false;
  auto tree_without = BuildUniformSRTree(data, without_rule);

  const RegionSummary with_summary = tree_with->LeafRegionSummary();
  const RegionSummary without_summary = tree_without->LeafRegionSummary();
  EXPECT_LE(with_summary.avg_sphere_diameter,
            without_summary.avg_sphere_diameter + 1e-12);
}

TEST(SRTreeTest, RectInMindistReducesDiskReads) {
  // Section 4.4: pruning with max(sphere, rect) reads no more pages than
  // sphere-only pruning on the same tree.
  const Dataset data = MakeUniformDataset(1500, 8, /*seed=*/29);

  SRTree::Options options;
  options.page_size = 2048;
  options.leaf_data_size = 0;
  auto full = BuildUniformSRTree(data, options);

  options.use_rect_in_mindist = false;
  auto sphere_only = BuildUniformSRTree(data, options);

  const std::vector<Point> queries =
      SampleQueriesFromDataset(data, 30, /*seed=*/31);
  IoStatsDelta full_io, sphere_io;
  for (const Point& q : queries) {
    const QueryResult a = full->Search(q, QuerySpec::Knn(10));
    const QueryResult b = sphere_only->Search(q, QuerySpec::Knn(10));
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].oid, b.neighbors[i].oid);
    }
    full_io.MergeFrom(a.io);
    sphere_io.MergeFrom(b.io);
  }
  EXPECT_LE(full_io.reads, sphere_io.reads);
}

TEST(SRTreeTest, InvariantsSurviveHeavyTraffic) {
  SRTree::Options options;
  options.dim = 8;
  options.page_size = 2048;
  options.leaf_data_size = 0;
  SRTree tree(options);
  const Dataset data = MakeUniformDataset(1200, 8, /*seed=*/37);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  // Remove half, checking structural health along the way.
  for (size_t i = 0; i < data.size(); i += 2) {
    ASSERT_TRUE(tree.Delete(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  const Status status = tree.CheckInvariants();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(tree.size(), data.size() / 2);
}

TEST(SRTreeTest, RejectsWrongDimensionality) {
  SRTree::Options options;
  options.dim = 3;
  SRTree tree(options);
  EXPECT_TRUE(tree.Insert(Point{1.0, 2.0}, 0).IsInvalidArgument());
}

}  // namespace
}  // namespace srtree
