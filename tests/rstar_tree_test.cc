#include "src/rstar/rstar_tree.h"

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "src/storage/crc32c.h"
#include "src/storage/image_io.h"
#include "src/workload/queries.h"
#include "src/workload/uniform.h"

namespace srtree {
namespace {

TEST(RStarTreeTest, PaperFanouts) {
  // Section 3.1 setup: 16 dimensions, 8192-byte pages, 512-byte leaf data
  // areas, 8-byte coordinates.
  RStarTree::Options options;
  options.dim = 16;
  RStarTree tree(options);
  EXPECT_EQ(tree.node_capacity(), 31u);  // (8192-8) / (2*16*8 + 4)
  EXPECT_EQ(tree.leaf_capacity(), 12u);  // (8192-8) / (16*8 + 4 + 512)
  EXPECT_EQ(tree.name(), "R*-tree");
}

TEST(RStarTreeTest, FanoutShrinksWithDimensionality) {
  size_t prev = 1u << 20;
  for (const int dim : {10, 20, 40, 80}) {
    RStarTree::Options options;
    options.dim = dim;
    RStarTree tree(options);
    EXPECT_LT(tree.node_capacity(), prev);
    prev = tree.node_capacity();
  }
}

TEST(RStarTreeTest, HeightGrowsLogarithmically) {
  RStarTree::Options options;
  options.dim = 4;
  options.page_size = 1024;
  options.leaf_data_size = 0;
  RStarTree tree(options);
  EXPECT_EQ(tree.height(), 1);

  const Dataset data = MakeUniformDataset(2000, 4, /*seed=*/3);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  EXPECT_GE(tree.height(), 3);
  EXPECT_LE(tree.height(), 6);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RStarTreeTest, QueryReadsAtLeastRootToLeafPath) {
  RStarTree::Options options;
  options.dim = 4;
  options.page_size = 1024;
  options.leaf_data_size = 0;
  RStarTree tree(options);
  const Dataset data = MakeUniformDataset(1000, 4, /*seed=*/5);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  const QueryResult result = tree.Search(data.point(0), QuerySpec::Knn(1));
  EXPECT_GE(result.io.reads, static_cast<uint64_t>(tree.height()));
  EXPECT_GE(result.io.leaf_reads, 1u);
}

TEST(RStarTreeTest, InsertionCountsDiskAccesses) {
  RStarTree::Options options;
  options.dim = 4;
  RStarTree tree(options);
  const IoStats before = tree.GetIoStats();
  ASSERT_TRUE(tree.Insert(Point(4, 0.5), 0).ok());
  // At least read + write of the root.
  EXPECT_GE(tree.GetIoStats().accesses() - before.accesses(), 2u);
}

TEST(RStarTreeTest, LeafRegionsAreRectsOnly) {
  RStarTree::Options options;
  options.dim = 2;
  options.page_size = 1024;
  options.leaf_data_size = 0;
  RStarTree tree(options);
  const Dataset data = MakeUniformDataset(500, 2, /*seed=*/7);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  const RegionSummary summary = tree.LeafRegionSummary();
  EXPECT_GT(summary.leaf_count, 1u);
  EXPECT_TRUE(summary.has_rects);
  EXPECT_FALSE(summary.has_spheres);
  EXPECT_GT(summary.avg_rect_volume, 0.0);
}

TEST(RStarTreeTest, RejectsWrongDimensionality) {
  RStarTree::Options options;
  options.dim = 3;
  RStarTree tree(options);
  EXPECT_TRUE(tree.Insert(Point{1.0, 2.0}, 0).IsInvalidArgument());
  EXPECT_TRUE(tree.Delete(Point{1.0, 2.0}, 0).IsInvalidArgument());
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectSameKnn(const PointIndex& a, const PointIndex& b,
                   const Dataset& data) {
  for (const Point& q : SampleQueriesFromDataset(data, 10, /*seed=*/97)) {
    const auto want = a.Search(q, QuerySpec::Knn(8)).neighbors;
    const auto got = b.Search(q, QuerySpec::Knn(8)).neighbors;
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].oid, want[i].oid);
      EXPECT_EQ(got[i].distance, want[i].distance);
    }
  }
}

// An R*-tree whose rectangles cover 4 of 16 dimensions reopens with the
// same directory geometry; its "rstar" image is not a TV-tree image.
TEST(RStarTreeTest, ReducedActiveDimsSurviveSaveAndOpen) {
  RStarTree::Options options;
  options.dim = 16;
  options.active_dims = 4;
  options.page_size = 2048;
  options.leaf_data_size = 0;
  RStarTree tree(options);
  EXPECT_EQ(tree.node_capacity(), 30u);  // (2048-8) / (2*4*8 + 4)
  const Dataset data = MakeUniformDataset(2000, 16, /*seed=*/95);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  const std::string path = TempPath("rstar_active4.idx");
  ASSERT_TRUE(tree.Save(path).ok());

  auto reopened = RStarTree::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->name(), "R*-tree");
  EXPECT_EQ((*reopened)->active_dims(), 4);
  EXPECT_EQ((*reopened)->node_capacity(), tree.node_capacity());
  EXPECT_EQ((*reopened)->height(), tree.height());
  ExpectSameKnn(tree, **reopened, data);

  EXPECT_FALSE(TvRTree::Open(path).ok());
  TvRTree::Options tv_options;
  tv_options.dim = 16;
  TvRTree tv(tv_options);
  const std::string tv_path = TempPath("tvtree_default.idx");
  ASSERT_TRUE(tv.Save(tv_path).ok());
  EXPECT_FALSE(RStarTree::Open(tv_path).ok());
  auto tv_reopened = TvRTree::Open(tv_path);
  ASSERT_TRUE(tv_reopened.ok()) << tv_reopened.status().ToString();
  EXPECT_EQ((*tv_reopened)->name(), "TV-tree");
  EXPECT_EQ((*tv_reopened)->active_dims(), 8);
}

// R* images written before the header carried an active-dimension count
// hold 0 in that slot; they open with every dimension active.
TEST(RStarTreeTest, ImageWithZeroActiveDimsOpensWithAllDims) {
  RStarTree::Options options;
  options.dim = 6;
  options.page_size = 1024;
  options.leaf_data_size = 0;
  RStarTree tree(options);
  const Dataset data = MakeUniformDataset(500, 6, /*seed=*/96);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  const std::string path = TempPath("rstar_zero_active.idx");
  ASSERT_TRUE(tree.Save(path).ok());

  // The container's 24 bytes of framing end with the header CRC at offset
  // 20; the count sits after the header record's int32 dim.
  constexpr size_t kFraming = 24;
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  uint32_t header_size = 0;
  std::memcpy(&header_size, bytes.data() + 16, sizeof(header_size));
  int32_t active = 0;
  std::memcpy(&active, bytes.data() + kFraming + 4, sizeof(active));
  ASSERT_EQ(active, 6);
  std::memset(bytes.data() + kFraming + 4, 0, sizeof(active));
  const uint32_t crc = Crc32c(bytes.data() + kFraming, header_size);
  for (int i = 0; i < 4; ++i) {
    bytes[20 + static_cast<size_t>(i)] = static_cast<char>(crc >> (8 * i));
  }
  ASSERT_TRUE(WriteStringToFileForTest(bytes, path).ok());

  auto reopened = RStarTree::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->active_dims(), 6);
  EXPECT_EQ((*reopened)->node_capacity(), tree.node_capacity());
  ExpectSameKnn(tree, **reopened, data);
}

}  // namespace
}  // namespace srtree
