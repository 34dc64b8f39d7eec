// The VAM partition's guarantees (src/index/vam_partition.h), checked
// through both bulk loads that use it: the VAMSplit R-tree and the static
// SR-tree tier. Rounding each split to a multiple of a maximal subtree's
// capacity gives the minimum number of leaves, and the build chooses the
// smallest height that holds the data.

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/index/vam_partition.h"
#include "src/rstar/rstar_tree.h"
#include "src/statictier/static_sr_tree.h"
#include "src/workload/uniform.h"

namespace srtree {
namespace {

constexpr int kDim = 4;

struct LoaderCase {
  std::string name;
  std::function<std::unique_ptr<PointIndex>()> make;
};

// Without this gtest prints the case as its raw bytes (the string's and the
// function's heap pointers), which puts addresses into each ctest name.
void PrintTo(const LoaderCase& loader, std::ostream* os) { *os << loader.name; }

std::vector<LoaderCase> Loaders() {
  return {
      {"VamSplitRTree",
       [] {
         VamSplitRTree::Options options;
         options.dim = kDim;
         options.page_size = 1024;
         options.leaf_data_size = 0;
         return std::make_unique<VamSplitRTree>(options);
       }},
      {"StaticSRTree",
       [] {
         StaticSRTree::Options options;
         options.dim = kDim;
         options.page_size = 1024;
         return std::make_unique<StaticSRTree>(options);
       }},
  };
}

class VamPartitionTest : public ::testing::TestWithParam<LoaderCase> {};

TEST_P(VamPartitionTest, UsesMinimumNumberOfLeaves) {
  // n = leaf_cap + 1 leaves a 1-entry leaf, which the audit must accept.
  const size_t leaf_cap = GetParam().make()->leaf_capacity();
  for (const size_t n : {leaf_cap + 1, size_t{100}, size_t{1000},
                         size_t{2500}}) {
    const std::unique_ptr<PointIndex> tree = GetParam().make();
    const Dataset data = MakeUniformDataset(n, kDim, /*seed=*/61);
    ASSERT_TRUE(tree->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
    EXPECT_EQ(tree->GetTreeStats().leaf_count,
              (n + leaf_cap - 1) / leaf_cap)
        << "n=" << n;
    const Status audit = tree->CheckInvariants();
    EXPECT_TRUE(audit.ok()) << "n=" << n << ": " << audit.ToString();
  }
}

TEST_P(VamPartitionTest, MinimalHeight) {
  const std::unique_ptr<PointIndex> tree = GetParam().make();
  const size_t n = 2000;
  const Dataset data = MakeUniformDataset(n, kDim, /*seed=*/67);
  ASSERT_TRUE(tree->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
  // Smallest h with leaf_cap * node_cap^(h - 1) >= n.
  uint64_t cap = tree->leaf_capacity();
  int height = 1;
  while (cap < n) {
    cap *= tree->node_capacity();
    ++height;
  }
  EXPECT_EQ(tree->GetTreeStats().height, height);
  EXPECT_EQ(VamHeight(tree->leaf_capacity(), tree->node_capacity(), n) + 1,
            height);
}

INSTANTIATE_TEST_SUITE_P(BothLoaders, VamPartitionTest,
                         ::testing::ValuesIn(Loaders()),
                         [](const ::testing::TestParamInfo<LoaderCase>& info) {
                           return info.param.name;
                         });

// Every piece but the last holds exactly `piece_cap` items, and the pieces
// tile the input items in order.
TEST(VamPartitionFunctionsTest, PiecesPackFullSubtreesLeftToRight) {
  const Dataset data = MakeUniformDataset(1000, kDim, /*seed=*/71);
  const std::vector<Point> points = data.ToPoints();
  std::vector<uint32_t> items(points.size());
  std::iota(items.begin(), items.end(), 0);
  std::vector<VamItems> pieces;
  SplitIntoPieces(points, items, /*piece_cap=*/64, pieces);
  ASSERT_EQ(pieces.size(), 16u);  // ceil(1000 / 64)
  size_t offset = 0;
  for (size_t i = 0; i < pieces.size(); ++i) {
    EXPECT_EQ(pieces[i].data(), items.data() + offset) << "piece " << i;
    if (i + 1 < pieces.size()) {
      EXPECT_EQ(pieces[i].size(), 64u) << "piece " << i;
    }
    offset += pieces[i].size();
  }
  EXPECT_EQ(offset, items.size());
  std::vector<uint32_t> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(VamPartitionFunctionsTest, VarianceDimAndSubtreeSizes) {
  const std::vector<Point> points = {
      {0.0, 0.0, 5.0}, {0.1, 1.0, 5.0}, {0.2, 3.0, 5.0}};
  std::vector<uint32_t> items = {0, 1, 2};
  EXPECT_EQ(MaxVarianceDim(points, items), 1);
  EXPECT_EQ(VamSubtreeCapacity(12, 31, 0), 12u);
  EXPECT_EQ(VamSubtreeCapacity(12, 31, 2), 12u * 31u * 31u);
  EXPECT_EQ(VamHeight(12, 31, 0), 0);
  EXPECT_EQ(VamHeight(12, 31, 12), 0);
  EXPECT_EQ(VamHeight(12, 31, 13), 1);
}

}  // namespace
}  // namespace srtree
