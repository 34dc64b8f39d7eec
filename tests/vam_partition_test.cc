// The VAM partition's guarantees (src/index/vam_partition.h), checked
// through both bulk loads that use it: the VAMSplit R-tree and the static
// SR-tree tier. Rounding each split to a multiple of a maximal subtree's
// capacity gives the minimum number of leaves, and the build chooses the
// smallest height that holds the data. The row-order loader is checked
// slot for slot against the index-array partition it replaced.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/index/vam_partition.h"
#include "src/rstar/rstar_tree.h"
#include "src/statictier/static_sr_tree.h"
#include "src/workload/histogram.h"
#include "src/workload/uniform.h"

namespace srtree {
namespace {

constexpr int kDim = 4;

// The reference: the partition over an index array into the bulk-load
// points that VamLoader replaced, as it stood.
using RefItems = std::span<uint32_t>;

int RefMaxVarianceDim(const std::vector<Point>& points, RefItems items) {
  int best_dim = 0;
  double best_var = -1.0;
  for (size_t d = 0; d < points[items[0]].size(); ++d) {
    double sum = 0.0, sum_sq = 0.0;
    for (const uint32_t i : items) {
      const double x = points[i][d];
      sum += x;
      sum_sq += x * x;
    }
    const double n = static_cast<double>(items.size());
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    if (var > best_var) {
      best_var = var;
      best_dim = static_cast<int>(d);
    }
  }
  return best_dim;
}

void RefSplitIntoPieces(const std::vector<Point>& points, RefItems items,
                        uint64_t piece_cap, std::vector<RefItems>& pieces) {
  if (items.size() <= piece_cap) {
    pieces.push_back(items);
    return;
  }
  const size_t dim = static_cast<size_t>(RefMaxVarianceDim(points, items));
  const uint64_t n = items.size();
  uint64_t left = std::max<uint64_t>(
      static_cast<uint64_t>(std::llround(static_cast<double>(n) / 2.0 /
                                         static_cast<double>(piece_cap))),
      1) * piece_cap;
  if (left >= n) left = ((n - 1) / piece_cap) * piece_cap;
  std::nth_element(items.begin(), items.begin() + static_cast<ptrdiff_t>(left),
                   items.end(), [&](uint32_t a, uint32_t b) {
                     return points[a][dim] < points[b][dim];
                   });
  RefSplitIntoPieces(points, items.subspan(0, left), piece_cap, pieces);
  RefSplitIntoPieces(points, items.subspan(left), piece_cap, pieces);
}

// The reference build's leaves, left to right, as slot sequences.
void RefLeaves(const std::vector<Point>& points, RefItems items, int height,
               size_t leaf_cap, size_t node_cap,
               std::vector<std::vector<uint32_t>>& leaves) {
  if (height == 0) {
    leaves.emplace_back(items.begin(), items.end());
    return;
  }
  std::vector<RefItems> pieces;
  RefSplitIntoPieces(points, items,
                     VamSubtreeCapacity(leaf_cap, node_cap, height - 1),
                     pieces);
  for (const RefItems piece : pieces) {
    RefLeaves(points, piece, height - 1, leaf_cap, node_cap, leaves);
  }
}

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> items(n);
  std::iota(items.begin(), items.end(), 0);
  return items;
}

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

// The leaves hold the reference build's leaves, in page order. Both trees
// number their leaf pages left to right (the static tier breadth-first,
// the VAMSplit R-tree in preorder), which is the order VisitNodes reports
// them in. Distinct points name their oids; the oids are not the slots.
TEST_P(VamPartitionTest, LeavesFollowTheReferencePartition) {
  const Dataset data = MakeUniformDataset(3000, kDim, /*seed=*/73);
  const std::vector<Point> points = data.ToPoints();
  std::vector<uint32_t> oids;
  std::map<Point, uint32_t> oid_of;
  for (uint32_t i = 0; i < points.size(); ++i) {
    oids.push_back(5 + 3 * i);
    oid_of.emplace(points[i], oids.back());
  }
  ASSERT_EQ(oid_of.size(), points.size());
  const std::unique_ptr<PointIndex> tree = GetParam().make();
  ASSERT_TRUE(tree->BulkLoad(points, oids).ok());

  std::vector<std::vector<uint32_t>> leaves;
  tree->VisitNodes([&](const std::vector<int>&, const NodeView& node) {
    if (node.level != 0) return;
    leaves.emplace_back();
    for (const PointView p : node.points) {
      leaves.back().push_back(oid_of.at(Point(p.begin(), p.end())));
    }
  });

  std::vector<uint32_t> items = Iota(points.size());
  std::vector<std::vector<uint32_t>> ref;
  RefLeaves(points, items,
            VamHeight(tree->leaf_capacity(), tree->node_capacity(),
                      points.size()),
            tree->leaf_capacity(), tree->node_capacity(), ref);
  for (std::vector<uint32_t>& leaf : ref) {
    for (uint32_t& slot : leaf) slot = oids[slot];
  }
  ASSERT_GT(ref.size(), 1u);
  EXPECT_EQ(leaves, ref);
}

INSTANTIATE_TEST_SUITE_P(BothLoaders, VamPartitionTest,
                         ::testing::ValuesIn(Loaders()),
                         [](const ::testing::TestParamInfo<LoaderCase>& info) {
                           return info.param.name;
                         });

// Every piece but the last holds exactly `piece_cap` rows, and the pieces
// tile the rows in order.
TEST(VamPartitionFunctionsTest, PiecesPackFullSubtreesLeftToRight) {
  const Dataset data = MakeUniformDataset(1000, kDim, /*seed=*/71);
  const std::vector<Point> points = data.ToPoints();
  VamLoader loader(points);
  std::vector<VamRange> pieces;
  loader.SplitIntoPieces(loader.all(), /*piece_cap=*/64, pieces);
  ASSERT_EQ(pieces.size(), 16u);  // ceil(1000 / 64)
  size_t offset = 0;
  for (size_t i = 0; i < pieces.size(); ++i) {
    EXPECT_EQ(pieces[i].begin, offset) << "piece " << i;
    if (i + 1 < pieces.size()) {
      EXPECT_EQ(pieces[i].size(), 64u) << "piece " << i;
    }
    offset = pieces[i].end;
  }
  EXPECT_EQ(offset, points.size());
  const std::span<const uint32_t> slots = loader.slots(loader.all());
  std::vector<uint32_t> sorted(slots.begin(), slots.end());
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

// Points whose coordinates take few values: the selection meets ties at
// every split, where a comparison that differs from the reference's (a
// tie-break on the row, say) would reorder the pieces.
std::vector<Point> IntegerGrid(size_t n, uint64_t seed) {
  std::vector<Point> points;
  uint64_t state = seed;
  for (size_t i = 0; i < n; ++i) {
    Point p(kDim);
    for (double& x : p) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      x = static_cast<double>((state >> 33) % 4);
    }
    points.push_back(std::move(p));
  }
  return points;
}

std::vector<Point> Histograms(size_t n, uint64_t seed) {
  HistogramConfig config;
  config.n = n;
  config.dim = kDim;
  config.seed = seed;
  return MakeHistogramDataset(config).ToPoints();
}

// Splits `points` with the loader and with the reference; the pieces must
// match slot for slot, and every row must still hold its slot's point.
void ExpectPiecesMatchReference(const std::vector<Point>& points,
                                uint64_t cap) {
  std::vector<uint32_t> items = Iota(points.size());
  std::vector<RefItems> ref;
  RefSplitIntoPieces(points, items, cap, ref);

  VamLoader loader(points);
  std::vector<VamRange> pieces;
  loader.SplitIntoPieces(loader.all(), cap, pieces);
  ASSERT_EQ(pieces.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    const std::span<const uint32_t> got = loader.slots(pieces[i]);
    ASSERT_TRUE(
        std::equal(got.begin(), got.end(), ref[i].begin(), ref[i].end()))
        << "piece " << i;
  }
  for (size_t r = 0; r < points.size(); ++r) {
    const PointView row = loader.row(r);
    ASSERT_EQ(Point(row.begin(), row.end()), points[loader.slot(r)]);
  }
}

// The loader's pieces are the reference's, slot for slot, with n at, one
// below and one above multiples of several piece caps.
TEST(VamPartitionFunctionsTest, PiecesMatchTheIndexArrayReference) {
  const std::vector<std::pair<std::string,
                              std::function<std::vector<Point>(size_t)>>>
      kinds = {
          {"uniform",
           [](size_t n) { return MakeUniformDataset(n, kDim, 79).ToPoints(); }},
          {"histogram", [](size_t n) { return Histograms(n, 83); }},
          {"integer grid", [](size_t n) { return IntegerGrid(n, 89); }},
      };
  for (const auto& [kind, make] : kinds) {
    for (const uint64_t cap : {1u, 7u, 12u, 64u}) {
      for (const uint64_t mult : {1u, 3u, 16u}) {
        for (const uint64_t n : {mult * cap - 1, mult * cap, mult * cap + 1}) {
          if (n == 0) continue;
          SCOPED_TRACE(kind + " cap=" + std::to_string(cap) +
                       " n=" + std::to_string(n));
          ExpectPiecesMatchReference(make(n), cap);
        }
      }
    }
  }
}

// Rows past the gather bound are split through their slots, and the
// ranges below it in the contiguous block; the pieces do not change.
TEST(VamPartitionFunctionsTest, PiecesMatchReferenceAcrossTheGatherBound) {
  constexpr int kWide = 64;
  const size_t rows_in_block =
      VamLoader::kGatherBytes / (kWide * sizeof(double));
  const size_t n = 3 * rows_in_block + 1;
  HistogramConfig config;
  config.n = n;
  config.dim = kWide;
  config.seed = 97;
  const std::vector<Point> points = MakeHistogramDataset(config).ToPoints();
  for (const uint64_t cap : {uint64_t{61}, uint64_t{rows_in_block}}) {
    SCOPED_TRACE("cap=" + std::to_string(cap));
    ExpectPiecesMatchReference(points, cap);
  }
}

// A split of rows that reach past the block moves rows the block holds:
// the block must not answer for them afterwards.
TEST(VamPartitionFunctionsTest, SplitAroundTheBlockKeepsRowsTrue) {
  constexpr int kWide = 64;
  const size_t rows_in_block =
      VamLoader::kGatherBytes / (kWide * sizeof(double));
  const std::vector<Point> points =
      MakeUniformDataset(rows_in_block + 1000, kWide, 101).ToPoints();
  VamLoader loader(points);
  loader.Gather({0, 100});
  std::vector<VamRange> pieces;
  loader.SplitIntoPieces(loader.all(), /*piece_cap=*/rows_in_block, pieces);
  ASSERT_EQ(pieces.size(), 2u);
  for (size_t r = 0; r < points.size(); ++r) {
    const PointView row = loader.row(r);
    ASSERT_EQ(Point(row.begin(), row.end()), points[loader.slot(r)]) << r;
  }
}

TEST(VamPartitionFunctionsTest, VarianceDimAndSubtreeSizes) {
  const std::vector<Point> points = {
      {0.0, 0.0, 5.0}, {0.1, 1.0, 5.0}, {0.2, 3.0, 5.0}};
  const VamLoader loader(points);
  EXPECT_EQ(loader.MaxVarianceDim(loader.all()), 1);
  EXPECT_EQ(loader.MaxVarianceDim({0, 1}), 0);  // no spread: the first
  EXPECT_EQ(VamSubtreeCapacity(12, 31, 0), 12u);
  EXPECT_EQ(VamSubtreeCapacity(12, 31, 2), 12u * 31u * 31u);
  EXPECT_EQ(VamHeight(12, 31, 0), 0);
  EXPECT_EQ(VamHeight(12, 31, 12), 0);
  EXPECT_EQ(VamHeight(12, 31, 13), 1);
}

}  // namespace
}  // namespace srtree
