// The VAM partition's guarantees (src/index/vam_partition.h), checked
// through both bulk loads that use it: the VAMSplit R-tree and the static
// SR-tree tier. Rounding each split to a multiple of a maximal subtree's
// capacity gives the minimum number of leaves, and the build chooses the
// smallest height that holds the data. The row-order loader is checked
// slot for slot against the index-array partition it replaced, its node
// list against that partition's pieces, and builds on four workers page
// for page against builds on one.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
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
  // A tree of dimensionality `dim` on `page_size`-byte pages.
  std::function<std::unique_ptr<PointIndex>(int dim, size_t page_size)>
      make_sized;
  std::unique_ptr<PointIndex> make() const { return make_sized(kDim, 1024); }
};

// Without this gtest prints the case as its raw bytes (the string's and the
// function's heap pointers), which puts addresses into each ctest name.
void PrintTo(const LoaderCase& loader, std::ostream* os) { *os << loader.name; }

std::vector<LoaderCase> Loaders() {
  return {
      {"VamSplitRTree",
       [](int dim, size_t page_size) {
         VamSplitRTree::Options options;
         options.dim = dim;
         options.page_size = page_size;
         options.leaf_data_size = 0;
         return std::make_unique<VamSplitRTree>(options);
       }},
      {"StaticSRTree",
       [](int dim, size_t page_size) {
         StaticSRTree::Options options;
         options.dim = dim;
         options.page_size = page_size;
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

// The saved image of a bulk load of `points` run on at most `workers`.
std::string BuildImage(const LoaderCase& loader,
                       const std::vector<Point>& points, size_t workers) {
  SetVamWorkersForTest(workers);
  const std::unique_ptr<PointIndex> tree =
      loader.make_sized(static_cast<int>(points[0].size()), 8192);
  std::vector<uint32_t> oids(points.size());
  std::iota(oids.begin(), oids.end(), 0);
  const Status load = tree->BulkLoad(points, oids);
  SetVamWorkersForTest(0);
  EXPECT_TRUE(load.ok()) << load.ToString();
  const std::string path = ::testing::TempDir() + "vam_parallel_" +
                           loader.name + "_" + std::to_string(workers);
  const Status save = tree->Save(path);
  EXPECT_TRUE(save.ok()) << save.ToString();
  std::ifstream in(path, std::ios::binary);
  std::string image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return image;
}

// Workers build disjoint subtrees at once, each in its own gather block;
// every page must be the one a single worker writes. With D = 64 the rows
// span more than three blocks, so workers run both on their blocks and
// through the slots; with D = 4 one block holds every row, so a worker
// that keeps its block when it takes over rows another worker has split
// reads them stale. 200,000 rows make enough tasks that the worker holding
// the root's rows takes one on almost every build. (With fewer CPUs than
// four, the walk runs on all.)
TEST_P(VamPartitionTest, ParallelBuildMatchesSerialBuild) {
  const size_t wide_rows_in_block =
      VamLoader::kGatherBytes / (64 * sizeof(double));
  const std::vector<std::pair<int, size_t>> shapes = {
      {64, 3 * wide_rows_in_block + 1}, {kDim, 200000}};
  for (const auto& [dim, n] : shapes) {
    SCOPED_TRACE("dim=" + std::to_string(dim) + " n=" + std::to_string(n));
    HistogramConfig config;
    config.n = n;
    config.dim = dim;
    config.seed = 103;
    const std::vector<Point> points = MakeHistogramDataset(config).ToPoints();

    const std::string serial = BuildImage(GetParam(), points, 1);
    ASSERT_FALSE(serial.empty());
    for (const size_t workers : {1, 4, 1, 4, 4}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      const std::string image = BuildImage(GetParam(), points, workers);
      ASSERT_EQ(image.size(), serial.size());
      EXPECT_TRUE(image == serial);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothLoaders, VamPartitionTest,
                         ::testing::ValuesIn(Loaders()),
                         [](const ::testing::TestParamInfo<LoaderCase>& info) {
                           return info.param.name;
                         });

// A walk over a one-level tree: the root's children, the leaves, are
// exactly the pieces of at most `cap` rows that the loader splits all rows
// into. The walk runs on the workers a bulk load gets.
struct WalkedPieces {
  std::vector<VamRange> pieces;  // left to right
  std::vector<uint32_t> slots;   // the walk's result
};

WalkedPieces WalkPieces(const std::vector<Point>& points, uint64_t cap) {
  const size_t n = points.size();
  const VamLayout layout(n, cap,
                         /*node_cap=*/std::max<size_t>((n + cap - 1) / cap, 2));
  // Each leaf's rows as its hook reads them; each must be its slot's point.
  std::vector<std::vector<Point>> seen(layout.nodes.size());
  WalkedPieces walked;
  walked.slots = VamLoader::Walk(
      points, layout, [&](size_t node, const VamLoader::Rows& rows) {
        if (layout.nodes[node].level != 0) return;
        rows.ForEach(layout.nodes[node].range, [&](size_t, PointView p) {
          seen[node].emplace_back(p.begin(), p.end());
        });
      });
  EXPECT_EQ(walked.slots.size(), n);
  for (size_t i = 0; i < layout.nodes.size(); ++i) {
    const VamNode& node = layout.nodes[i];
    if (node.level != 0) continue;
    walked.pieces.push_back(node.range);
    for (size_t r = node.range.begin; r < node.range.end; ++r) {
      EXPECT_EQ(seen[i][r - node.range.begin], points[walked.slots[r]])
          << "row " << r;
    }
  }
  return walked;
}

std::span<const uint32_t> SlotsOf(const WalkedPieces& walked,
                                  VamRange range) {
  return std::span<const uint32_t>(walked.slots)
      .subspan(range.begin, range.size());
}

// Every piece but the last holds exactly `piece_cap` rows, and the pieces
// tile the rows in order.
TEST(VamPartitionFunctionsTest, PiecesPackFullSubtreesLeftToRight) {
  const Dataset data = MakeUniformDataset(1000, kDim, /*seed=*/71);
  const std::vector<Point> points = data.ToPoints();
  const WalkedPieces walked = WalkPieces(points, /*cap=*/64);
  const std::vector<VamRange>& pieces = walked.pieces;
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
  std::vector<uint32_t> sorted = walked.slots;
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

// Walks `points` and splits them with the reference; the pieces must
// match slot for slot, and every row must hold its slot's point.
void ExpectPiecesMatchReference(const std::vector<Point>& points,
                                uint64_t cap) {
  std::vector<uint32_t> items = Iota(points.size());
  std::vector<RefItems> ref;
  RefSplitIntoPieces(points, items, cap, ref);

  const WalkedPieces walked = WalkPieces(points, cap);
  ASSERT_EQ(walked.pieces.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    const std::span<const uint32_t> got = SlotsOf(walked, walked.pieces[i]);
    ASSERT_TRUE(
        std::equal(got.begin(), got.end(), ref[i].begin(), ref[i].end()))
        << "piece " << i;
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

// The node list laid out from (n, caps) alone is the tree the reference
// partition builds: each inner node's children are the pieces the
// reference splits its rows into, breadth-first, over the n grid above.
TEST(VamPartitionFunctionsTest, LayoutMatchesTheReferencePieces) {
  for (const uint64_t cap : {1u, 7u, 12u, 64u}) {
    for (const uint64_t mult : {1u, 3u, 16u}) {
      for (const uint64_t n : {mult * cap - 1, mult * cap, mult * cap + 1}) {
        if (n == 0) continue;
        for (const size_t node_cap : {size_t{2}, size_t{5}}) {
          SCOPED_TRACE("leaf_cap=" + std::to_string(cap) + " node_cap=" +
                       std::to_string(node_cap) + " n=" + std::to_string(n));
          const std::vector<Point> points =
              MakeUniformDataset(n, kDim, 79).ToPoints();
          std::vector<uint32_t> items = Iota(n);
          const VamLayout layout(n, cap, node_cap);
          ASSERT_EQ(layout.nodes[0].range, (VamRange{0, n}));
          ASSERT_EQ(layout.nodes[0].level, VamHeight(cap, node_cap, n));
          size_t next = 1;  // breadth-first: children follow in list order
          size_t leaf_rows = 0;
          for (const VamNode& node : layout.nodes) {
            if (node.level == 0) {
              EXPECT_LE(node.range.size(), cap);
              EXPECT_EQ(node.range.begin, leaf_rows);
              leaf_rows = node.range.end;
              continue;
            }
            std::vector<RefItems> ref;
            RefSplitIntoPieces(points,
                               RefItems(items).subspan(node.range.begin,
                                                       node.range.size()),
                               layout.piece_cap(node), ref);
            ASSERT_EQ(node.first_child, next);
            ASSERT_EQ(node.child_count, ref.size());
            for (size_t i = 0; i < ref.size(); ++i) {
              const VamNode& child = layout.nodes[node.first_child + i];
              const size_t begin =
                  static_cast<size_t>(ref[i].data() - items.data());
              EXPECT_EQ(child.range, (VamRange{begin, begin + ref[i].size()}));
              EXPECT_EQ(child.level, node.level - 1);
            }
            next += node.child_count;
          }
          EXPECT_EQ(next, layout.nodes.size());
          EXPECT_EQ(leaf_rows, n);
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

// The root's rows reach past the block and split through their slots;
// its left piece fills the block exactly and its right piece fits too.
TEST(VamPartitionFunctionsTest, SplitAroundTheBlockKeepsRowsTrue) {
  constexpr int kWide = 64;
  const size_t rows_in_block =
      VamLoader::kGatherBytes / (kWide * sizeof(double));
  const std::vector<Point> points =
      MakeUniformDataset(rows_in_block + 1000, kWide, 101).ToPoints();
  ExpectPiecesMatchReference(points, /*cap=*/rows_in_block);
}

// The split dimension is the one of highest variance, the first of equal
// ones: the left piece of two holds the two rows lowest along it.
TEST(VamPartitionFunctionsTest, VarianceDimAndSubtreeSizes) {
  const auto left_piece = [](const std::vector<Point>& points) {
    const WalkedPieces walked = WalkPieces(points, /*cap=*/2);
    EXPECT_EQ(walked.pieces.size(), 2u);
    const std::span<const uint32_t> left = SlotsOf(walked, walked.pieces[0]);
    std::vector<uint32_t> slots(left.begin(), left.end());
    std::sort(slots.begin(), slots.end());
    return slots;
  };
  // Dimension 1 spreads most.
  EXPECT_EQ(left_piece({{0.0, 30.0}, {0.1, 0.0}, {0.2, 20.0}, {0.3, 10.0}}),
            (std::vector<uint32_t>{1, 3}));
  // Both dimensions spread alike: dimension 0.
  EXPECT_EQ(left_piece({{0.0, 3.0}, {1.0, 0.0}, {2.0, 2.0}, {3.0, 1.0}}),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(VamSubtreeCapacity(12, 31, 0), 12u);
  EXPECT_EQ(VamSubtreeCapacity(12, 31, 2), 12u * 31u * 31u);
  EXPECT_EQ(VamHeight(12, 31, 0), 0);
  EXPECT_EQ(VamHeight(12, 31, 12), 0);
  EXPECT_EQ(VamHeight(12, 31, 13), 1);
}

}  // namespace
}  // namespace srtree
