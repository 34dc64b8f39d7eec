#include "src/index/vam_partition.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace srtree {

uint64_t VamSubtreeCapacity(size_t leaf_cap, size_t node_cap, int height) {
  uint64_t cap = leaf_cap;
  for (int h = 0; h < height; ++h) cap *= node_cap;
  return cap;
}

int VamHeight(size_t leaf_cap, size_t node_cap, uint64_t n) {
  int height = 0;
  while (VamSubtreeCapacity(leaf_cap, node_cap, height) < n) ++height;
  return height;
}

int MaxVarianceDim(const std::vector<Point>& points, VamItems items) {
  DCHECK(!items.empty());
  const size_t dims = points[items[0]].size();
  int best_dim = 0;
  double best_var = -1.0;
  for (size_t d = 0; d < dims; ++d) {
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

void SplitIntoPieces(const std::vector<Point>& points, VamItems items,
                     uint64_t piece_cap, std::vector<VamItems>& pieces) {
  if (items.size() <= piece_cap) {
    pieces.push_back(items);
    return;
  }
  const size_t dim = static_cast<size_t>(MaxVarianceDim(points, items));
  // The VAM split point: the multiple of the maximal-subtree capacity
  // closest to the median, so the left side packs full subtrees and the
  // total number of blocks is minimal.
  const uint64_t n = items.size();
  uint64_t mult = static_cast<uint64_t>(std::llround(
      static_cast<double>(n) / 2.0 / static_cast<double>(piece_cap)));
  mult = std::max<uint64_t>(mult, 1);
  uint64_t left = mult * piece_cap;
  if (left >= n) left = ((n - 1) / piece_cap) * piece_cap;
  CHECK_GT(left, 0u);
  CHECK_LT(left, n);

  std::nth_element(items.begin(), items.begin() + static_cast<ptrdiff_t>(left),
                   items.end(), [&](uint32_t a, uint32_t b) {
                     return points[a][dim] < points[b][dim];
                   });
  SplitIntoPieces(points, items.subspan(0, left), piece_cap, pieces);
  SplitIntoPieces(points, items.subspan(left), piece_cap, pieces);
}

}  // namespace srtree
