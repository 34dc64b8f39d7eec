#include "src/index/vam_partition.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

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

VamLoader::VamLoader(const std::vector<Point>& points)
    : points_(points),
      dim_(points.empty() ? 0 : points[0].size()),
      slots_(points.size()) {
  CHECK_LE(points.size(), size_t{0xffffffff});
  std::iota(slots_.begin(), slots_.end(), 0);
}

void VamLoader::Gather(VamRange range) {
  if (Holds(range) || range.size() * dim_ * sizeof(double) > kGatherBytes) {
    return;
  }
  block_ = range;
  block_rows_.resize(range.size() * dim_);
  double* out = block_rows_.data();
  for (size_t r = range.begin; r < range.end; ++r, out += dim_) {
    const Point& p = points_[slots_[r]];
    DCHECK_EQ(p.size(), dim_);
    std::copy(p.begin(), p.end(), out);
  }
}

int VamLoader::MaxVarianceDim(VamRange range) const {
  DCHECK_GT(range.size(), 0u);
  // One pass with an accumulator pair per dimension: each dimension still
  // sums its rows in row order.
  std::vector<double> sum(dim_, 0.0), sum_sq(dim_, 0.0);
  for (size_t r = range.begin; r < range.end; ++r) {
    const PointView x = row(r);
    for (size_t d = 0; d < dim_; ++d) {
      sum[d] += x[d];
      sum_sq[d] += x[d] * x[d];
    }
  }
  const double n = static_cast<double>(range.size());
  int best_dim = 0;
  double best_var = -1.0;
  for (size_t d = 0; d < dim_; ++d) {
    const double mean = sum[d] / n;
    const double var = sum_sq[d] / n - mean * mean;
    if (var > best_var) {
      best_var = var;
      best_dim = static_cast<int>(d);
    }
  }
  return best_dim;
}

void VamLoader::SplitIntoPieces(VamRange range, uint64_t piece_cap,
                                std::vector<VamRange>& pieces) {
  if (range.size() <= piece_cap) {
    pieces.push_back(range);
    return;
  }
  Gather(range);
  const size_t dim = static_cast<size_t>(MaxVarianceDim(range));
  // The VAM split point: the multiple of the maximal-subtree capacity
  // closest to the median, so the left side packs full subtrees and the
  // total number of blocks is minimal.
  const uint64_t n = range.size();
  uint64_t mult = static_cast<uint64_t>(std::llround(
      static_cast<double>(n) / 2.0 / static_cast<double>(piece_cap)));
  mult = std::max<uint64_t>(mult, 1);
  uint64_t left = mult * piece_cap;
  if (left >= n) left = ((n - 1) / piece_cap) * piece_cap;
  CHECK_GT(left, 0u);
  CHECK_LT(left, n);

  {
    // The split key of each row, and the selection as a permutation of
    // row offsets; both are gone before the halves split.
    std::vector<double> key(n);
    for (size_t i = 0; i < n; ++i) key[i] = row(range.begin + i)[dim];
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::nth_element(
        order.begin(), order.begin() + static_cast<ptrdiff_t>(left),
        order.end(), [&](uint32_t a, uint32_t b) { return key[a] < key[b]; });
    Permute(range, order);
  }
  SplitIntoPieces({range.begin, range.begin + left}, piece_cap, pieces);
  SplitIntoPieces({range.begin + left, range.end}, piece_cap, pieces);
}

void VamLoader::Permute(VamRange range, std::vector<uint32_t>& order) {
  const bool held = Holds(range);
  if (!held && block_.begin < range.end && range.begin < block_.end) {
    block_ = VamRange{};  // its rows are about to move under it
  }
  const size_t bytes = dim_ * sizeof(double);
  const auto at = [&](size_t i) {
    return block_rows_.data() + (range.begin - block_.begin + i) * dim_;
  };
  uint32_t* const slots = slots_.data() + range.begin;
  std::vector<double> spare_row(held ? dim_ : 0);
  for (size_t start = 0; start < range.size(); ++start) {
    if (order[start] == start) continue;
    const uint32_t spare_slot = slots[start];
    if (held) std::memcpy(spare_row.data(), at(start), bytes);
    size_t to = start;
    while (order[to] != start) {
      const size_t from = order[to];
      order[to] = static_cast<uint32_t>(to);
      slots[to] = slots[from];
      if (held) std::memcpy(at(to), at(from), bytes);
      to = from;
    }
    order[to] = static_cast<uint32_t>(to);
    slots[to] = spare_slot;
    if (held) std::memcpy(at(to), spare_row.data(), bytes);
  }
}

}  // namespace srtree
