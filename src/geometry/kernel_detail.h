// Canonical scalar cores for every distance primitive the DistanceKernel
// exposes. These are THE reference semantics: one accumulator per output
// element, terms added in ascending dimension order, multiply-then-add with
// no FMA contraction (the kernel TUs compile with -ffp-contract=off). Every
// SIMD implementation vectorizes ACROSS block elements (one lane per
// element) and therefore performs, per element, exactly this sequence of
// rounded operations — which is what makes scalar and SIMD kernels
// bit-identical (see docs/ANALYSIS.md "Distance kernel & dispatch").
//
// Shared by: kernel.cc (the scalar bulk ops), kernel_avx2.cc /
// kernel_avx512.cc (the bounded-check chunk), rect.cc / sphere.cc (the
// geometry methods delegate here so there is a single source of truth), and
// the deprecated point.h wrappers.

#ifndef SRTREE_GEOMETRY_KERNEL_DETAIL_H_
#define SRTREE_GEOMETRY_KERNEL_DETAIL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace srtree::kernel_detail {

// Squared L2 distance, ascending-dimension accumulation.
inline double ScalarSquaredL2(const double* a, const double* b, size_t dim) {
  double sum = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double diff = a[d] - b[d];
    sum += diff * diff;
  }
  return sum;
}

// Squared MINDIST from point `q` to the box [lo, hi]; 0 when inside. The
// per-dimension contribution is max(lo-q, q-hi, 0), which equals the
// branchy clamp form exactly (including the empty-rect lo=+inf case).
inline double ScalarMinDistSqRect(const double* q, const double* lo,
                                  const double* hi, size_t dim) {
  double sum = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double diff = std::max(std::max(lo[d] - q[d], q[d] - hi[d]), 0.0);
    sum += diff * diff;
  }
  return sum;
}

// Squared distance from `q` to the farthest vertex of [lo, hi].
inline double ScalarMaxDistSqRect(const double* q, const double* lo,
                                  const double* hi, size_t dim) {
  double sum = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double diff = std::max(std::abs(q[d] - lo[d]), std::abs(hi[d] - q[d]));
    sum += diff * diff;
  }
  return sum;
}

// Distance from `q` to the surface of the ball (center, radius); 0 inside.
// sqrt is IEEE correctly rounded, so this too is impl-independent.
inline double ScalarSphereMinDist(const double* q, const double* center,
                                  size_t dim, double radius) {
  return std::max(0.0, std::sqrt(ScalarSquaredL2(q, center, dim)) - radius);
}

// Distance from `q` to the farthest point of the ball.
inline double ScalarSphereMaxDist(const double* q, const double* center,
                                  size_t dim, double radius) {
  return std::sqrt(ScalarSquaredL2(q, center, dim)) + radius;
}

// How many leading dimensions are accumulated between early-exit checks of
// the bounded (partial-distance pruning) forms. Shared by all impls so the
// *predicate* out[i] > bound_sq is checked at the same granularity, though
// only the predicate — not the partial value — is part of the contract.
inline constexpr size_t kBoundedCheckChunk = 16;

// Bounded squared L2 for one strided element of an SoA block: coordinate d
// lives at elem[d * stride]. Exact when the result is <= bound_sq; once a
// partial sum exceeds bound_sq the accumulation may stop (partial sums of
// squares are monotone, so the final value would exceed bound_sq too).
inline double ScalarSquaredL2BoundedStrided(const double* q, const double* elem,
                                            size_t stride, size_t dim,
                                            double bound_sq) {
  double sum = 0.0;
  size_t d = 0;
  while (d < dim) {
    const size_t end = std::min(d + kBoundedCheckChunk, dim);
    for (; d < end; ++d) {
      const double diff = elem[d * stride] - q[d];
      sum += diff * diff;
    }
    if (sum > bound_sq) break;
  }
  return sum;
}

}  // namespace srtree::kernel_detail

#endif  // SRTREE_GEOMETRY_KERNEL_DETAIL_H_
