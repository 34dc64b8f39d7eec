// Points and Euclidean distance primitives.
//
// A point is a flat span of doubles; indices never own coordinate storage
// beyond their pages, so the cheap non-owning view keeps hot loops free of
// allocation. `Point` (an owning vector) is used at API boundaries.
//
// The free distance functions below are DEPRECATED thin wrappers over the
// DistanceKernel's canonical scalar cores (src/geometry/kernel_detail.h).
// Hot-path code calls the kernel (src/geometry/kernel.h) instead — batched
// over SoA blocks where possible, GetDistanceKernel().SquaredL2()/L2() for
// singles — and srlint rule R7 forbids the wrappers under the index-
// structure directories.

#ifndef SRTREE_GEOMETRY_POINT_H_
#define SRTREE_GEOMETRY_POINT_H_

#include <cmath>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/geometry/kernel_detail.h"

namespace srtree {

using Point = std::vector<double>;
using PointView = std::span<const double>;

// True when every coordinate is finite (no NaN, no infinity). Indexes
// reject other points at the API boundary: a NaN compares false against
// every bound, so a stored one is unreachable and a query with one prunes
// everything.
inline bool AllFinite(PointView p) {
  for (const double x : p) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// Squared L2 distance between two points of equal dimensionality.
[[deprecated("use GetDistanceKernel().SquaredL2() (src/geometry/kernel.h)")]]
inline double SquaredDistance(PointView a, PointView b) {
  DCHECK_EQ(a.size(), b.size());
  return kernel_detail::ScalarSquaredL2(a.data(), b.data(), a.size());
}

// L2 distance between two points of equal dimensionality.
[[deprecated("use GetDistanceKernel().L2() (src/geometry/kernel.h)")]]
inline double Distance(PointView a, PointView b) {
  DCHECK_EQ(a.size(), b.size());
  return std::sqrt(kernel_detail::ScalarSquaredL2(a.data(), b.data(),
                                                  a.size()));
}

}  // namespace srtree

#endif  // SRTREE_GEOMETRY_POINT_H_
