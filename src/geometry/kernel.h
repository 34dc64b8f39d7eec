// DistanceKernel: the single interface every index structure uses for
// distance and MINDIST work, with scalar, AVX2, and AVX-512 implementations
// selected once at startup by runtime CPUID dispatch.
//
// Design contract (docs/ANALYSIS.md "Distance kernel & dispatch"):
//
//  * Batched primitives consume SoA coordinate blocks (dimension-major:
//    coordinate d of element i at coords[d * count + i]) so SIMD lanes map
//    to block elements, not dimensions.
//  * Every implementation accumulates each output element in ascending
//    dimension order with a single accumulator and no FMA contraction, so
//    scalar / AVX2 / AVX-512 results are BIT-IDENTICAL — there is no
//    cross-implementation tolerance to manage, and the fuzz oracles stay
//    exact under SRTREE_FORCE_SCALAR_KERNEL differential runs.
//  * The SIMD implementations run the last, partial vector of a block (a
//    count that is not a lane multiple, as on every page) as one more
//    masked vector iteration, not a scalar loop; its active lanes do the
//    same rounded operations, so bit-identity holds at every count.
//  * The bounded form implements incremental partial-distance pruning: when
//    the running sum for an element exceeds bound_sq, accumulation may stop
//    early. out[i] is exact whenever out[i] <= bound_sq; otherwise only the
//    predicate out[i] > bound_sq is guaranteed (the value is some partial
//    sum that already exceeds the bound).
//
// Dispatch: GetDistanceKernel() picks AVX-512 > AVX2 > scalar among the
// implementations compiled in (SRTREE_SIMD) and supported by the CPU at
// startup; setting the environment variable SRTREE_FORCE_SCALAR_KERNEL=1
// forces the scalar kernel for differential testing.

#ifndef SRTREE_GEOMETRY_KERNEL_H_
#define SRTREE_GEOMETRY_KERNEL_H_

#include <cstddef>
#include <vector>

#include "src/common/check.h"
#include "src/geometry/point.h"
#include "src/geometry/rect.h"
#include "src/geometry/sphere.h"

namespace srtree {

enum class KernelImpl { kScalar, kAvx2, kAvx512 };

// Short lowercase name ("scalar", "avx2", "avx512") for logs and bench rows.
const char* KernelImplName(KernelImpl impl);

// A non-owning dimension-major (SoA) coordinate block: coordinate d of
// element i lives at coords[d * count + i].
struct SoaBlock {
  const double* coords = nullptr;
  size_t count = 0;
  int dim = 0;
};

// Owning, reusable SoA storage; Reset() keeps capacity across nodes so a
// whole traversal allocates O(1) times.
class SoaBuffer {
 public:
  // Shapes the buffer for `count` elements of dimension `dim` and returns
  // the mutable dimension-major storage (dim * count doubles).
  double* Reset(int dim, size_t count) {
    dim_ = dim;
    count_ = count;
    data_.resize(static_cast<size_t>(dim) * count);
    return data_.data();
  }

  // Scatters element `i`'s coordinates into the block columns.
  void SetElement(size_t i, PointView p) {
    DCHECK_EQ(static_cast<int>(p.size()), dim_);
    DCHECK_LT(i, count_);
    for (size_t d = 0; d < p.size(); ++d) data_[d * count_ + i] = p[d];
  }

  SoaBlock block() const { return SoaBlock{data_.data(), count_, dim_}; }

 private:
  std::vector<double> data_;
  size_t count_ = 0;
  int dim_ = 0;
};

// The per-implementation batched entry points. Internal: reach them through
// DistanceKernel, which owns validation and the pruning-mode switch.
struct KernelOps {
  void (*squared_l2_to_many)(const double* q, const SoaBlock& block,
                             double* out);
  void (*squared_l2_to_many_bounded)(const double* q, const SoaBlock& block,
                                     double bound_sq, double* out);
  void (*min_dist_rect_to_many)(const double* q, const SoaBlock& lo,
                                const SoaBlock& hi, double* out);
  void (*sphere_min_dist_to_many)(const double* q, const SoaBlock& centers,
                                  const double* radii, double* out);
};

class DistanceKernel {
 public:
  DistanceKernel(KernelImpl impl, const KernelOps& ops)
      : impl_(impl), ops_(ops) {}

  KernelImpl impl() const { return impl_; }
  const char* name() const { return KernelImplName(impl_); }

  // ---- Batched primitives (SoA blocks) ----

  // out[i] = squared L2 distance from `query` to block element i.
  void SquaredL2ToMany(PointView query, const SoaBlock& block,
                       double* out) const {
    DCHECK_EQ(static_cast<int>(query.size()), block.dim);
    ops_.squared_l2_to_many(query.data(), block, out);
  }

  // Partial-distance-pruning form; see the header comment for the exactness
  // contract. Degrades to the unbounded form when pruning is disabled via
  // SetPartialDistancePruning(false) (test hook).
  void SquaredL2ToManyBounded(PointView query, const SoaBlock& block,
                              double bound_sq, double* out) const;

  // out[i] = squared MINDIST from `query` to box [lo_i, hi_i]; 0 inside.
  void MinDistRectToMany(PointView query, const SoaBlock& lo,
                         const SoaBlock& hi, double* out) const {
    DCHECK_EQ(static_cast<int>(query.size()), lo.dim);
    DCHECK_EQ(lo.dim, hi.dim);
    DCHECK_EQ(lo.count, hi.count);
    ops_.min_dist_rect_to_many(query.data(), lo, hi, out);
  }

  // out[i] = max(0, ||query - center_i|| - radii[i]) — sphere MINDIST, in
  // distance (not squared) space like Sphere::MinDist.
  void SphereMinDistToMany(PointView query, const SoaBlock& centers,
                           const double* radii, double* out) const {
    DCHECK_EQ(static_cast<int>(query.size()), centers.dim);
    ops_.sphere_min_dist_to_many(query.data(), centers, radii, out);
  }

  // ---- Single-element forms ----
  // Canonical scalar order in every implementation (they are the block
  // semantics at count = 1), so they too are impl-independent.

  double SquaredL2(PointView a, PointView b) const;
  double L2(PointView a, PointView b) const;
  double MinDistSqToRect(PointView q, const Rect& rect) const;
  double MaxDistSqToRect(PointView q, const Rect& rect) const;
  double MinDistToSphere(PointView q, const Sphere& sphere) const;
  double MaxDistToSphere(PointView q, const Sphere& sphere) const;

 private:
  KernelImpl impl_;
  KernelOps ops_;
};

// The process-wide kernel, selected once (first call) from the compiled-in
// implementations: SRTREE_FORCE_SCALAR_KERNEL=1 > AVX-512 > AVX2 > scalar.
const DistanceKernel& GetDistanceKernel();

// A specific implementation, or nullptr when it is not compiled in or the
// CPU lacks the feature. For differential tests and benches.
const DistanceKernel* GetDistanceKernelFor(KernelImpl impl);

// Every implementation available on this build + machine (scalar always).
std::vector<KernelImpl> AvailableKernelImpls();

// Test hook: disabling partial-distance pruning makes every bounded call
// compute full exact distances (bound ignored). Global, atomic; used by the
// pruning-equivalence tests. Returns the previous value.
bool SetPartialDistancePruning(bool enabled);
bool PartialDistancePruningEnabled();

// --------------------------------------------------------------------------
// Per-query scratch: reusable buffers for transposing AoS node entries into
// SoA blocks. One instance per query impl, threaded through the traversal.

struct KernelScratch {
  SoaBuffer points;  // leaf points / sphere centers / rect lows
  SoaBuffer his;     // rect highs
  std::vector<double> radii;
  std::vector<double> dist;
  std::vector<double> dist2;
};

// Transposes `n` points (point_of(i) -> PointView) into scratch and fills
// scratch.dist with squared L2 distances from `query`, bounded by
// `bound_sq` (pass +inf for the unbounded form).
template <typename PointFn>
const std::vector<double>& BatchSquaredL2(KernelScratch& scratch,
                                          PointView query, size_t n,
                                          PointFn&& point_of,
                                          double bound_sq) {
  const DistanceKernel& kernel = GetDistanceKernel();
  scratch.points.Reset(static_cast<int>(query.size()), n);
  for (size_t i = 0; i < n; ++i) scratch.points.SetElement(i, point_of(i));
  scratch.dist.resize(n);
  kernel.SquaredL2ToManyBounded(query, scratch.points.block(), bound_sq,
                                scratch.dist.data());
  return scratch.dist;
}

// Block-direct form: the points already live in dimension-major order (for
// example a static-tier leaf page whose coordinates are serialized SoA), so
// no transpose is needed — the kernel reads straight from `block`. Fills
// scratch.dist like BatchSquaredL2.
inline const std::vector<double>& BatchSquaredL2FromBlock(
    KernelScratch& scratch, PointView query, const SoaBlock& block,
    double bound_sq) {
  scratch.dist.resize(block.count);
  GetDistanceKernel().SquaredL2ToManyBounded(query, block, bound_sq,
                                             scratch.dist.data());
  return scratch.dist;
}

// Block-direct rect MINDIST: `lo` and `hi` are pre-built dimension-major
// blocks (e.g. serialized inner-node bounds). Fills scratch.dist with
// squared MINDISTs.
inline const std::vector<double>& BatchRectMinDistSqFromBlocks(
    KernelScratch& scratch, PointView query, const SoaBlock& lo,
    const SoaBlock& hi) {
  scratch.dist.resize(lo.count);
  GetDistanceKernel().MinDistRectToMany(query, lo, hi, scratch.dist.data());
  return scratch.dist;
}

// Block-direct sphere MINDIST (distance space): `centers` is a pre-built
// dimension-major block, `radii` a plain array of block.count radii. Fills
// scratch.dist2 (so callers can combine with a rect pass in scratch.dist).
inline const std::vector<double>& BatchSphereMinDistFromBlock(
    KernelScratch& scratch, PointView query, const SoaBlock& centers,
    const double* radii) {
  scratch.dist2.resize(centers.count);
  GetDistanceKernel().SphereMinDistToMany(query, centers, radii,
                                          scratch.dist2.data());
  return scratch.dist2;
}

// Fills scratch.dist with squared MINDISTs from `query` to the rects
// rect_of(0..n).
template <typename RectFn>
const std::vector<double>& BatchRectMinDistSq(KernelScratch& scratch,
                                              PointView query, size_t n,
                                              RectFn&& rect_of) {
  const DistanceKernel& kernel = GetDistanceKernel();
  const int dim = static_cast<int>(query.size());
  scratch.points.Reset(dim, n);
  scratch.his.Reset(dim, n);
  for (size_t i = 0; i < n; ++i) {
    const Rect& r = rect_of(i);
    scratch.points.SetElement(i, r.lo());
    scratch.his.SetElement(i, r.hi());
  }
  scratch.dist.resize(n);
  kernel.MinDistRectToMany(query, scratch.points.block(), scratch.his.block(),
                           scratch.dist.data());
  return scratch.dist;
}

// Fills scratch.dist with sphere MINDISTs (distance space) from `query` to
// the spheres sphere_of(0..n).
template <typename SphereFn>
const std::vector<double>& BatchSphereMinDist(KernelScratch& scratch,
                                              PointView query, size_t n,
                                              SphereFn&& sphere_of) {
  const DistanceKernel& kernel = GetDistanceKernel();
  scratch.points.Reset(static_cast<int>(query.size()), n);
  scratch.radii.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Sphere& s = sphere_of(i);
    scratch.points.SetElement(i, s.center());
    scratch.radii[i] = s.radius();
  }
  scratch.dist.resize(n);
  kernel.SphereMinDistToMany(query, scratch.points.block(),
                             scratch.radii.data(), scratch.dist.data());
  return scratch.dist;
}

}  // namespace srtree

#endif  // SRTREE_GEOMETRY_KERNEL_H_
