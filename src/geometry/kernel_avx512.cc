// AVX-512 DistanceKernel implementation: 8 doubles per vector, one lane per
// block element, dimensions walked sequentially — bit-identical to the
// scalar kernel for the same reason as the AVX2 TU (see kernel_avx2.cc).
// The last, partial vector of a block runs the same code under a lane mask,
// so a page-sized block (count not a multiple of 8) needs no scalar tail
// loop: masked-off lanes load 0.0 without touching memory and are never
// stored.
// Compiled with -mavx512f -ffp-contract=off only when SRTREE_SIMD is on and
// the compiler supports it; the runtime CPUID check lives in kernel.cc.

#include "src/geometry/kernel.h"
#include "src/geometry/kernel_detail.h"

#if defined(SRTREE_KERNEL_BUILD_AVX512)

#include <immintrin.h>

namespace srtree::kernel_internal {
namespace {

constexpr size_t kLanes = 8;

// A vector of eight block elements: loads and stores go straight through.
struct FullLanes {
  __mmask8 mask() const { return 0xFF; }
  __m512d Load(const double* p) const { return _mm512_loadu_pd(p); }
  void Store(double* p, __m512d v) const { _mm512_storeu_pd(p, v); }
};

// The last vector of a block, holding its 1-7 remaining elements: loads
// and stores go through a lane mask.
struct TailLanes {
  explicit TailLanes(size_t active)
      : active_lanes(static_cast<__mmask8>((1u << active) - 1)) {}
  __mmask8 mask() const { return active_lanes; }
  __m512d Load(const double* p) const {
    return _mm512_maskz_loadu_pd(active_lanes, p);
  }
  void Store(double* p, __m512d v) const {
    _mm512_mask_storeu_pd(p, active_lanes, v);
  }

  __mmask8 active_lanes;
};

// Runs body(i, lanes) for the vector of elements [i, i + 8) of an n-element
// block, the last one masked when n is not a multiple of 8.
template <typename Body>
void ForEachVector(size_t n, Body&& body) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) body(i, FullLanes{});
  if (i < n) body(i, TailLanes(n - i));
}

void Avx512SquaredL2ToMany(const double* q, const SoaBlock& block,
                           double* out) {
  const size_t n = block.count;
  const size_t dim = static_cast<size_t>(block.dim);
  ForEachVector(n, [&](size_t i, const auto& lanes) {
    __m512d acc = _mm512_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m512d x = lanes.Load(block.coords + d * n + i);
      const __m512d diff = _mm512_sub_pd(x, _mm512_set1_pd(q[d]));
      acc = _mm512_add_pd(acc, _mm512_mul_pd(diff, diff));
    }
    lanes.Store(out + i, acc);
  });
}

void Avx512SquaredL2ToManyBounded(const double* q, const SoaBlock& block,
                                  double bound_sq, double* out) {
  const size_t n = block.count;
  const size_t dim = static_cast<size_t>(block.dim);
  const __m512d bound = _mm512_set1_pd(bound_sq);
  ForEachVector(n, [&](size_t i, const auto& lanes) {
    __m512d acc = _mm512_setzero_pd();
    size_t d = 0;
    while (d < dim) {
      const size_t end =
          std::min(d + kernel_detail::kBoundedCheckChunk, dim);
      for (; d < end; ++d) {
        const __m512d x = lanes.Load(block.coords + d * n + i);
        const __m512d diff = _mm512_sub_pd(x, _mm512_set1_pd(q[d]));
        acc = _mm512_add_pd(acc, _mm512_mul_pd(diff, diff));
      }
      // Stop only once every active lane's partial sum exceeds the bound.
      const __mmask8 over = _mm512_cmp_pd_mask(acc, bound, _CMP_GT_OQ);
      if ((over & lanes.mask()) == lanes.mask()) break;
    }
    lanes.Store(out + i, acc);
  });
}

void Avx512MinDistRectToMany(const double* q, const SoaBlock& lo,
                             const SoaBlock& hi, double* out) {
  const size_t n = lo.count;
  const size_t dim = static_cast<size_t>(lo.dim);
  const __m512d zero = _mm512_setzero_pd();
  ForEachVector(n, [&](size_t i, const auto& lanes) {
    __m512d acc = _mm512_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m512d qd = _mm512_set1_pd(q[d]);
      const __m512d below =
          _mm512_sub_pd(lanes.Load(lo.coords + d * n + i), qd);
      const __m512d above =
          _mm512_sub_pd(qd, lanes.Load(hi.coords + d * n + i));
      const __m512d diff = _mm512_max_pd(_mm512_max_pd(below, above), zero);
      acc = _mm512_add_pd(acc, _mm512_mul_pd(diff, diff));
    }
    lanes.Store(out + i, acc);
  });
}

void Avx512SphereMinDistToMany(const double* q, const SoaBlock& centers,
                               const double* radii, double* out) {
  const size_t n = centers.count;
  const size_t dim = static_cast<size_t>(centers.dim);
  const __m512d zero = _mm512_setzero_pd();
  ForEachVector(n, [&](size_t i, const auto& lanes) {
    __m512d acc = _mm512_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m512d x = lanes.Load(centers.coords + d * n + i);
      const __m512d diff = _mm512_sub_pd(x, _mm512_set1_pd(q[d]));
      acc = _mm512_add_pd(acc, _mm512_mul_pd(diff, diff));
    }
    const __m512d dist =
        _mm512_sub_pd(_mm512_sqrt_pd(acc), lanes.Load(radii + i));
    lanes.Store(out + i, _mm512_max_pd(dist, zero));
  });
}

constexpr KernelOps kAvx512Ops = {
    &Avx512SquaredL2ToMany,
    &Avx512SquaredL2ToManyBounded,
    &Avx512MinDistRectToMany,
    &Avx512SphereMinDistToMany,
};

}  // namespace

const KernelOps* GetAvx512Ops() { return &kAvx512Ops; }

}  // namespace srtree::kernel_internal

#else  // !defined(SRTREE_KERNEL_BUILD_AVX512)

namespace srtree::kernel_internal {
const KernelOps* GetAvx512Ops() { return nullptr; }
}  // namespace srtree::kernel_internal

#endif  // defined(SRTREE_KERNEL_BUILD_AVX512)
