// AVX2 DistanceKernel implementation: 4 doubles per vector, one lane per
// block element, dimensions walked sequentially — so each lane performs
// exactly the scalar accumulation sequence and results are bit-identical to
// the scalar kernel (see kernel_detail.h). The last, partial vector of a
// block runs the same code under a lane mask, so a page-sized block (count
// not a multiple of 4) needs no scalar tail loop: masked-off lanes load 0.0
// without touching memory and are never stored. This TU is compiled with
// -mavx2 -ffp-contract=off only when SRTREE_SIMD is on and the compiler
// supports it; otherwise it degrades to the nullptr registration below. The
// runtime CPUID check lives in kernel.cc, so merely building this code never
// executes it on unsupported hardware.

#include "src/geometry/kernel.h"
#include "src/geometry/kernel_detail.h"

#if defined(SRTREE_KERNEL_BUILD_AVX2)

#include <immintrin.h>

namespace srtree::kernel_internal {
namespace {

constexpr size_t kLanes = 4;

// A vector of four block elements: loads and stores go straight through.
struct FullLanes {
  int bits() const { return 0xF; }  // movemask bits of the active lanes
  __m256d Load(const double* p) const { return _mm256_loadu_pd(p); }
  void Store(double* p, __m256d v) const { _mm256_storeu_pd(p, v); }
};

// The last vector of a block, holding its 1-3 remaining elements: loads
// and stores go through a lane mask. vmaskmovpd costs more than a plain
// load on most cores, so only this one vector per block pays for it.
struct TailLanes {
  explicit TailLanes(size_t active)
      : mask(_mm256_cmpgt_epi64(
            _mm256_set1_epi64x(static_cast<long long>(active)),
            _mm256_setr_epi64x(0, 1, 2, 3))),
        active_bits((1 << active) - 1) {}
  int bits() const { return active_bits; }
  __m256d Load(const double* p) const { return _mm256_maskload_pd(p, mask); }
  void Store(double* p, __m256d v) const { _mm256_maskstore_pd(p, mask, v); }

  __m256i mask;
  int active_bits;
};

// Runs body(i, lanes) for the vector of elements [i, i + 4) of an n-element
// block, the last one masked when n is not a multiple of 4.
template <typename Body>
void ForEachVector(size_t n, Body&& body) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) body(i, FullLanes{});
  if (i < n) body(i, TailLanes(n - i));
}

void Avx2SquaredL2ToMany(const double* q, const SoaBlock& block,
                         double* out) {
  const size_t n = block.count;
  const size_t dim = static_cast<size_t>(block.dim);
  ForEachVector(n, [&](size_t i, const auto& lanes) {
    __m256d acc = _mm256_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m256d x = lanes.Load(block.coords + d * n + i);
      const __m256d diff = _mm256_sub_pd(x, _mm256_set1_pd(q[d]));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
    }
    lanes.Store(out + i, acc);
  });
}

void Avx2SquaredL2ToManyBounded(const double* q, const SoaBlock& block,
                                double bound_sq, double* out) {
  const size_t n = block.count;
  const size_t dim = static_cast<size_t>(block.dim);
  const __m256d bound = _mm256_set1_pd(bound_sq);
  ForEachVector(n, [&](size_t i, const auto& lanes) {
    __m256d acc = _mm256_setzero_pd();
    size_t d = 0;
    while (d < dim) {
      const size_t end =
          std::min(d + kernel_detail::kBoundedCheckChunk, dim);
      for (; d < end; ++d) {
        const __m256d x = lanes.Load(block.coords + d * n + i);
        const __m256d diff = _mm256_sub_pd(x, _mm256_set1_pd(q[d]));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
      }
      // Stop only once every active lane's partial sum exceeds the bound:
      // lanes still under it keep accumulating their exact values.
      const int over =
          _mm256_movemask_pd(_mm256_cmp_pd(acc, bound, _CMP_GT_OQ));
      if ((over & lanes.bits()) == lanes.bits()) break;
    }
    lanes.Store(out + i, acc);
  });
}

void Avx2MinDistRectToMany(const double* q, const SoaBlock& lo,
                           const SoaBlock& hi, double* out) {
  const size_t n = lo.count;
  const size_t dim = static_cast<size_t>(lo.dim);
  const __m256d zero = _mm256_setzero_pd();
  ForEachVector(n, [&](size_t i, const auto& lanes) {
    __m256d acc = _mm256_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m256d qd = _mm256_set1_pd(q[d]);
      const __m256d below =
          _mm256_sub_pd(lanes.Load(lo.coords + d * n + i), qd);
      const __m256d above =
          _mm256_sub_pd(qd, lanes.Load(hi.coords + d * n + i));
      const __m256d diff = _mm256_max_pd(_mm256_max_pd(below, above), zero);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
    }
    lanes.Store(out + i, acc);
  });
}

void Avx2SphereMinDistToMany(const double* q, const SoaBlock& centers,
                             const double* radii, double* out) {
  const size_t n = centers.count;
  const size_t dim = static_cast<size_t>(centers.dim);
  const __m256d zero = _mm256_setzero_pd();
  ForEachVector(n, [&](size_t i, const auto& lanes) {
    __m256d acc = _mm256_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m256d x = lanes.Load(centers.coords + d * n + i);
      const __m256d diff = _mm256_sub_pd(x, _mm256_set1_pd(q[d]));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
    }
    // IEEE sqrt is correctly rounded, so this stays bit-identical to the
    // scalar max(0, sqrt(sq) - r).
    const __m256d dist =
        _mm256_sub_pd(_mm256_sqrt_pd(acc), lanes.Load(radii + i));
    lanes.Store(out + i, _mm256_max_pd(dist, zero));
  });
}

constexpr KernelOps kAvx2Ops = {
    &Avx2SquaredL2ToMany,
    &Avx2SquaredL2ToManyBounded,
    &Avx2MinDistRectToMany,
    &Avx2SphereMinDistToMany,
};

}  // namespace

const KernelOps* GetAvx2Ops() { return &kAvx2Ops; }

}  // namespace srtree::kernel_internal

#else  // !defined(SRTREE_KERNEL_BUILD_AVX2)

namespace srtree::kernel_internal {
const KernelOps* GetAvx2Ops() { return nullptr; }
}  // namespace srtree::kernel_internal

#endif  // defined(SRTREE_KERNEL_BUILD_AVX2)
