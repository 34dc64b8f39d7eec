// Differential tests for the DistanceKernel implementations.
//
// Four layers of checking:
//  1. Accuracy: every available implementation against a long-double
//     reference, across dimensionalities that straddle the SIMD lane and
//     chunk boundaries and across adversarial input classes (subnormal
//     products, large magnitudes, duplicate coordinates).
//  2. Bit-exactness: every SIMD implementation must agree with scalar
//     BIT-FOR-BIT on the unbounded primitives — the kernels vectorize
//     across block elements, never across dimensions, precisely so that
//     this holds (see src/geometry/kernel.h).
//  3. The bounded (partial-distance-pruning) contract: out[i] is exact
//     whenever the true distance is within the bound, and the predicate
//     out[i] > bound_sq always agrees with the exact distance — on every
//     implementation, for every bound.
//  Layers 2 and 3 sweep every block size from 0 to 17, so each SIMD
//  implementation runs every partial-vector (masked tail) length, and check
//  that no op writes past the block's last output.
//  4. End to end: toggling partial-distance pruning leaves the results of
//     every index type's kNN / best-first / range search unchanged.

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/geometry/kernel.h"
#include "src/geometry/kernel_detail.h"
#include "src/geometry/point.h"
#include "src/index/index_factory.h"

namespace srtree {
namespace {

// Dimensionalities chosen to straddle the AVX2 (4-lane) and AVX-512
// (8-lane) block widths and the bounded kernel's check-chunk length.
const int kDims[] = {1,  2,  3,  4,  5,  7,  8,  9,  15, 16, 17,
                     31, 32, 33, 48, 63, 64, 65, 100, 128, 256};
constexpr size_t kCount = 37;  // not a lane multiple: exercises tails
// Every block size up to two AVX-512 vectors plus one element, which covers
// each masked tail length of both SIMD widths, and kCount.
std::vector<size_t> SweptCounts() {
  std::vector<size_t> counts;
  for (size_t n = 0; n <= 17; ++n) counts.push_back(n);
  counts.push_back(kCount);
  return counts;
}

// Output slots past the block's end, which no op may write.
constexpr size_t kGuardSlots = 8;
constexpr double kGuardValue = -12345.0;

enum class InputClass { kRandom, kSubnormal, kLargeMagnitude, kDuplicate };

const InputClass kInputClasses[] = {
    InputClass::kRandom, InputClass::kSubnormal, InputClass::kLargeMagnitude,
    InputClass::kDuplicate};

const char* InputClassName(InputClass c) {
  switch (c) {
    case InputClass::kRandom: return "random";
    case InputClass::kSubnormal: return "subnormal";
    case InputClass::kLargeMagnitude: return "large-magnitude";
    case InputClass::kDuplicate: return "duplicate-coordinate";
  }
  return "?";
}

double Coord(InputClass c, Xoshiro256& rng) {
  switch (c) {
    case InputClass::kRandom:
      return rng.NextDouble() * 2.0 - 1.0;
    case InputClass::kSubnormal:
      // Coordinates ~1e-160 are normal but their squares (~1e-320) are
      // subnormal, exercising gradual underflow in the accumulation.
      return (rng.NextDouble() * 2.0 - 1.0) * 1e-160;
    case InputClass::kLargeMagnitude:
      // Squares near 1e300; even a 256-dim sum stays finite.
      return (rng.NextDouble() * 2.0 - 1.0) * 1e150;
    case InputClass::kDuplicate:
      // Few distinct values: many exact-zero per-dimension differences and
      // many exactly-tied block elements.
      return static_cast<double>(static_cast<int>(rng.NextDouble() * 3.0));
  }
  return 0.0;
}

Point MakePoint(InputClass c, int dim, Xoshiro256& rng) {
  Point p(static_cast<size_t>(dim));
  for (double& v : p) v = Coord(c, rng);
  return p;
}

// Long-double references, accumulated in the same ascending-dimension
// order the kernels use.
long double RefSquaredL2(PointView a, PointView b) {
  long double sum = 0.0L;
  for (size_t d = 0; d < a.size(); ++d) {
    const long double diff =
        static_cast<long double>(a[d]) - static_cast<long double>(b[d]);
    sum += diff * diff;
  }
  return sum;
}

long double RefMinDistSqRect(PointView q, PointView lo, PointView hi) {
  long double sum = 0.0L;
  for (size_t d = 0; d < q.size(); ++d) {
    long double delta = 0.0L;
    if (q[d] < lo[d]) delta = static_cast<long double>(lo[d]) - q[d];
    if (q[d] > hi[d]) delta = static_cast<long double>(q[d]) - hi[d];
    sum += delta * delta;
  }
  return sum;
}

// Tolerance for a dim-term double sum vs the long-double reference: each of
// the ~dim roundings contributes at most one ulp of relative error, plus
// half an ulp of absolute error per term when the intermediate products are
// subnormal (gradual underflow).
double SumTolerance(int dim, long double ref) {
  const double rel = static_cast<double>(dim + 4) * DBL_EPSILON;
  const double subnormal_slack =
      static_cast<double>(dim + 4) * 4.9406564584124654e-324;
  return rel * static_cast<double>(ref) + subnormal_slack;
}

// Tolerance for sphere MINDIST (distance space). The error in the squared
// sum propagates through sqrt as e / (2 sqrt(s)) for normal sums but as up
// to sqrt(e) when the sum itself underflows, and the final subtraction
// contributes one ulp of the distance magnitude.
double SphereTolerance(int dim, long double ref_dist, double radius) {
  const double scale =
      static_cast<double>(ref_dist) + std::fabs(radius) + DBL_MIN;
  const double rel = static_cast<double>(dim + 8) * DBL_EPSILON * scale;
  const double underflow_slack = std::sqrt(
      static_cast<double>(dim + 8) * 4.9406564584124654e-324);
  return rel + underflow_slack;
}

struct Blocks {
  Point query;
  SoaBuffer points;  // also sphere centers / rect lows
  SoaBuffer highs;
  std::vector<double> radii;
  std::vector<Point> aos_lo, aos_hi;  // AoS copies for the references
};

Blocks MakeBlocks(InputClass c, int dim, uint64_t seed,
                  size_t count = kCount) {
  Xoshiro256 rng(seed);
  Blocks b;
  b.query = MakePoint(c, dim, rng);
  b.points.Reset(dim, count);
  b.highs.Reset(dim, count);
  b.radii.resize(count);
  for (size_t i = 0; i < count; ++i) {
    Point lo = MakePoint(c, dim, rng);
    Point hi = lo;
    for (int d = 0; d < dim; ++d) {
      const double other = Coord(c, rng);
      const size_t ud = static_cast<size_t>(d);
      lo[ud] = std::min(lo[ud], other);
      hi[ud] = std::max(hi[ud], other);
    }
    if (c == InputClass::kDuplicate && i % 5 == 0) {
      // Zero-distance elements: the query itself as point / rect / center.
      lo = b.query;
      hi = b.query;
    }
    b.points.SetElement(i, lo);
    b.highs.SetElement(i, hi);
    b.radii[i] = std::fabs(Coord(c, rng));
    b.aos_lo.push_back(std::move(lo));
    b.aos_hi.push_back(std::move(hi));
  }
  return b;
}

std::string CaseLabel(InputClass c, int dim, const DistanceKernel& kernel) {
  return std::string(InputClassName(c)) + " dim=" + std::to_string(dim) +
         " impl=" + kernel.name();
}

TEST(KernelDifferentialTest, MatchesLongDoubleReference) {
  for (const InputClass c : kInputClasses) {
    for (const int dim : kDims) {
      const Blocks b = MakeBlocks(c, dim, 1000 + static_cast<uint64_t>(dim));
      for (const KernelImpl impl : AvailableKernelImpls()) {
        const DistanceKernel* kernel = GetDistanceKernelFor(impl);
        ASSERT_NE(kernel, nullptr);
        const std::string label = CaseLabel(c, dim, *kernel);
        std::vector<double> out(kCount);

        kernel->SquaredL2ToMany(b.query, b.points.block(), out.data());
        for (size_t i = 0; i < kCount; ++i) {
          const long double ref = RefSquaredL2(b.query, b.aos_lo[i]);
          EXPECT_NEAR(out[i], static_cast<double>(ref),
                      SumTolerance(dim, ref))
              << label << " squared_l2 i=" << i;
        }

        kernel->MinDistRectToMany(b.query, b.points.block(), b.highs.block(),
                                  out.data());
        for (size_t i = 0; i < kCount; ++i) {
          const long double ref =
              RefMinDistSqRect(b.query, b.aos_lo[i], b.aos_hi[i]);
          EXPECT_NEAR(out[i], static_cast<double>(ref),
                      SumTolerance(dim, ref))
              << label << " rect_mindist i=" << i;
        }

        kernel->SphereMinDistToMany(b.query, b.points.block(),
                                    b.radii.data(), out.data());
        for (size_t i = 0; i < kCount; ++i) {
          const long double dist = sqrtl(RefSquaredL2(b.query, b.aos_lo[i]));
          const long double md = dist - static_cast<long double>(b.radii[i]);
          const long double ref = md > 0.0L ? md : 0.0L;
          EXPECT_NEAR(out[i], static_cast<double>(ref),
                      SphereTolerance(dim, dist, b.radii[i]))
              << label << " sphere_mindist i=" << i;
        }
      }
    }
  }
}

// A fresh output buffer: `count` slots followed by kGuardSlots guards.
std::vector<double> GuardedOut(size_t count) {
  return std::vector<double>(count + kGuardSlots, kGuardValue);
}

void ExpectGuardsIntact(const std::vector<double>& out, size_t count,
                        const std::string& label) {
  for (size_t i = count; i < out.size(); ++i) {
    EXPECT_EQ(out[i], kGuardValue) << label << " wrote past the block, i=" << i;
  }
}

TEST(KernelDifferentialTest, SimdBitIdenticalToScalar) {
  const DistanceKernel* scalar = GetDistanceKernelFor(KernelImpl::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (const size_t count : SweptCounts()) {
    for (const InputClass c : kInputClasses) {
      for (const int dim : kDims) {
        const Blocks b = MakeBlocks(c, dim, 2000 + static_cast<uint64_t>(dim),
                                    count);
        // A bound inside the block's distance range, so the bounded op both
        // stops early and runs to the end.
        std::vector<double> exact(count);
        scalar->SquaredL2ToMany(b.query, b.points.block(), exact.data());
        const double bound = count == 0 ? 0.0 : exact[count / 2];
        for (const KernelImpl impl : AvailableKernelImpls()) {
          if (impl == KernelImpl::kScalar) continue;
          const DistanceKernel* kernel = GetDistanceKernelFor(impl);
          ASSERT_NE(kernel, nullptr);
          const std::string label = CaseLabel(c, dim, *kernel) +
                                    " count=" + std::to_string(count);
          std::vector<double> want = GuardedOut(count);
          std::vector<double> got = GuardedOut(count);

          scalar->SquaredL2ToMany(b.query, b.points.block(), want.data());
          kernel->SquaredL2ToMany(b.query, b.points.block(), got.data());
          for (size_t i = 0; i < count; ++i) {
            EXPECT_EQ(want[i], got[i]) << label << " squared_l2 i=" << i;
          }
          ExpectGuardsIntact(got, count, label + " squared_l2");

          // Bounded: bit-identical wherever the scalar result is within the
          // bound; beyond it both sides only promise the predicate.
          scalar->SquaredL2ToManyBounded(b.query, b.points.block(), bound,
                                         want.data());
          kernel->SquaredL2ToManyBounded(b.query, b.points.block(), bound,
                                         got.data());
          for (size_t i = 0; i < count; ++i) {
            if (want[i] <= bound) {
              EXPECT_EQ(want[i], got[i])
                  << label << " squared_l2_bounded i=" << i;
            } else {
              EXPECT_GT(got[i], bound)
                  << label << " squared_l2_bounded i=" << i;
            }
          }
          ExpectGuardsIntact(got, count, label + " squared_l2_bounded");

          scalar->MinDistRectToMany(b.query, b.points.block(),
                                    b.highs.block(), want.data());
          kernel->MinDistRectToMany(b.query, b.points.block(),
                                    b.highs.block(), got.data());
          for (size_t i = 0; i < count; ++i) {
            EXPECT_EQ(want[i], got[i]) << label << " rect_mindist i=" << i;
          }
          ExpectGuardsIntact(got, count, label + " rect_mindist");

          scalar->SphereMinDistToMany(b.query, b.points.block(),
                                      b.radii.data(), want.data());
          kernel->SphereMinDistToMany(b.query, b.points.block(),
                                      b.radii.data(), got.data());
          for (size_t i = 0; i < count; ++i) {
            EXPECT_EQ(want[i], got[i]) << label << " sphere_mindist i=" << i;
          }
          ExpectGuardsIntact(got, count, label + " sphere_mindist");
        }
      }
    }
  }
}

TEST(KernelDifferentialTest, BoundedContractHoldsOnEveryImplementation) {
  for (const size_t count : SweptCounts()) {
    for (const InputClass c : kInputClasses) {
      for (const int dim : kDims) {
        const Blocks b = MakeBlocks(c, dim, 3000 + static_cast<uint64_t>(dim),
                                    count);
        // Exact distances, for the contract's right-hand side. Any
        // implementation works: the unbounded op is bit-identical
        // everywhere.
        std::vector<double> exact(count);
        GetDistanceKernel().SquaredL2ToMany(b.query, b.points.block(),
                                            exact.data());
        // Bounds from strict to permissive, including both extremes and
        // bounds that land exactly on block distances (ties must stay
        // exact).
        std::vector<double> bounds = {0.0,
                                      std::numeric_limits<double>::infinity()};
        for (size_t i = 0; i < count; i += 7) bounds.push_back(exact[i]);
        for (const KernelImpl impl : AvailableKernelImpls()) {
          const DistanceKernel* kernel = GetDistanceKernelFor(impl);
          ASSERT_NE(kernel, nullptr);
          for (const double bound : bounds) {
            std::vector<double> out = GuardedOut(count);
            kernel->SquaredL2ToManyBounded(b.query, b.points.block(), bound,
                                           out.data());
            const std::string prefix = CaseLabel(c, dim, *kernel) +
                                       " count=" + std::to_string(count) +
                                       " bound=" + std::to_string(bound);
            for (size_t i = 0; i < count; ++i) {
              const std::string label = prefix + " i=" + std::to_string(i);
              if (exact[i] <= bound) {
                // The partial sums are monotone, so none can exceed the
                // bound and the result must be the full exact distance.
                EXPECT_EQ(out[i], exact[i]) << label;
              } else {
                // Beyond the bound only the predicate is promised.
                EXPECT_GT(out[i], bound) << label;
              }
            }
            ExpectGuardsIntact(out, count, prefix);
          }
        }
      }
    }
  }
}

// When every element of a block exceeds the bound within the first check
// chunk, every implementation stops after that chunk. The last vector's
// masked-off lanes (which read 0.0, never above the bound) must not hold
// its active lanes back, so the tail too returns the one-chunk partial sum.
TEST(KernelDifferentialTest, BoundedTailStopsWhenOnlyActiveLanesExceed) {
  constexpr size_t kChunk = kernel_detail::kBoundedCheckChunk;
  constexpr int kDim = static_cast<int>(2 * kChunk);
  const Point query(kDim, 0.0);
  for (size_t count = 1; count <= 17; ++count) {
    SoaBuffer points;
    points.Reset(kDim, count);
    std::vector<double> partial(count);
    for (size_t i = 0; i < count; ++i) {
      const double x = 1.0 + 0.25 * static_cast<double>(i);
      points.SetElement(i, Point(kDim, x));
      partial[i] = static_cast<double>(kChunk) * (x * x);
    }
    const double bound = 8.0;  // below every one-chunk partial sum
    for (const KernelImpl impl : AvailableKernelImpls()) {
      const DistanceKernel* kernel = GetDistanceKernelFor(impl);
      ASSERT_NE(kernel, nullptr);
      std::vector<double> out = GuardedOut(count);
      kernel->SquaredL2ToManyBounded(query, points.block(), bound,
                                     out.data());
      const std::string label =
          std::string(kernel->name()) + " count=" + std::to_string(count);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(out[i], partial[i]) << label << " i=" << i;
      }
      ExpectGuardsIntact(out, count, label);
    }
  }
}

TEST(KernelDifferentialTest, DisablingPruningYieldsExactDistances) {
  const Blocks b = MakeBlocks(InputClass::kRandom, 32, 4321);
  std::vector<double> exact(kCount), out(kCount);
  const DistanceKernel& kernel = GetDistanceKernel();
  kernel.SquaredL2ToMany(b.query, b.points.block(), exact.data());
  const bool prev = SetPartialDistancePruning(false);
  // With pruning off even the tightest bound must yield full distances.
  kernel.SquaredL2ToManyBounded(b.query, b.points.block(), 0.0, out.data());
  SetPartialDistancePruning(prev);
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(out[i], exact[i]) << i;
}

TEST(KernelDifferentialTest, SinglePointFormsMatchBatchedForms) {
  for (const int dim : {1, 3, 16, 64}) {
    const Blocks b = MakeBlocks(InputClass::kRandom, dim,
                                5000 + static_cast<uint64_t>(dim));
    const DistanceKernel& kernel = GetDistanceKernel();
    std::vector<double> d2(kCount), m2(kCount), md(kCount);
    kernel.SquaredL2ToMany(b.query, b.points.block(), d2.data());
    kernel.MinDistRectToMany(b.query, b.points.block(), b.highs.block(),
                             m2.data());
    kernel.SphereMinDistToMany(b.query, b.points.block(), b.radii.data(),
                               md.data());
    for (size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(kernel.SquaredL2(b.query, b.aos_lo[i]), d2[i]) << i;
      EXPECT_EQ(kernel.L2(b.query, b.aos_lo[i]), std::sqrt(d2[i])) << i;
      const Rect rect(b.aos_lo[i], b.aos_hi[i]);
      EXPECT_EQ(kernel.MinDistSqToRect(b.query, rect), m2[i]) << i;
      const Sphere sphere(b.aos_lo[i], b.radii[i]);
      EXPECT_EQ(kernel.MinDistToSphere(b.query, sphere), md[i]) << i;
    }
  }
}

// Toggling partial-distance pruning must not change any search result on
// any index type: pruning only ever truncates distances that are already
// provably beyond the candidate bound.
TEST(KernelDifferentialTest, PruningTogglePreservesSearchResults) {
  constexpr int kDim = 16;
  constexpr size_t kNumPoints = 300;
  Xoshiro256 rng(97531);
  std::vector<Point> points;
  points.reserve(kNumPoints);
  for (size_t i = 0; i < kNumPoints; ++i) {
    points.push_back(MakePoint(InputClass::kRandom, kDim, rng));
  }
  std::vector<uint32_t> oids(kNumPoints);
  for (size_t i = 0; i < kNumPoints; ++i) {
    oids[i] = static_cast<uint32_t>(i * 3 + 1);
  }
  const std::vector<Point> queries = {
      MakePoint(InputClass::kRandom, kDim, rng),
      MakePoint(InputClass::kRandom, kDim, rng), points[17]};

  IndexConfig config;
  config.dim = kDim;
  std::vector<IndexType> types = AllTreeTypes();
  types.push_back(IndexType::kTvTree);
  types.push_back(IndexType::kScan);
  for (const IndexType type : types) {
    std::unique_ptr<PointIndex> index = MakeIndex(type, config);
    ASSERT_TRUE(index->BulkLoad(points, oids).ok()) << IndexTypeName(type);
    for (const Point& query : queries) {
      for (const QuerySpec& spec :
           {QuerySpec::Knn(10), QuerySpec::KnnBestFirst(10),
            QuerySpec::Range(1.2)}) {
        SetPartialDistancePruning(true);
        const QueryResult with = index->Search(query, spec);
        SetPartialDistancePruning(false);
        const QueryResult without = index->Search(query, spec);
        SetPartialDistancePruning(true);
        ASSERT_TRUE(with.status.ok()) << IndexTypeName(type);
        ASSERT_TRUE(without.status.ok()) << IndexTypeName(type);
        ASSERT_EQ(with.neighbors.size(), without.neighbors.size())
            << IndexTypeName(type);
        for (size_t i = 0; i < with.neighbors.size(); ++i) {
          EXPECT_EQ(with.neighbors[i].oid, without.neighbors[i].oid)
              << IndexTypeName(type) << " result " << i;
          EXPECT_EQ(with.neighbors[i].distance, without.neighbors[i].distance)
              << IndexTypeName(type) << " result " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace srtree
