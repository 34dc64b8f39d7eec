// Micro-benchmarks for the DistanceKernel batched primitives — ns per
// element for every implementation compiled in and supported by this CPU
// (scalar / AVX2 / AVX-512), across the dimensionalities the paper's
// experiments span and at the D = 16 SR-tree's page sizes — plus the storage
// primitives on the node hot path.
//
// `--json` writes the same tables as a machine-readable report; the checked
// in baseline lives at bench/snapshots/BENCH_micro_geometry.json.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/geometry/kernel.h"
#include "src/storage/page.h"
#include "src/storage/page_file.h"

namespace srtree::bench {
namespace {

// Keeps the timed calls from being optimized away.
volatile double g_sink = 0.0;

Point RandomPoint(Xoshiro256& rng, int dim) {
  Point p(static_cast<size_t>(dim));
  for (double& c : p) c = rng.NextDouble();
  return p;
}

// Runs `fn` until it has consumed ~20ms of CPU and reports ns per call.
template <typename Fn>
double NsPerCall(Fn&& fn) {
  fn();  // warm-up / first touch
  for (size_t iters = 1;; iters *= 4) {
    CpuTimer timer;
    for (size_t i = 0; i < iters; ++i) fn();
    const double elapsed = timer.ElapsedSeconds();
    if (elapsed >= 0.02) return elapsed * 1e9 / static_cast<double>(iters);
  }
}

// One SoA block of `count` random points/rects/spheres of dimension `dim`,
// shared by every kernel op so the implementations race on identical data.
struct KernelFixture {
  Point query;
  SoaBuffer points;        // points / sphere centers / rect lows
  SoaBuffer highs;         // rect highs
  std::vector<double> radii;
  std::vector<double> out;
  double bound_sq = 0.0;   // median squared distance: ~half the block prunes
};

KernelFixture MakeFixture(int dim, size_t count, uint64_t seed) {
  Xoshiro256 rng(seed);
  KernelFixture f;
  f.query = RandomPoint(rng, dim);
  f.points.Reset(dim, count);
  f.highs.Reset(dim, count);
  f.radii.resize(count);
  f.out.resize(count);
  for (size_t i = 0; i < count; ++i) {
    const Point lo = RandomPoint(rng, dim);
    Point hi = lo;
    for (double& c : hi) c += 0.25 * rng.NextDouble();
    f.points.SetElement(i, lo);
    f.highs.SetElement(i, hi);
    f.radii[i] = 0.3 * rng.NextDouble();
  }
  std::vector<double> d2(count);
  GetDistanceKernel().SquaredL2ToMany(f.query, f.points.block(), d2.data());
  std::nth_element(d2.begin(), d2.begin() + static_cast<long>(count / 2),
                   d2.end());
  f.bound_sq = d2[count / 2];
  return f;
}

struct KernelOpCase {
  const char* name;
  std::function<void(const DistanceKernel&, KernelFixture&)> run;
};

// One table row: ns per element of `op` on `fixture` for every
// implementation, "n/a" where it is not available.
std::vector<std::string> KernelRow(const KernelOpCase& op,
                                   KernelFixture& fixture, size_t count,
                                   std::vector<std::string> row) {
  for (const KernelImpl impl :
       {KernelImpl::kScalar, KernelImpl::kAvx2, KernelImpl::kAvx512}) {
    const DistanceKernel* kernel = GetDistanceKernelFor(impl);
    if (kernel == nullptr) {
      row.emplace_back("n/a");
      continue;
    }
    const double ns = NsPerCall([&] {
      op.run(*kernel, fixture);
      g_sink = g_sink + fixture.out[0] + fixture.out[count - 1];
    });
    row.push_back(FormatNum(ns / static_cast<double>(count)));
  }
  return row;
}

int Run(const BenchOptions& options) {
  constexpr size_t kCount = 256;
  const std::vector<int> dims = {2, 16, 64, 256};

  const std::vector<KernelOpCase> ops = {
      {"squared_l2",
       [](const DistanceKernel& k, KernelFixture& f) {
         k.SquaredL2ToMany(f.query, f.points.block(), f.out.data());
       }},
      {"squared_l2_bounded",
       [](const DistanceKernel& k, KernelFixture& f) {
         k.SquaredL2ToManyBounded(f.query, f.points.block(), f.bound_sq,
                                  f.out.data());
       }},
      {"rect_mindist_sq",
       [](const DistanceKernel& k, KernelFixture& f) {
         k.MinDistRectToMany(f.query, f.points.block(), f.highs.block(),
                             f.out.data());
       }},
      {"sphere_mindist",
       [](const DistanceKernel& k, KernelFixture& f) {
         k.SphereMinDistToMany(f.query, f.points.block(), f.radii.data(),
                               f.out.data());
       }},
  };

  std::printf("active kernel: %s\n", GetDistanceKernel().name());

  Table kernel_table(
      "micro geometry: kernel ns per element (block=256)",
      {"op", "dim", "scalar", "avx2", "avx512"});
  for (const KernelOpCase& op : ops) {
    for (const int dim : dims) {
      KernelFixture fixture =
          MakeFixture(dim, kCount, options.seed + static_cast<uint64_t>(dim));
      kernel_table.AddRow(
          KernelRow(op, fixture, kCount, {op.name, std::to_string(dim)}));
    }
  }
  kernel_table.Print();

  // The blocks a D = 16 SR-tree query really runs on: a full leaf (12
  // entries) and a full inner node (20), the Table 1 fanouts. Neither is a
  // multiple of the SIMD width, so these rows show the partial last vector
  // that block=256 hides.
  constexpr int kPageDim = 16;
  Table page_table(
      "micro geometry: kernel ns per element, page-sized blocks (dim=16)",
      {"op", "count", "scalar", "avx2", "avx512"});
  for (const KernelOpCase& op : ops) {
    for (const size_t count : {size_t{12}, size_t{20}}) {
      KernelFixture fixture =
          MakeFixture(kPageDim, count, options.seed + count);
      page_table.AddRow(
          KernelRow(op, fixture, count, {op.name, std::to_string(count)}));
    }
  }
  page_table.Print();

  Table storage_table("micro geometry: storage ns per op", {"op", "ns"});
  {
    // Serializing a 12-entry, 16-d leaf — the paper's node layout.
    Xoshiro256 rng(options.seed + 5);
    std::vector<Point> points;
    for (int i = 0; i < 12; ++i) points.push_back(RandomPoint(rng, 16));
    std::vector<char> buf(kDefaultPageSize);
    const double ns = NsPerCall([&] {
      PageWriter w(buf.data(), buf.size());
      w.PutU8(0);
      w.PutU8(0);
      w.PutU16(12);
      w.PutU32(0);
      for (const Point& p : points) {
        w.PutDoubles(p);
        w.PutU32(7);
        w.Skip(512);
      }
      g_sink = g_sink + static_cast<double>(buf[0]);
    });
    storage_table.AddRow({"page_serialize_leaf", FormatNum(ns)});
  }
  {
    PageFile file(kDefaultPageSize);
    const PageId id = file.Allocate();
    std::vector<char> buf(kDefaultPageSize, 'x');
    const double ns = NsPerCall([&] {
      file.StageWrite(id, buf.data());
      file.Commit({});
      file.Read(id, buf.data(), 0);
      g_sink = g_sink + static_cast<double>(buf[0]);
    });
    storage_table.AddRow({"pagefile_read_write", FormatNum(ns)});
  }
  storage_table.Print();

  return EmitJsonReport(options, {kernel_table, page_table, storage_table});
}

}  // namespace
}  // namespace srtree::bench

int main(int argc, char** argv) {
  srtree::FlagParser parser;
  srtree::AddBenchFlags(parser);
  int exit_code = 0;
  const auto options =
      srtree::bench::ParseOrExit(parser, argc, argv, &exit_code);
  if (!options.has_value()) return exit_code;
  return srtree::bench::Run(*options);
}
