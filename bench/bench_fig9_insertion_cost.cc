// Figure 9: the average cost of inserting one entry into R*-trees,
// SS-trees and SR-trees on the uniform data set — (a) CPU time,
// (b) disk accesses (reads + writes).
//
// Expected shape (Section 5.1): the centroid-based trees (SS, SR) need
// much less CPU than the R*-tree; the SR-tree pays more CPU and more disk
// accesses than the SS-tree because it maintains both shapes.
//
// Extension (not in the paper): the same two costs per deletion. After each
// build, a seeded-shuffled third of the points is deleted from the tree.

#include <algorithm>
#include <utility>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/common/timer.h"

namespace srtree {
namespace {

struct DeleteMetrics {
  double cpu_ms_per_delete = 0.0;
  double accesses_per_delete = 0.0;
};

// Deletes a third of `data`'s points, in an order shuffled by `seed`, from
// an index BuildIndexFromDataset filled with it (oid i is point i), and
// reports the CPU time and the reads + writes per deletion.
DeleteMetrics DeleteThird(PointIndex& index, const Dataset& data,
                          uint64_t seed) {
  const std::vector<Point> points = data.ToPoints();
  std::vector<uint32_t> oids = data.SequentialOids();
  Xoshiro256 rng(seed);
  for (size_t i = oids.size(); i > 1; --i) {
    std::swap(oids[i - 1], oids[rng.NextBounded(i)]);
  }
  oids.resize(oids.size() / 3);
  const IoStats before = index.GetIoStats();
  CpuTimer timer;
  for (const uint32_t oid : oids) CHECK(index.Delete(points[oid], oid).ok());
  const double cpu_ms = timer.ElapsedMillis();
  const uint64_t accesses = index.GetIoStats().accesses() - before.accesses();
  const double n = static_cast<double>(std::max<size_t>(oids.size(), 1));
  return {cpu_ms / n, static_cast<double>(accesses) / n};
}

int Run(const BenchOptions& options) {
  const std::vector<int64_t> sizes = UniformSizeLadder(options);
  const std::vector<IndexType> types = DynamicTreeTypes();

  std::vector<std::string> cols = {"data set size"};
  for (const IndexType type : types) cols.emplace_back(IndexTypeName(type));
  Table cpu_table("Figure 9a: CPU time per insertion [ms] (uniform data set)",
                  cols);
  Table access_table(
      "Figure 9b: disk accesses per insertion (uniform data set)", cols);
  Table delete_cpu_table(
      "Extension (not in the paper): CPU time per deletion [ms] (uniform "
      "data set, a third of the points deleted)",
      cols);
  Table delete_access_table(
      "Extension (not in the paper): disk accesses per deletion (uniform "
      "data set, a third of the points deleted)",
      cols);

  for (const int64_t n : sizes) {
    const Dataset data = MakeUniformDataset(static_cast<size_t>(n),
                                            options.dim, options.seed);
    std::vector<std::string> cpu_row = {std::to_string(n)};
    std::vector<std::string> access_row = {std::to_string(n)};
    std::vector<std::string> delete_cpu_row = {std::to_string(n)};
    std::vector<std::string> delete_access_row = {std::to_string(n)};
    for (const IndexType type : types) {
      IndexConfig config;
      config.dim = options.dim;
      auto index = MakeIndex(type, config);
      const BuildMetrics metrics = BuildIndexFromDataset(*index, data);
      cpu_row.push_back(FormatNum(metrics.cpu_ms_per_insert));
      access_row.push_back(FormatNum(metrics.accesses_per_insert));
      const DeleteMetrics deletes = DeleteThird(*index, data, options.seed);
      delete_cpu_row.push_back(FormatNum(deletes.cpu_ms_per_delete));
      delete_access_row.push_back(FormatNum(deletes.accesses_per_delete));
    }
    cpu_table.AddRow(std::move(cpu_row));
    access_table.AddRow(std::move(access_row));
    delete_cpu_table.AddRow(std::move(delete_cpu_row));
    delete_access_table.AddRow(std::move(delete_access_row));
  }
  cpu_table.Print();
  access_table.Print();
  delete_cpu_table.Print();
  delete_access_table.Print();
  return bench::EmitJsonReport(
      options, {cpu_table, access_table, delete_cpu_table,
                delete_access_table});
}

}  // namespace
}  // namespace srtree

int main(int argc, char** argv) {
  srtree::FlagParser parser;
  srtree::AddBenchFlags(parser);
  int exit_code = 0;
  const auto options = srtree::bench::ParseOrExit(parser, argc, argv,
                                                  &exit_code);
  if (!options) return exit_code;
  return srtree::Run(*options);
}
