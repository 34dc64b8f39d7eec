// Figure 9: the average cost of inserting one entry into R*-trees,
// SS-trees and SR-trees on the uniform data set — (a) CPU time,
// (b) disk accesses (reads + writes).
//
// Expected shape (Section 5.1): the centroid-based trees (SS, SR) need
// much less CPU than the R*-tree; the SR-tree pays more CPU and more disk
// accesses than the SS-tree because it maintains both shapes.

#include "bench/bench_util.h"

namespace srtree {
namespace {

int Run(const BenchOptions& options) {
  const std::vector<int64_t> sizes = UniformSizeLadder(options);
  const std::vector<IndexType> types = DynamicTreeTypes();

  std::vector<std::string> cols = {"data set size"};
  for (const IndexType type : types) cols.emplace_back(IndexTypeName(type));
  Table cpu_table("Figure 9a: CPU time per insertion [ms] (uniform data set)",
                  cols);
  Table access_table(
      "Figure 9b: disk accesses per insertion (uniform data set)", cols);

  for (const int64_t n : sizes) {
    const Dataset data = MakeUniformDataset(static_cast<size_t>(n),
                                            options.dim, options.seed);
    std::vector<std::string> cpu_row = {std::to_string(n)};
    std::vector<std::string> access_row = {std::to_string(n)};
    for (const IndexType type : types) {
      IndexConfig config;
      config.dim = options.dim;
      auto index = MakeIndex(type, config);
      const BuildMetrics metrics = BuildIndexFromDataset(*index, data);
      cpu_row.push_back(FormatNum(metrics.cpu_ms_per_insert));
      access_row.push_back(FormatNum(metrics.accesses_per_insert));
    }
    cpu_table.AddRow(std::move(cpu_row));
    access_table.AddRow(std::move(access_row));
  }
  cpu_table.Print();
  access_table.Print();
  return bench::EmitJsonReport(options, {cpu_table, access_table});
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
