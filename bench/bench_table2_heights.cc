// Table 2: heights of the constructed trees for the uniform data set, as a
// function of data set size (16 dimensions).

#include "bench/bench_util.h"
#include "src/benchlib/experiment.h"
#include "src/benchlib/report.h"

namespace srtree {
namespace {

int Run(const BenchOptions& options) {
  const std::vector<int64_t> sizes = UniformSizeLadder(options);

  std::vector<std::string> cols = {"index"};
  for (const int64_t n : sizes) cols.push_back(std::to_string(n));
  Table table("Table 2: tree heights (uniform data set, D=" +
                  std::to_string(options.dim) + ")",
              cols);

  for (const IndexType type : AllTreeTypes()) {
    std::vector<std::string> row = {IndexTypeName(type)};
    for (const int64_t n : sizes) {
      const Dataset data =
          MakeUniformDataset(static_cast<size_t>(n), options.dim,
                             options.seed);
      IndexConfig config;
      config.dim = options.dim;
      auto index = MakeIndex(type, config);
      BuildIndexFromDataset(*index, data);
      row.push_back(std::to_string(index->GetTreeStats().height));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  return bench::EmitJsonReport(options, {table});
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
