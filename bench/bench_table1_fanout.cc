// Table 1: the maximum number of entries in a node and in a leaf for each
// index structure, as a function of dimensionality (8192-byte pages,
// 512-byte leaf data areas, 8-byte coordinates).
//
// Capacities come from the actual serialized page layouts via
// PointIndex::node_capacity()/leaf_capacity(), not typed-in constants: the
// Section 5.3 "fanout problem" (an SR node entry is 3x an SS entry and
// 1.5x an R* entry) is visible directly in the node row.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/benchlib/experiment.h"
#include "src/benchlib/report.h"

namespace srtree {
namespace {

int Run(const BenchOptions& options) {
  const std::vector<int> dims = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};

  std::vector<std::string> cols = {"index"};
  for (const int d : dims) cols.push_back(std::to_string(d));
  Table node_table("Table 1a: max entries in a NODE vs dimensionality", cols);
  Table leaf_table("Table 1b: max entries in a LEAF vs dimensionality", cols);

  for (const IndexType type : AllTreeTypes()) {
    std::vector<std::string> node_row = {IndexTypeName(type)};
    std::vector<std::string> leaf_row = {IndexTypeName(type)};
    for (const int dim : dims) {
      IndexConfig config;
      config.dim = dim;
      const auto index = MakeIndex(type, config);
      node_row.push_back(std::to_string(index->node_capacity()));
      leaf_row.push_back(std::to_string(index->leaf_capacity()));
    }
    node_table.AddRow(std::move(node_row));
    leaf_table.AddRow(std::move(leaf_row));
  }
  node_table.Print();
  leaf_table.Print();
  std::printf(
      "\nNote: at D=16 the SR-tree node holds 20 entries vs 56 (SS-tree) and"
      " 31 (R*-tree)\n      — the Section 5.3 fanout trade-off.\n");
  return bench::EmitJsonReport(options, {node_table, leaf_table});
}

}  // namespace
}  // namespace srtree

int main(int argc, char** argv) {
  srtree::FlagParser parser;
  srtree::AddBenchFlags(parser);
  int exit_code = 0;
  const auto options =
      srtree::bench::ParseOrExit(parser, argc, argv, &exit_code);
  if (!options) return exit_code;
  return srtree::Run(*options);
}
