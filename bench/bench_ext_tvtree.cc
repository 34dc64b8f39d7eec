// Extension (beyond the paper): the Section 2.5 critique of the TV-tree,
// measured. On real-valued feature vectors the telescoping never engages,
// so the TV-tree reduces to an R*-tree over the first `active_dims`
// dimensions: higher fanout, but weaker MINDIST bounds. This bench sweeps
// the active-dimension count and compares against the full R*-tree and the
// SR-tree on the paper's workloads.

#include "bench/bench_util.h"
#include "src/rstar/rstar_tree.h"

namespace srtree {
namespace {

Table RunOn(const std::string& label, const Dataset& data,
            const BenchOptions& options) {
  const std::vector<Point> queries = SampleQueriesFromDataset(
      data, QueryCount(options), options.seed + 17);

  Table table("TV-tree active-dimension sweep — " + label,
              {"index", "reads/query", "CPU ms/query", "node fanout",
               "height"});

  for (const int active : {2, 4, 8, 16}) {
    if (active > data.dim()) continue;
    TvRTree::Options tv_options;
    tv_options.dim = data.dim();
    tv_options.active_dims = active;
    TvRTree tree(tv_options);
    BuildIndexFromDataset(tree, data);
    const QueryMetrics metrics = RunKnnWorkload(tree, queries, options.k);
    table.AddRow({"TV-tree (α=" + std::to_string(active) + ")",
                  FormatNum(metrics.disk_reads), FormatNum(metrics.cpu_ms),
                  std::to_string(tree.node_capacity()),
                  std::to_string(tree.height())});
  }
  for (const IndexType type : {IndexType::kRStarTree, IndexType::kSRTree}) {
    IndexConfig config;
    config.dim = data.dim();
    auto index = MakeIndex(type, config);
    BuildIndexFromDataset(*index, data);
    const QueryMetrics metrics = RunKnnWorkload(*index, queries, options.k);
    table.AddRow({index->name(), FormatNum(metrics.disk_reads),
                  FormatNum(metrics.cpu_ms),
                  std::to_string(index->node_capacity()),
                  std::to_string(index->GetTreeStats().height)});
  }
  table.Print();
  return table;
}

int Run(const BenchOptions& options) {
  const size_t n = options.full ? 50000 : 10000;
  const Table uniform = RunOn(
      "uniform data set (n=" + std::to_string(n) + ", D=" +
          std::to_string(options.dim) + ")",
      MakeUniformDataset(n, options.dim, options.seed), options);
  const Table real = RunOn(
      "real data set (n=" + std::to_string(n) + ", D=" +
          std::to_string(options.dim) + ")",
      bench::MakeRealDataset(n, options.dim, options.seed), options);
  return bench::EmitJsonReport(options, {uniform, real});
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
