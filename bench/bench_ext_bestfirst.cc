// Extension (beyond the paper): the paper's depth-first k-NN algorithm
// (Roussopoulos et al. 1995) versus the best-first traversal (Hjaltason &
// Samet), which is I/O-optimal for a given MINDIST bound. Measures how
// much of the optimal read count the depth-first algorithm already
// achieves on each index structure.

#include "bench/bench_util.h"

namespace srtree {
namespace {

Table RunOn(const std::string& label, const Dataset& data,
            const BenchOptions& options) {
  const std::vector<Point> queries = SampleQueriesFromDataset(
      data, QueryCount(options), options.seed + 17);

  Table table("Depth-first vs best-first k-NN reads — " + label,
              {"index", "DFS reads/query", "best-first reads/query",
               "DFS overhead [%]"});
  for (const IndexType type : AllTreeTypes()) {
    IndexConfig config;
    config.dim = data.dim();
    auto index = MakeIndex(type, config);
    BuildIndexFromDataset(*index, data);

    uint64_t dfs_reads = 0;
    uint64_t bf_reads = 0;
    for (const Point& q : queries) {
      dfs_reads += index->Search(q, QuerySpec::Knn(options.k)).io.reads;
      bf_reads +=
          index->Search(q, QuerySpec::KnnBestFirst(options.k)).io.reads;
    }
    const double n = static_cast<double>(queries.size());
    table.AddRow({index->name(),
                  FormatNum(static_cast<double>(dfs_reads) / n),
                  FormatNum(static_cast<double>(bf_reads) / n),
                  FormatNum(100.0 * (static_cast<double>(dfs_reads) -
                                     static_cast<double>(bf_reads)) /
                            static_cast<double>(bf_reads))});
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
