// Shared scaffolding for the bench binaries: flag parsing boilerplate and
// dataset construction helpers keyed by the paper's two workloads.

#ifndef SRTREE_BENCH_BENCH_UTIL_H_
#define SRTREE_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/benchlib/experiment.h"
#include "src/benchlib/options.h"
#include "src/benchlib/report.h"
#include "src/common/flags.h"
#include "src/workload/histogram.h"
#include "src/workload/queries.h"
#include "src/workload/uniform.h"

namespace srtree::bench {

// Parses flags; returns nullopt when the process should exit (help printed
// or bad usage reported), with *exit_code set accordingly.
inline std::optional<BenchOptions> ParseOrExit(FlagParser& parser, int argc,
                                               char** argv, int* exit_code) {
  const Status status = parser.Parse(argc, argv);
  if (status.IsNotFound()) {  // --help
    *exit_code = 0;
    return std::nullopt;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    *exit_code = 1;
    return std::nullopt;
  }
  return GetBenchOptions(parser);
}

// The paper's "real data set" stand-in (see workload/histogram.h).
inline Dataset MakeRealDataset(size_t n, int dim, uint64_t seed) {
  HistogramConfig config;
  config.n = n;
  config.dim = dim;
  config.seed = seed;
  return MakeHistogramDataset(config);
}

// Writes `tables`, stamped, to options.json_path when --json was given.
// Returns a process exit code: a bad path must fail the run loudly, not
// leave CI comparing against a stale snapshot.
inline int EmitJsonReport(const BenchOptions& options,
                          const std::vector<Table>& tables) {
  if (options.json_path.empty()) return 0;
  const Status status =
      WriteJsonReport(options.json_path, tables,
                      MachineStampJson(SRTREE_BENCH_COMPILER,
                                       SRTREE_BENCH_BUILD_TYPE));
  if (!status.ok()) {
    std::fprintf(stderr, "--json: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("json report written to %s\n", options.json_path.c_str());
  return 0;
}

// Shared driver for the query-performance figures (3, 4, 10, 11): builds
// each index over the size ladder, runs the k-NN workload (query anchors
// sampled from the data set, as in Section 3.1), and prints one CPU-time
// table and one disk-reads table with one series per index. Returns the
// process exit code (non-zero only when --json was given and failed).
inline int RunQueryPerformanceFigure(const BenchOptions& options,
                                      const std::vector<IndexType>& types,
                                      const std::vector<int64_t>& sizes,
                                      bool real_data,
                                      const std::string& figure) {
  std::vector<std::string> cols = {"data set size"};
  for (const IndexType type : types) cols.emplace_back(IndexTypeName(type));
  Table cpu_table(figure + ": CPU time per query [ms]", cols);
  Table read_table(figure + ": disk reads per query", cols);

  for (const int64_t n : sizes) {
    const Dataset data =
        real_data
            ? MakeRealDataset(static_cast<size_t>(n), options.dim,
                              options.seed)
            : MakeUniformDataset(static_cast<size_t>(n), options.dim,
                                 options.seed);
    const std::vector<Point> queries = SampleQueriesFromDataset(
        data, QueryCount(options), options.seed + 17);

    std::vector<std::string> cpu_row = {std::to_string(n)};
    std::vector<std::string> read_row = {std::to_string(n)};
    for (const IndexType type : types) {
      IndexConfig config;
      config.dim = options.dim;
      auto index = MakeIndex(type, config);
      BuildIndexFromDataset(*index, data);
      const QueryMetrics metrics = RunKnnWorkload(*index, queries, options.k);
      cpu_row.push_back(FormatNum(metrics.cpu_ms));
      read_row.push_back(FormatNum(metrics.disk_reads));
    }
    cpu_table.AddRow(std::move(cpu_row));
    read_table.AddRow(std::move(read_row));
  }
  cpu_table.Print();
  read_table.Print();
  return EmitJsonReport(options, {cpu_table, read_table});
}

}  // namespace srtree::bench

#endif  // SRTREE_BENCH_BENCH_UTIL_H_
