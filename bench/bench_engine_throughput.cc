// Extension (beyond the paper): batch k-NN throughput of the concurrent
// QueryEngine as the worker count scales. The paper's figures are
// single-threaded and uncached by design; this bench measures what the same
// SR-tree read path delivers when a batch of queries is spread over a
// worker pool that claims queries one at a time from a shared cursor.
//
// Method: build one SR-tree over a 16-d uniform data set, then run the same
// query batch through engines with 1/2/4/8 workers. Queries per second is
// batch size over wall time; per-query reads come from the summed
// IoStatsDelta values. The last column is BatchStats::steals: the queries
// workers ran beyond an even share of the batch, i.e. the imbalance the
// cursor absorbed.

#include "bench/bench_util.h"
#include "src/engine/query_engine.h"

namespace srtree {
namespace {

int Run(const BenchOptions& options) {
  const size_t n = options.full ? 100000 : 20000;
  const int dim = 16;
  const Dataset data = MakeUniformDataset(n, dim, options.seed);
  const size_t num_queries = options.full ? 4096 : 1024;
  const std::vector<Point> query_points =
      SampleQueriesFromDataset(data, num_queries, options.seed + 17);

  std::vector<Query> batch;
  batch.reserve(query_points.size());
  for (const Point& q : query_points) {
    batch.push_back(Query{q, QuerySpec::Knn(options.k)});
  }

  IndexConfig config;
  config.dim = dim;
  std::unique_ptr<PointIndex> index = MakeIndex(IndexType::kSRTree, config);
  BuildIndexFromDataset(*index, data);

  Table table("Batch k-NN throughput vs workers (SR-tree, uniform, n=" +
                  std::to_string(n) + ", D=" + std::to_string(dim) +
                  ", batch=" + std::to_string(batch.size()) + ")",
              {"workers", "queries/s", "speedup vs 1 worker", "reads/query",
               "queries over even share"});

  double base_qps = 0.0;
  for (const int workers : {1, 2, 4, 8}) {
    EngineOptions engine_options;
    engine_options.num_workers = workers;
    QueryEngine engine(std::move(index), engine_options);
    (void)engine.RunBatch(batch);  // warm-up pass
    const std::vector<QueryResult> results = engine.RunBatch(batch);
    const BatchStats stats = engine.last_batch_stats();
    index = engine.ReleaseIndex();

    for (const QueryResult& r : results) CHECK(r.status.ok());
    const double qps = static_cast<double>(batch.size()) / stats.wall_seconds;
    if (workers == 1) base_qps = qps;
    table.AddRow({std::to_string(workers), FormatNum(qps),
                  FormatNum(qps / base_qps),
                  FormatNum(static_cast<double>(stats.io.reads) /
                            static_cast<double>(batch.size())),
                  std::to_string(stats.steals)});
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
