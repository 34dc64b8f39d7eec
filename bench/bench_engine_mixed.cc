// Extension (beyond the paper): batch k-NN throughput of the concurrent
// QueryEngine while a single writer commits Insert/Delete mutations against
// the same SR-tree. The paper's figures are read-only by design; this bench
// measures what snapshot-isolated reads over copy-on-write pages cost: each
// RunBatch pins one committed version and drains against it while the
// writer keeps publishing new versions (retired page versions are reclaimed
// epoch-by-epoch behind the readers).
//
// Method: build one SR-tree over a 16-d uniform data set, then for each
// worker count run the query batch twice — once read-only (the baseline)
// and once with a concurrent writer thread looping over an insert/delete
// schedule for the duration of the batch loop. Queries per second is batch
// size times rounds over wall time; mutations/s is the writer's committed
// throughput over the same wall clock. "queries over even share" sums
// BatchStats::steals over the rounds: the queries workers ran beyond an
// even share of each batch. The last two columns are the tree's page
// footprint after the row: live pages times the 8 KB logical page, and the
// bytes those pages hold (each page's stored extent).

#include <atomic>
#include <thread>

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/engine/query_engine.h"

namespace srtree {
namespace {

int Run(const BenchOptions& options) {
  const size_t n = options.full ? 100000 : 20000;
  const int dim = 16;
  const int rounds = options.full ? 8 : 4;
  const Dataset data = MakeUniformDataset(n, dim, options.seed);
  const size_t num_queries = options.full ? 2048 : 512;
  const std::vector<Point> query_points =
      SampleQueriesFromDataset(data, num_queries, options.seed + 17);

  std::vector<Query> batch;
  batch.reserve(query_points.size());
  for (const Point& q : query_points) {
    batch.push_back(Query{q, QuerySpec::Knn(options.k)});
  }

  // The writer cycles through a pre-built pool of extra points, inserting
  // each and deleting it again two steps later, so the tree's size stays
  // within +2 of the baseline and rounds are comparable.
  const Dataset extra =
      MakeUniformDataset(options.full ? 4096 : 1024, dim, options.seed + 29);
  const std::vector<Point> extra_points = extra.ToPoints();

  IndexConfig config;
  config.dim = dim;
  std::unique_ptr<PointIndex> index = MakeIndex(IndexType::kSRTree, config);
  BuildIndexFromDataset(*index, data);

  Table table("Batch k-NN under a concurrent writer (SR-tree, uniform, n=" +
                  std::to_string(n) + ", D=" + std::to_string(dim) +
                  ", batch=" + std::to_string(batch.size()) + ")",
              {"workers", "writer", "queries/s", "mutations/s",
               "reads/query", "queries over even share", "logical page MB",
               "stored page MB"});

  for (const int workers : {1, 2, 4, 8}) {
    for (const bool with_writer : {false, true}) {
      EngineOptions engine_options;
      engine_options.num_workers = workers;
      PointIndex* const raw = index.get();  // the single writer's handle
      QueryEngine engine(std::move(index), engine_options);
      (void)engine.RunBatch(batch);  // warm-up pass

      std::atomic<bool> stop{false};
      std::atomic<uint64_t> mutations{0};
      std::thread writer;
      if (with_writer) {
        writer = std::thread([&] {
          uint32_t oid = 10'000'000;
          size_t i = 0;
          uint64_t done = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            const Point& p = extra_points[i % extra_points.size()];
            CHECK(raw->Insert(p, oid).ok());
            ++done;
            if (i >= 2) {
              const Point& old = extra_points[(i - 2) % extra_points.size()];
              CHECK(raw->Delete(old, oid - 2).ok());
              ++done;
            }
            ++oid;
            ++i;
          }
          mutations.store(done, std::memory_order_relaxed);
        });
      }

      const WallTimer timer;
      uint64_t reads = 0;
      size_t steals = 0;
      for (int r = 0; r < rounds; ++r) {
        const std::vector<QueryResult> results = engine.RunBatch(batch);
        for (const QueryResult& res : results) CHECK(res.status.ok());
        const BatchStats stats = engine.last_batch_stats();
        reads += stats.io.reads;
        steals += stats.steals;
      }
      const double wall = timer.ElapsedSeconds();

      if (with_writer) {
        stop.store(true, std::memory_order_relaxed);
        writer.join();
      }
      index = engine.ReleaseIndex();
      const PageFootprint pages = index->GetPageFootprint();

      const double total_queries =
          static_cast<double>(batch.size()) * rounds;
      table.AddRow(
          {std::to_string(workers), with_writer ? "1 thread" : "none",
           FormatNum(total_queries / wall),
           with_writer
               ? FormatNum(static_cast<double>(
                               mutations.load(std::memory_order_relaxed)) /
                           wall)
               : "0",
           FormatNum(static_cast<double>(reads) / total_queries),
           std::to_string(steals),
           FormatNum(static_cast<double>(pages.logical_bytes()) / 1e6),
           FormatNum(static_cast<double>(pages.stored_bytes) / 1e6)});
    }
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
