// Extension (beyond the paper): query cost of the read-optimized static
// tier against the dynamic SR-tree it is built from. Both hold the same
// uniform data set and run the same k-NN workload; the static tier is the
// flat BFS-serialized image (SoA leaf blocks, implicit child pointers,
// zero-deserialization reads), the dynamic tree is the insert-built
// SR-tree. The static tier stores no payload, while the default dynamic
// tree reserves IndexConfig's 512 bytes per leaf entry; the "no payload"
// row is the dynamic tree with leaf_data_size = 0, so the gap between the
// two dynamic rows is the payload's share and the gap between the
// payload-free row and the static tier is what packing alone buys. The
// tiered rows show the serving arrangement: fully compacted (pure static),
// with a 5% dynamic delta absorbing the newest writes, and with that delta
// plus 0.2% of the static points deleted (tombstones: dead bits over the
// static tier's slots, tested in the leaf scans). The last row also
// reports the CPU cost of one such Delete.
//
// The snapshot tracks the shape — the static tier must come in at or below
// the dynamic tree's per-query cost — not absolute wall-clock numbers.
// One pass over the query set varies by ~30% in CPU time on a shared host,
// so each row's CPU column is the median of kCpuPasses passes; the reads
// are the same in every pass.
//
// A second table times the two VAM bulk loads, the static tier's and the
// VAMSplit R-tree's (both without payload, so their pages hold the same
// entries), over the same points; --full adds a 1M-point real-data row,
// the size the tiered serving benchmark builds its static tier at. Each
// cell is the median of kBuildPasses builds.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/rstar/rstar_tree.h"
#include "src/statictier/static_sr_tree.h"
#include "src/statictier/tiered_index.h"

namespace srtree {
namespace {

constexpr size_t kCpuPasses = 5;
constexpr size_t kBuildPasses = 3;

struct Candidate {
  std::string label;
  std::unique_ptr<PointIndex> index;
  std::string us_per_delete = "-";
};

double Median(std::vector<double> values) {
  const auto median = values.begin() + values.size() / 2;
  std::nth_element(values.begin(), median, values.end());
  return *median;
}

// Median wall seconds of kBuildPasses bulk loads of a fresh `make()`.
template <typename MakeIndexFn>
std::string BulkLoadSeconds(const MakeIndexFn& make,
                            const std::vector<Point>& points,
                            const std::vector<uint32_t>& oids) {
  std::vector<double> seconds;
  for (size_t pass = 0; pass < kBuildPasses; ++pass) {
    const auto index = make();
    WallTimer timer;
    CHECK(index->BulkLoad(points, oids).ok());
    seconds.push_back(timer.ElapsedSeconds());
  }
  return FormatNum(Median(seconds));
}

void AddBulkLoadRow(Table& table, const std::string& label,
                    const Dataset& data) {
  const std::vector<Point> points = data.ToPoints();
  const std::vector<uint32_t> oids = data.SequentialOids();
  const auto make_static = [&] {
    StaticSRTree::Options options;
    options.dim = data.dim();
    return std::make_unique<StaticSRTree>(options);
  };
  const auto make_vamsplit = [&] {
    VamSplitRTree::Options options;
    options.dim = data.dim();
    options.leaf_data_size = 0;
    return std::make_unique<VamSplitRTree>(options);
  };
  table.AddRow({label, BulkLoadSeconds(make_static, points, oids),
                BulkLoadSeconds(make_vamsplit, points, oids)});
}

int Run(const BenchOptions& options) {
  const size_t n = options.full ? 100000 : 20000;
  const int dim = 16;
  const Dataset data = MakeUniformDataset(n, dim, options.seed);
  const size_t num_queries = options.full ? 2048 : 512;
  const std::vector<Point> queries =
      SampleQueriesFromDataset(data, num_queries, options.seed + 17);

  std::vector<Point> points;
  std::vector<uint32_t> oids;
  points.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    points.emplace_back(data.point(i).begin(), data.point(i).end());
    oids.push_back(static_cast<uint32_t>(i));
  }
  // The last 5% of the data set is the "freshest writes" slice the
  // delta-carrying tiered row absorbs through Insert().
  const size_t delta_start = n - n / 20;

  std::vector<Candidate> candidates;

  {
    IndexConfig config;
    config.dim = dim;
    auto dynamic_tree = MakeIndex(IndexType::kSRTree, config);
    BuildIndexFromDataset(*dynamic_tree, data);
    candidates.push_back({"Dynamic SR-tree", std::move(dynamic_tree)});
  }
  {
    IndexConfig config;
    config.dim = dim;
    config.leaf_data_size = 0;
    auto dynamic_tree = MakeIndex(IndexType::kSRTree, config);
    BuildIndexFromDataset(*dynamic_tree, data);
    candidates.push_back(
        {"Dynamic SR-tree (no payload)", std::move(dynamic_tree)});
  }
  {
    StaticSRTree::Options static_options;
    static_options.dim = dim;
    auto static_tree = std::make_unique<StaticSRTree>(static_options);
    CHECK(static_tree->BulkLoad(points, oids).ok());
    candidates.push_back({"Static SR-tree", std::move(static_tree)});
  }
  {
    TieredIndex::Options tiered_options;
    tiered_options.dim = dim;
    auto tiered = std::make_unique<TieredIndex>(tiered_options);
    CHECK(tiered->BulkLoad(points, oids).ok());
    candidates.push_back({"Tiered (compacted)", std::move(tiered)});
  }
  const auto make_tiered_with_delta = [&] {
    TieredIndex::Options tiered_options;
    tiered_options.dim = dim;
    auto tiered = std::make_unique<TieredIndex>(tiered_options);
    const std::vector<Point> base(points.begin(),
                                  points.begin() + delta_start);
    const std::vector<uint32_t> base_oids(oids.begin(),
                                          oids.begin() + delta_start);
    CHECK(tiered->BulkLoad(base, base_oids).ok());
    for (size_t i = delta_start; i < n; ++i) {
      CHECK(tiered->Insert(points[i], oids[i]).ok());
    }
    return tiered;
  };
  candidates.push_back({"Tiered (5% delta)", make_tiered_with_delta()});
  {
    // 0.2% of the static points, spread evenly over the bulk-loaded slice.
    auto tiered = make_tiered_with_delta();
    const size_t deletes = std::max<size_t>(1, delta_start / 500);
    const size_t stride = delta_start / deletes;
    CpuTimer timer;
    for (size_t d = 0; d < deletes; ++d) {
      CHECK(tiered->Delete(points[d * stride], oids[d * stride]).ok());
    }
    const double us = timer.ElapsedSeconds() * 1e6 /
                      static_cast<double>(deletes);
    candidates.push_back({"Tiered (5% delta, 0.2% tombstones)",
                          std::move(tiered), FormatNum(us)});
  }

  Table table("Static tier vs dynamic SR-tree: k-NN query cost (uniform, n=" +
                  std::to_string(n) + ", D=" + std::to_string(dim) +
                  ", k=" + std::to_string(options.k) + ")",
              {"index", "CPU ms/query", "reads/query", "leaf reads/query",
               "nonleaf reads/query", "CPU us/delete"});
  for (Candidate& c : candidates) {
    QueryMetrics metrics;
    std::vector<double> cpu_ms;
    for (size_t pass = 0; pass < kCpuPasses; ++pass) {
      metrics = RunKnnWorkload(*c.index, queries, options.k);
      cpu_ms.push_back(metrics.cpu_ms);
    }
    table.AddRow({c.label, FormatNum(Median(cpu_ms)),
                  FormatNum(metrics.disk_reads), FormatNum(metrics.leaf_reads),
                  FormatNum(metrics.nonleaf_reads), c.us_per_delete});
  }
  table.Print();

  Table build_table("VAM bulk load: wall seconds per BulkLoad (D=" +
                        std::to_string(dim) + ", no payload)",
                    {"data set", "StaticSRTree", "VamSplitRTree"});
  AddBulkLoadRow(build_table, "uniform n=" + std::to_string(n), data);
  if (options.full) {
    constexpr size_t kRealN = 1000000;
    AddBulkLoadRow(build_table, "real n=" + std::to_string(kRealN),
                   bench::MakeRealDataset(kRealN, dim, options.seed));
  }
  build_table.Print();
  return bench::EmitJsonReport(options, {table, build_table});
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
