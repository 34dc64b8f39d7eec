// Ablation (beyond the paper's figures): how much of the SR-tree's win
// comes from each of its two design choices?
//   (1) Section 4.2 — parent sphere radius = min(d_s, d_r) instead of the
//       SS-tree's d_s;
//   (2) Section 4.4 — search MINDIST = max(sphere, rect) instead of the
//       sphere bound alone.
// Each switch is toggled independently; "neither" stores rectangles but
// never benefits from them, isolating the pure fanout penalty of the
// larger node entries. The last row stores no rectangles at all (the
// SS-tree's sphere region), so against "neither" it shows what that fanout
// penalty costs.

#include "bench/bench_util.h"
#include "src/core/sr_tree.h"
#include "src/workload/cluster.h"

namespace srtree {
namespace {

struct Variant {
  const char* name;
  SRTree::Region region;
  bool rect_in_radius;
  bool rect_in_mindist;
};

constexpr SRTree::Region kBoth = SRTree::Region::kSphereAndRect;

constexpr Variant kVariants[] = {
    {"SR-tree (both rules)", kBoth, true, true},
    {"radius rule only", kBoth, true, false},
    {"mindist rule only", kBoth, false, true},
    {"neither (fanout cost only)", kBoth, false, false},
    {"SS region (no rects stored)", SRTree::Region::kSphere, false, false},
};

void RunOn(const std::string& label, const Dataset& data,
           const BenchOptions& options) {
  const std::vector<Point> queries = SampleQueriesFromDataset(
      data, QueryCount(options), options.seed + 17);

  Table table("SR-tree design ablation — " + label,
              {"variant", "disk reads/query", "leaf reads/query",
               "CPU ms/query"});
  for (const Variant& variant : kVariants) {
    SRTree::Options tree_options;
    tree_options.dim = data.dim();
    tree_options.region = variant.region;
    tree_options.use_rect_in_radius = variant.rect_in_radius;
    tree_options.use_rect_in_mindist = variant.rect_in_mindist;
    SRTree tree(tree_options);
    BuildIndexFromDataset(tree, data);
    const QueryMetrics metrics = RunKnnWorkload(tree, queries, options.k);
    table.AddRow({variant.name, FormatNum(metrics.disk_reads),
                  FormatNum(metrics.leaf_reads), FormatNum(metrics.cpu_ms)});
  }
  table.Print();
}

int Run(const BenchOptions& options) {
  const size_t n = options.full ? 50000 : 10000;

  RunOn("uniform data set (n=" + std::to_string(n) + ", D=" +
            std::to_string(options.dim) + ")",
        MakeUniformDataset(n, options.dim, options.seed), options);

  ClusterConfig cluster_config;
  cluster_config.num_clusters = 100;
  cluster_config.points_per_cluster = n / 100;
  cluster_config.dim = options.dim;
  cluster_config.seed = options.seed;
  RunOn("cluster data set (n=" + std::to_string(n) + ", D=" +
            std::to_string(options.dim) + ")",
        MakeClusterDataset(cluster_config), options);

  RunOn("real data set (n=" + std::to_string(n) + ", D=" +
            std::to_string(options.dim) + ")",
        bench::MakeRealDataset(n, options.dim, options.seed), options);
  return 0;
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
