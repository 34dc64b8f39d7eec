// srtree_cli — command-line front end for the SR-tree library.
//
//   srtree_cli generate --kind real --n 10000 --dim 16 --output data.csv
//   srtree_cli build    --input data.csv --index catalog.srt --type sr
//   srtree_cli query    --index catalog.srt --point 0.1,0.2,... --k 10
//   srtree_cli range    --index catalog.srt --point 0.1,0.2,... --radius 0.2
//   srtree_cli stats    --index catalog.srt
//
// build accepts any saveable index structure via --type; query/range/stats
// dispatch on the type tag embedded in the image, so they work on whatever
// build wrote.
//
// CSV format: one vector per line, comma-separated coordinates; '#' starts
// a comment. Object ids are the 0-based row numbers.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/index/index_factory.h"
#include "src/workload/cluster.h"
#include "src/workload/dataset.h"
#include "src/workload/histogram.h"
#include "src/workload/uniform.h"

namespace srtree {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

StatusOr<Point> ParsePoint(const std::string& text) {
  Point point;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string cell = text.substr(pos, comma - pos);
    char* end = nullptr;
    const double value = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str()) {
      return Status::InvalidArgument("not a number: '" + cell + "'");
    }
    point.push_back(value);
    pos = comma + 1;
  }
  if (point.empty()) return Status::InvalidArgument("empty point");
  return point;
}

StatusOr<IndexType> ParseIndexType(const std::string& name) {
  if (name == "sr") return IndexType::kSRTree;
  if (name == "ss") return IndexType::kSSTree;
  if (name == "rstar") return IndexType::kRStarTree;
  if (name == "kdb") return IndexType::kKdbTree;
  if (name == "vamsplit") return IndexType::kVamSplitRTree;
  if (name == "tvtree") return IndexType::kTvTree;
  if (name == "static") return IndexType::kStaticSRTree;
  if (name == "tiered") return IndexType::kTieredSRTree;
  return Status::InvalidArgument(
      "unknown --type '" + name +
      "' (want sr|ss|rstar|kdb|vamsplit|tvtree|static|tiered)");
}

int RunGenerate(int argc, char** argv) {
  FlagParser parser;
  parser.AddString("kind", "uniform", "uniform | cluster | real");
  parser.AddInt("n", 10000, "number of vectors");
  parser.AddInt("dim", 16, "dimensionality");
  parser.AddInt("clusters", 100, "clusters (cluster kind only)");
  parser.AddInt("seed", 1, "random seed");
  parser.AddString("output", "", "CSV file to write (required)");
  const Status flag_status = parser.Parse(argc, argv);
  if (flag_status.IsNotFound()) return 0;
  if (!flag_status.ok()) return Fail(flag_status);
  const std::string output = parser.GetString("output");
  if (output.empty()) {
    return Fail(Status::InvalidArgument("--output is required"));
  }

  const size_t n = static_cast<size_t>(parser.GetInt("n"));
  const int dim = static_cast<int>(parser.GetInt("dim"));
  const uint64_t seed = static_cast<uint64_t>(parser.GetInt("seed"));
  const std::string kind = parser.GetString("kind");
  Dataset data;
  if (kind == "uniform") {
    data = MakeUniformDataset(n, dim, seed);
  } else if (kind == "cluster") {
    ClusterConfig config;
    config.num_clusters = static_cast<size_t>(parser.GetInt("clusters"));
    config.points_per_cluster =
        (n + config.num_clusters - 1) / config.num_clusters;
    config.dim = dim;
    config.seed = seed;
    data = MakeClusterDataset(config);
  } else if (kind == "real") {
    HistogramConfig config;
    config.n = n;
    config.dim = dim;
    config.seed = seed;
    data = MakeHistogramDataset(config);
  } else {
    return Fail(Status::InvalidArgument("unknown --kind: " + kind));
  }
  const Status status = SaveCsvDataset(data, output);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu %d-d vectors to %s\n", data.size(), data.dim(),
              output.c_str());
  return 0;
}

int RunBuild(int argc, char** argv) {
  FlagParser parser;
  parser.AddString("input", "", "CSV file of vectors (required)");
  parser.AddString("index", "", "index file to write (required)");
  parser.AddString("type", "sr", "sr|ss|rstar|kdb|vamsplit|tvtree");
  parser.AddInt("data-bytes", 512, "attribute bytes reserved per vector");
  parser.AddInt("page-size", 8192, "disk page size in bytes");
  const Status flag_status = parser.Parse(argc, argv);
  if (flag_status.IsNotFound()) return 0;
  if (!flag_status.ok()) return Fail(flag_status);
  if (parser.GetString("input").empty() || parser.GetString("index").empty()) {
    return Fail(Status::InvalidArgument("--input and --index are required"));
  }
  StatusOr<IndexType> type = ParseIndexType(parser.GetString("type"));
  if (!type.ok()) return Fail(type.status());

  StatusOr<Dataset> data = LoadCsvDataset(parser.GetString("input"));
  if (!data.ok()) return Fail(data.status());

  IndexConfig config;
  config.dim = data->dim();
  config.page_size = static_cast<size_t>(parser.GetInt("page-size"));
  config.leaf_data_size = static_cast<size_t>(parser.GetInt("data-bytes"));
  std::unique_ptr<PointIndex> tree = MakeIndex(*type, config);
  std::vector<Point> points;
  std::vector<uint32_t> oids;
  points.reserve(data->size());
  oids.reserve(data->size());
  for (size_t i = 0; i < data->size(); ++i) {
    const PointView view = data->point(i);
    points.emplace_back(view.begin(), view.end());
    oids.push_back(static_cast<uint32_t>(i));
  }
  Status status = tree->BulkLoad(points, oids);
  if (!status.ok()) return Fail(status);
  status = tree->Save(parser.GetString("index"));
  if (!status.ok()) return Fail(status);
  std::printf("indexed %zu vectors (%s, dim %d, height %d) -> %s\n",
              tree->size(), tree->name().c_str(), tree->dim(),
              tree->GetTreeStats().height, parser.GetString("index").c_str());
  return 0;
}

int RunQuery(int argc, char** argv, bool range) {
  FlagParser parser;
  parser.AddString("index", "", "index file (required)");
  parser.AddString("point", "", "comma-separated query vector (required)");
  parser.AddInt("k", 10, "neighbors to return (query command)");
  parser.AddDouble("radius", 0.1, "search radius (range command)");
  const Status flag_status = parser.Parse(argc, argv);
  if (flag_status.IsNotFound()) return 0;
  if (!flag_status.ok()) return Fail(flag_status);
  if (parser.GetString("index").empty() || parser.GetString("point").empty()) {
    return Fail(Status::InvalidArgument("--index and --point are required"));
  }

  auto tree = OpenIndex(parser.GetString("index"));
  if (!tree.ok()) return Fail(tree.status());
  StatusOr<Point> point = ParsePoint(parser.GetString("point"));
  if (!point.ok()) return Fail(point.status());
  if (static_cast<int>(point->size()) != (*tree)->dim()) {
    return Fail(Status::InvalidArgument(
        "query has " + std::to_string(point->size()) +
        " coordinates, index has " + std::to_string((*tree)->dim())));
  }

  const QuerySpec spec =
      range ? QuerySpec::Range(parser.GetDouble("radius"))
            : QuerySpec::Knn(static_cast<int>(parser.GetInt("k")));
  const QueryResult result = (*tree)->Search(*point, spec);
  if (!result.status.ok()) return Fail(result.status);
  for (const Neighbor& n : result.neighbors) {
    std::printf("%u,%.17g\n", n.oid, n.distance);
  }
  std::fprintf(stderr, "%zu results, %llu disk reads\n",
               result.neighbors.size(),
               static_cast<unsigned long long>(result.io.reads));
  return 0;
}

int RunStats(int argc, char** argv) {
  FlagParser parser;
  parser.AddString("index", "", "index file (required)");
  const Status flag_status = parser.Parse(argc, argv);
  if (flag_status.IsNotFound()) return 0;
  if (!flag_status.ok()) return Fail(flag_status);
  if (parser.GetString("index").empty()) {
    return Fail(Status::InvalidArgument("--index is required"));
  }
  auto tree = OpenIndex(parser.GetString("index"));
  if (!tree.ok()) return Fail(tree.status());
  const TreeStats stats = (*tree)->GetTreeStats();
  const RegionSummary regions = (*tree)->LeafRegionSummary();
  std::printf("structure:      %s\n", (*tree)->name().c_str());
  std::printf("vectors:        %zu\n", (*tree)->size());
  std::printf("dimensionality: %d\n", (*tree)->dim());
  std::printf("height:         %d\n", stats.height);
  std::printf("nodes/leaves:   %llu / %llu\n",
              static_cast<unsigned long long>(stats.node_count),
              static_cast<unsigned long long>(stats.leaf_count));
  std::printf("fanout:         %zu node / %zu leaf\n",
              (*tree)->node_capacity(), (*tree)->leaf_capacity());
  const PageFootprint pages = (*tree)->GetPageFootprint();
  std::printf("page bytes:     %llu stored / %llu logical (%llu pages x %llu)\n",
              static_cast<unsigned long long>(pages.stored_bytes),
              static_cast<unsigned long long>(pages.logical_bytes()),
              static_cast<unsigned long long>(pages.pages),
              static_cast<unsigned long long>(pages.page_size));
  std::printf("avg leaf sphere diameter: %.6g\n",
              regions.avg_sphere_diameter);
  std::printf("avg leaf rect volume:     %.6g\n", regions.avg_rect_volume);
  const Status invariants = (*tree)->CheckInvariants();
  std::printf("invariants:     %s\n",
              invariants.ok() ? "ok" : invariants.ToString().c_str());
  return invariants.ok() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: srtree_cli <generate|build|query|range|stats> "
               "[flags]\nrun a command with --help for its flags\n");
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  // Shift the command out of the arg list for the flag parsers.
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) rest.push_back(argv[i]);
  const int rest_argc = static_cast<int>(rest.size());
  if (command == "generate") return RunGenerate(rest_argc, rest.data());
  if (command == "build") return RunBuild(rest_argc, rest.data());
  if (command == "query") return RunQuery(rest_argc, rest.data(), false);
  if (command == "range") return RunQuery(rest_argc, rest.data(), true);
  if (command == "stats") return RunStats(rest_argc, rest.data());
  return Usage();
}

}  // namespace
}  // namespace srtree

int main(int argc, char** argv) { return srtree::Main(argc, argv); }
