// Shared helpers for the srtree test suite.

#ifndef SRTREE_TESTS_TEST_UTIL_H_
#define SRTREE_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/benchlib/experiment.h"
#include "src/index/point_index.h"
#include "src/workload/cluster.h"
#include "src/workload/dataset.h"
#include "src/workload/histogram.h"
#include "src/workload/uniform.h"

namespace srtree::testing {

enum class DistKind { kUniform, kCluster, kHistogram };

inline const char* DistKindName(DistKind kind) {
  switch (kind) {
    case DistKind::kUniform:
      return "Uniform";
    case DistKind::kCluster:
      return "Cluster";
    case DistKind::kHistogram:
      return "Histogram";
  }
  return "Unknown";
}

inline Dataset MakeTestDataset(DistKind kind, size_t n, int dim,
                               uint64_t seed) {
  switch (kind) {
    case DistKind::kUniform:
      return MakeUniformDataset(n, dim, seed);
    case DistKind::kCluster: {
      ClusterConfig config;
      config.num_clusters = 8;
      config.points_per_cluster = (n + 7) / 8;
      config.dim = dim;
      config.seed = seed;
      Dataset data = MakeClusterDataset(config);
      // Trim to exactly n points.
      Dataset trimmed(dim);
      for (size_t i = 0; i < n; ++i) trimmed.Append(data.point(i));
      return trimmed;
    }
    case DistKind::kHistogram: {
      HistogramConfig config;
      config.n = n;
      config.dim = dim;
      config.seed = seed;
      return MakeHistogramDataset(config);
    }
  }
  return Dataset(dim);
}

// A small page size so modest datasets still produce multi-level trees with
// splits, reinsertion, and condensation. 2048 bytes keeps every tree's node
// capacity >= 2 for dim <= 16; wider points get 4096 bytes, which keeps it
// >= 2 up to dim 32.
inline IndexConfig SmallPageConfig(int dim) {
  IndexConfig config;
  config.dim = dim;
  config.page_size = dim <= 16 ? 2048 : 4096;
  config.leaf_data_size = 0;
  return config;
}

inline std::unique_ptr<PointIndex> MakeSmallPageIndex(IndexType type,
                                                      int dim) {
  return MakeIndex(type, SmallPageConfig(dim));
}

// Search()-based shorthands for assertions that only care about the
// neighbor list. Unlike the deprecated wrapper methods (srlint rule R1),
// these go through the unified entry point, so tests exercise the same path
// production callers use; grab the full QueryResult directly when a test
// also wants the status or the per-query I/O delta.
inline std::vector<Neighbor> SearchKnn(const PointIndex& index,
                                       PointView query, int k) {
  return index.Search(query, QuerySpec::Knn(k)).neighbors;
}

inline std::vector<Neighbor> SearchKnnBestFirst(const PointIndex& index,
                                                PointView query, int k) {
  return index.Search(query, QuerySpec::KnnBestFirst(k)).neighbors;
}

inline std::vector<Neighbor> SearchRange(const PointIndex& index,
                                         PointView query, double radius) {
  return index.Search(query, QuerySpec::Range(radius)).neighbors;
}

inline std::string TypeToken(IndexType type) {
  switch (type) {
    case IndexType::kSRTree:
      return "SRTree";
    case IndexType::kSSTree:
      return "SSTree";
    case IndexType::kRStarTree:
      return "RStarTree";
    case IndexType::kKdbTree:
      return "KdbTree";
    case IndexType::kVamSplitRTree:
      return "VamSplitRTree";
    case IndexType::kTvTree:
      return "TvTree";
    case IndexType::kScan:
      return "Scan";
    case IndexType::kStaticSRTree:
      return "StaticSRTree";
    case IndexType::kTieredSRTree:
      return "TieredSRTree";
  }
  return "Unknown";
}

}  // namespace srtree::testing

#endif  // SRTREE_TESTS_TEST_UTIL_H_
