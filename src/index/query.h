// The unified query interface: one Search() entry point driven by a
// QuerySpec, returning a QueryResult that carries the neighbors together
// with per-query I/O and latency accounting.
//
// A QueryResult is self-contained, so any number of queries can run
// concurrently without sharing mutable counters.

#ifndef SRTREE_INDEX_QUERY_H_
#define SRTREE_INDEX_QUERY_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/storage/io_stats.h"

namespace srtree {

// One k-NN / range-search result: the point's object id and its distance
// from the query.
struct Neighbor {
  double distance = 0.0;
  uint32_t oid = 0;

  bool operator==(const Neighbor&) const = default;

  // Canonical result ordering: by (distance, oid). Every sorted neighbor
  // list uses exactly this relation, so results with duplicate distances
  // come back in the same order from every index structure.
  bool operator<(const Neighbor& other) const {
    if (distance != other.distance) return distance < other.distance;
    return oid < other.oid;
  }
};

enum class QueryKind {
  kKnn,           // depth-first branch-and-bound (Roussopoulos et al.)
  kKnnBestFirst,  // global priority queue (Hjaltason & Samet)
  kRange,         // all points within a closed ball
};

// What to run: the traversal, and k or the radius. Built via the factory
// helpers so call sites read as Search(q, QuerySpec::Knn(10)).
struct QuerySpec {
  QueryKind kind = QueryKind::kKnn;
  int k = 0;            // kKnn / kKnnBestFirst: must be >= 1
  double radius = 0.0;  // kRange: must be >= 0 and finite

  static QuerySpec Knn(int k) {
    return QuerySpec{QueryKind::kKnn, k, 0.0};
  }
  static QuerySpec KnnBestFirst(int k) {
    return QuerySpec{QueryKind::kKnnBestFirst, k, 0.0};
  }
  static QuerySpec Range(double radius) {
    return QuerySpec{QueryKind::kRange, 0, radius};
  }
};

// Everything one query produced. `io` covers exactly the page reads this
// query performed (the same reads also land in the index's global IoStats,
// which the paper benches keep using); `elapsed_seconds` is wall-clock
// latency, the right notion under a concurrent engine.
struct QueryResult {
  Status status;  // OK, or InvalidArgument for a malformed spec/query
  std::vector<Neighbor> neighbors;
  IoStatsDelta io;
  double elapsed_seconds = 0.0;
};

}  // namespace srtree

#endif  // SRTREE_INDEX_QUERY_H_
