// The one set of search traversals every tree runs: depth-first k-NN
// (Roussopoulos, Kelley & Vincent), best-first k-NN (Hjaltason & Samet) and
// range search. The paper compares the structures by running the same
// algorithm over each and varying only the region bound; so does this
// library. Each traversal is a function template over a compile-time bound
// policy, which is all that differs between trees:
//
//   struct Policy {
//     // The space the policy's child bounds live in.
//     static constexpr BoundSpace kSpace = ...;
//     // Where the traversal starts; empty() for an empty index (no read).
//     TraversalRoot root() const;
//     // A cache hint that page `id` will be expanded soon (one line:
//     // snap.Prefetch(id)). It counts no read, so it cannot change the
//     // paper's reads per query.
//     void Prefetch(PageId id) const;
//     // Reads page `id` at `level` once, recording the read into `io`.
//     // A leaf calls offer(d2, oid) for every entry whose squared distance
//     // d2 from `query` is <= leaf_bound_sq; an inner node calls
//     // child(bound, child_id) once per entry, in entry order, where
//     // `bound` lower-bounds (in kSpace) the distance from `query` to
//     // anything below the entry. The page is released on return.
//     template <typename Offer, typename Child>
//     void Expand(PageId id, int level, PointView query,
//                 double leaf_bound_sq, KernelScratch& scratch,
//                 IoStatsDelta* io, Offer&& offer, Child&& child) const;
//   };
//
// The bounds per tree: squared rect MINDIST (R*, K-D-B, VAMSplit R, and the
// TV-tree on its active dimensions) in kSquared; sphere MINDIST (SS)
// and the SR-tree's max(sphere, rect) MINDIST (SR, static tier, Section
// 4.4) in kDistance. Every comparison stays in the space the bound was
// computed in, so no bound is rounded through an extra sqrt: a k-NN prunes
// a child whose bound exceeds PruneDistanceSquared() (kSquared) or
// PruneDistance() (kDistance), a range search descends where the bound is
// <= radius^2 or <= radius.
//
// The policy is a template parameter, not a virtual interface: SR and the
// static tier are the hot loop of every benchmark, and the per-page calls
// inline into the traversal.

#ifndef SRTREE_INDEX_TRAVERSAL_H_
#define SRTREE_INDEX_TRAVERSAL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <vector>

#include "src/geometry/kernel.h"
#include "src/geometry/point.h"
#include "src/index/knn.h"
#include "src/index/query.h"
#include "src/storage/io_stats.h"
#include "src/storage/page_file.h"

namespace srtree {

enum class BoundSpace {
  kSquared,   // bounds are squared distances
  kDistance,  // bounds are distances
};

struct TraversalRoot {
  PageId id = kInvalidPageId;
  int level = 0;  // 0 = the root is a leaf

  bool empty() const { return id == kInvalidPageId; }
};

// The leaf scan of every tree that decodes a leaf into entries with
// `.point` and `.oid`: offer(d2, oid) for each entry with d2 <= bound_sq.
template <typename Entries, typename Offer>
void ScanLeafEntries(const Entries& entries, PointView query, double bound_sq,
                     KernelScratch& scratch, Offer&& offer) {
  const std::vector<double>& d2 = BatchSquaredL2(
      scratch, query, entries.size(),
      [&](size_t i) { return PointView(entries[i].point); }, bound_sq);
  for (size_t i = 0; i < entries.size(); ++i) {
    if (d2[i] <= bound_sq) offer(d2[i], entries[i].oid);
  }
}

namespace traversal_internal {

// The current k-th candidate distance in the policy's bound space.
template <BoundSpace kSpace>
double PruneBound(const KnnCandidates& cand) {
  if constexpr (kSpace == BoundSpace::kSquared) {
    return cand.PruneDistanceSquared();
  } else {
    return cand.PruneDistance();
  }
}

// (bound, entry index, child) of one inner entry. A node's children are
// visited in (bound, entry index) order.
using Ordered = std::tuple<double, size_t, PageId>;

// How many children ahead of the one being descended into the DFS
// prefetches. Most of a k-NN's pages are leaves under a level-1 node, read
// one after another, so one sibling ahead covers a leaf's cache misses
// while the current leaf is scanned; two ahead measured no better (docs/
// ANALYSIS.md "Next-child prefetch").
inline constexpr size_t kPrefetchAhead = 1;

// Depth-first visit of page `id`. `order` is one stack shared by the whole
// query: each node appends its children, sorts and walks its own slice,
// and truncates back, so a query allocates it once rather than per node.
// Before descending into child j it prefetches child j + kPrefetchAhead,
// unless that child's bound already fails the pruning test.
template <typename Policy>
void KnnDfsVisit(const Policy& policy, PageId id, int level, PointView query,
                 KnnCandidates& cand, std::vector<Ordered>& order,
                 KernelScratch& scratch, IoStatsDelta* io) {
  const size_t begin = order.size();
  policy.Expand(
      id, level, query, cand.PruneDistanceSquared(), scratch, io,
      [&](double d2, uint32_t oid) { cand.OfferSquared(d2, oid); },
      [&](double bound, PageId child) {
        order.emplace_back(bound, order.size() - begin, child);
      });
  const size_t end = order.size();
  std::sort(order.begin() + begin, order.begin() + end);
  for (size_t j = begin; j < std::min(begin + kPrefetchAhead, end); ++j) {
    policy.Prefetch(std::get<2>(order[j]));
  }
  for (size_t j = begin; j < end; ++j) {
    // By value: the recursion grows `order` and may reallocate it.
    const double bound = std::get<0>(order[j]);
    const PageId child = std::get<2>(order[j]);
    const double prune = PruneBound<Policy::kSpace>(cand);
    if (bound > prune) break;
    const size_t ahead = j + kPrefetchAhead;
    if (ahead < end && std::get<0>(order[ahead]) <= prune) {
      policy.Prefetch(std::get<2>(order[ahead]));
    }
    KnnDfsVisit(policy, child, level - 1, query, cand, order, scratch, io);
  }
  order.resize(begin);
}

template <typename Policy>
void RangeVisit(const Policy& policy, PageId id, int level, PointView query,
                double radius, std::vector<Neighbor>& out,
                KernelScratch& scratch, IoStatsDelta* io) {
  const double limit =
      Policy::kSpace == BoundSpace::kSquared ? radius * radius : radius;
  std::vector<PageId> hits;
  policy.Expand(
      id, level, query, radius * radius, scratch, io,
      [&](double d2, uint32_t oid) {
        out.push_back(Neighbor{std::sqrt(d2), oid});
      },
      [&](double bound, PageId child) {
        if (bound <= limit) hits.push_back(child);
      });
  for (const PageId child : hits) {
    RangeVisit(policy, child, level - 1, query, radius, out, scratch, io);
  }
}

}  // namespace traversal_internal

// Depth-first branch-and-bound k-NN, the paper's algorithm, offering into
// `candidates`. The set may already hold another tree's candidates for the
// same query (a TieredIndex runs its static tier first): their k-th
// distance then prunes from this tree's first page.
template <typename Policy>
void TraverseKnnDfs(const Policy& policy, PointView query,
                    KnnCandidates& candidates, IoStatsDelta* io) {
  const TraversalRoot root = policy.root();
  if (root.empty()) return;
  std::vector<traversal_internal::Ordered> order;
  KernelScratch scratch;
  traversal_internal::KnnDfsVisit(policy, root.id, root.level, query,
                                  candidates, order, scratch, io);
}

// Best-first k-NN into `candidates` (seeded as for TraverseKnnDfs): always
// expands the pending subtree with the smallest bound and stops once that
// bound exceeds the k-th candidate, so it reads no more pages than any
// traversal using the same bound.
template <typename Policy>
void TraverseKnnBestFirst(const Policy& policy, PointView query,
                          KnnCandidates& candidates, IoStatsDelta* io) {
  const TraversalRoot root = policy.root();
  if (root.empty()) return;

  struct Pending {
    double bound;
    PageId id;
    int level;
    bool operator>(const Pending& other) const { return bound > other.bound; }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
      frontier;
  KernelScratch scratch;
  frontier.push(Pending{0.0, root.id, root.level});
  while (!frontier.empty()) {
    const Pending next = frontier.top();
    frontier.pop();
    // Offers come only from leaves and pushes only from inner nodes, so the
    // bound cannot move while one page is expanded.
    const double prune =
        traversal_internal::PruneBound<Policy::kSpace>(candidates);
    if (next.bound > prune) break;
    policy.Expand(
        next.id, next.level, query, candidates.PruneDistanceSquared(),
        scratch, io,
        [&](double d2, uint32_t oid) { candidates.OfferSquared(d2, oid); },
        [&](double bound, PageId child) {
          if (bound <= prune) {
            frontier.push(Pending{bound, child, next.level - 1});
          }
        });
  }
}

// The k-NN traversal `kind` (kKnn or kKnnBestFirst) names, into
// `candidates`.
template <typename Policy>
void TraverseKnn(const Policy& policy, PointView query, QueryKind kind,
                 KnnCandidates& candidates, IoStatsDelta* io) {
  if (kind == QueryKind::kKnnBestFirst) {
    TraverseKnnBestFirst(policy, query, candidates, io);
  } else {
    TraverseKnnDfs(policy, query, candidates, io);
  }
}

// Every point within `radius` of `query` (closed ball), in the canonical
// (distance, oid) order.
template <typename Policy>
std::vector<Neighbor> TraverseRange(const Policy& policy, PointView query,
                                    double radius, IoStatsDelta* io) {
  std::vector<Neighbor> result;
  const TraversalRoot root = policy.root();
  if (!root.empty()) {
    KernelScratch scratch;
    traversal_internal::RangeVisit(policy, root.id, root.level, query, radius,
                                   result, scratch, io);
  }
  std::sort(result.begin(), result.end());
  return result;
}

// The traversal `spec` names (already validated by RunValidatedSearch).
template <typename Policy>
std::vector<Neighbor> Traverse(const Policy& policy, PointView query,
                               const QuerySpec& spec, IoStatsDelta* io) {
  if (spec.kind == QueryKind::kRange) {
    return TraverseRange(policy, query, spec.radius, io);
  }
  KnnCandidates candidates(spec.k);
  TraverseKnn(policy, query, spec.kind, candidates, io);
  return candidates.TakeSorted();
}

}  // namespace srtree

#endif  // SRTREE_INDEX_TRAVERSAL_H_
