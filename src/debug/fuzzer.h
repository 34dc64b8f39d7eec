// MutationFuzzer: deterministic randomized differential testing for any
// PointIndex implementation.
//
// The fuzzer drives an index through a seeded interleaving of Insert,
// Delete (present and absent keys, duplicate points), and Search() in all
// three query kinds (depth-first kNN, best-first kNN, range), mirroring
// every mutation into a BruteForceIndex oracle. After every batch it cross-checks query
// results against the oracle, verifies the size bookkeeping, runs the
// debug::StructuralAuditor, and (optionally) round-trips the index through
// a caller-supplied Save/Open hook. Every failure message carries the seed
// and operation number, so a run is reproducible from the test log alone.

#ifndef SRTREE_DEBUG_FUZZER_H_
#define SRTREE_DEBUG_FUZZER_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/status.h"
#include "src/index/point_index.h"

namespace srtree::debug {

struct FuzzOptions {
  uint64_t seed = 1;
  // Number of Insert/Delete operations. 0 = query-only mode for static
  // structures: bulk-load `initial_points`, then run `query_only_batches`
  // batches of queries and audits.
  size_t num_mutations = 5000;
  size_t batch_size = 250;  // cross-check / audit cadence
  size_t initial_points = 0;
  size_t query_only_batches = 8;

  // Mutation mix. Deletes target a live (point, oid) pair, except for a
  // `missing_delete_fraction` share aimed at absent keys (both the index
  // and the oracle must answer NotFound). A `duplicate_fraction` share of
  // inserts reuses a live point under a fresh oid.
  double delete_fraction = 0.35;
  double duplicate_fraction = 0.05;
  double missing_delete_fraction = 0.1;

  int knn_queries_per_batch = 8;
  int range_queries_per_batch = 8;
  int max_k = 12;

  // Coordinates are drawn uniformly from [coord_lo, coord_hi)^dim, with
  // half the query points jittered off live data points.
  double coord_lo = 0.0;
  double coord_hi = 1.0;

  // Round-trip through the ReopenFn every N batches (0 = never).
  size_t reopen_every_batches = 0;
  bool audit_every_batch = true;

  // Call PointIndex::Compact() every N batches (0 = never). For tiered
  // indexes this folds the delta into the static tier mid-run; queries and
  // audits after the compaction must still match the oracle exactly.
  size_t compact_every_batches = 0;
};

struct FuzzStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t missing_deletes = 0;
  uint64_t knn_queries = 0;
  uint64_t range_queries = 0;
  uint64_t audits = 0;
  uint64_t reopens = 0;
  uint64_t compacts = 0;
  // Insert+Delete pairs of a point with a NaN or infinite coordinate, each
  // rejected with InvalidArgument (see MutationFuzzer::Run).
  uint64_t non_finite_rejects = 0;
};

// Concurrent read-path fuzz: bulk-loads `index` (which must be empty) and a
// brute-force oracle with the same seeded points, then runs `num_threads`
// reader threads, each issuing a seeded mix of kNN (depth-first and
// best-first) and range queries through Search() with no writer running.
// Every result is cross-checked against the oracle, and at the end the sum
// of the per-query IoStatsDelta values is checked against the index's global
// GetIoStats() movement (the accounting-parity contract). Run it under TSan
// to surface read-path races.
struct ConcurrentFuzzOptions {
  uint64_t seed = 1;
  size_t num_points = 1500;
  int num_threads = 4;
  size_t queries_per_thread = 48;
  int max_k = 12;
  double coord_lo = 0.0;
  double coord_hi = 1.0;
};

Status RunConcurrentQueryFuzz(PointIndex& index,
                              const ConcurrentFuzzOptions& options);

// Mixed reader+writer fuzz: the snapshot-isolation differential test. Bulk-
// loads `index` (which must be empty and must provide real snapshot
// isolation — AcquireSnapshot()->version() != 0), then runs one writer
// thread applying a pre-generated deterministic schedule of Insert/Delete
// mutations while `num_reader_threads` readers concurrently pin snapshots.
//
// The contract under test: the committed version advances by exactly one
// per successful mutation, so a snapshot at version v0 + k must observe
// precisely the first k scheduled mutations — no more, no fewer, no torn
// state. Each reader replays that committed prefix into a thread-local
// BruteForceIndex oracle and cross-checks seeded kNN (depth-first and
// best-first) and range queries through IndexSnapshot::Search, plus the
// snapshot's size(), against it. Run it under TSan to surface write-path /
// read-path races, and under ASan/LSan to catch leaked retired pages.
struct MixedFuzzOptions {
  uint64_t seed = 1;
  size_t initial_points = 1200;
  size_t num_mutations = 1200;  // committed writer ops, each must succeed
  int num_reader_threads = 4;
  // Queries each reader cross-checks per pinned snapshot before releasing
  // it and pinning a fresh one.
  int queries_per_snapshot = 3;
  int max_k = 10;
  double delete_fraction = 0.35;
  double coord_lo = 0.0;
  double coord_hi = 1.0;
  // When > 0, the writer thread calls PointIndex::Compact() after every N
  // committed mutations, while readers hold live snapshots. Compact() must
  // NOT advance the committed version (it changes representation, not
  // contents), so the version → committed-prefix mapping the readers verify
  // — and the final version == v0 + num_mutations check — still hold.
  size_t compact_every = 0;
};

Status RunMixedReadWriteFuzz(PointIndex& index,
                             const MixedFuzzOptions& options);

class MutationFuzzer {
 public:
  // Persists and reopens the index (e.g. SRTree::Save + SRTree::Open); the
  // returned instance replaces the fuzzed one.
  using ReopenFn =
      std::function<StatusOr<std::unique_ptr<PointIndex>>(PointIndex&)>;

  explicit MutationFuzzer(const FuzzOptions& options) : options_(options) {}

  // Runs the schedule against `index` (replaced in place by the reopen
  // hook). OK when the run completes with no divergence from the oracle
  // and no audit violations; otherwise a Corruption status naming the
  // seed, operation number, and first failure. Every 16th mutation, and
  // once per query-only batch, the run also tries to insert and delete a
  // point with a NaN or infinite coordinate: both must return
  // InvalidArgument and leave size() and the committed version unchanged.
  Status Run(std::unique_ptr<PointIndex>& index,
             const ReopenFn& reopen = nullptr);

  const FuzzStats& stats() const { return stats_; }

 private:
  FuzzOptions options_;
  FuzzStats stats_;
};

}  // namespace srtree::debug

#endif  // SRTREE_DEBUG_FUZZER_H_
