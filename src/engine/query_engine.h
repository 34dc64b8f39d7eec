// Concurrent batch-query engine.
//
// A QueryEngine owns a PointIndex plus a fixed pool of worker threads, and
// executes batches of queries through the thread-safe snapshot read path.
// Scheduling is one shared cursor per batch: every worker claims the next
// unclaimed query index with a compare-exchange until the batch runs out,
// so no worker idles while another still has queued work, whatever the
// per-query cost. Results are written by query position, which makes
// RunBatch deterministic: the output is byte-identical to a sequential loop
// no matter which worker ran which query.
//
// Snapshot isolation: RunBatch acquires ONE IndexSnapshot for the whole
// batch and every worker queries through it, so all results are evaluated
// against the same pinned version — byte-identical to a sequential loop
// over that snapshot even while the index's single writer commits
// mid-batch (every paged index; only the brute-force scan, which has no
// versions, needs its mutations kept out of a running batch). The engine
// itself never mutates the index, and RunBatch serializes callers.

#ifndef SRTREE_ENGINE_QUERY_ENGINE_H_
#define SRTREE_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/geometry/point.h"
#include "src/index/point_index.h"
#include "src/index/query.h"
#include "src/storage/io_stats.h"

namespace srtree {

// One unit of batch work: the query point and what to run on it.
struct Query {
  Point point;
  QuerySpec spec;
};

struct EngineOptions {
  // Worker threads in the pool; clamped to >= 1. Hardware concurrency is a
  // reasonable default for throughput benches.
  int num_workers = 1;
};

// Aggregate accounting for the most recent RunBatch() call.
struct BatchStats {
  size_t queries = 0;
  // Load imbalance the cursor absorbed: the queries each worker ran beyond
  // an even share ceil(queries / num_workers), summed over workers. Zero
  // with one worker or a perfectly even split; it grows when some workers
  // take the cheap queries while others are held up by expensive ones.
  size_t steals = 0;
  double wall_seconds = 0.0; // whole-batch wall time on the calling thread
  IoStatsDelta io;           // sum of the per-query deltas
};

class QueryEngine {
 public:
  explicit QueryEngine(std::unique_ptr<PointIndex> index,
                       const EngineOptions& options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Runs every query and returns results in query order: results[i] is
  // queries[i]'s QueryResult, complete with per-query IoStatsDelta and
  // wall-clock latency. Callers may invoke RunBatch concurrently; batches
  // are serialized internally.
  std::vector<QueryResult> RunBatch(std::span<const Query> queries)
      EXCLUDES(batch_mu_, mu_, stats_mu_);

  const PointIndex& index() const { return *index_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Accounting for the last completed batch (call after RunBatch returns).
  BatchStats last_batch_stats() const EXCLUDES(stats_mu_);

  // Hands the index back; the engine accepts no further batches. Lets one
  // built tree move between engine configs.
  std::unique_ptr<PointIndex> ReleaseIndex() EXCLUDES(batch_mu_);

 private:
  void WorkerLoop();
  // Claims the next query index of the batch tagged `epoch_tag`, or returns
  // false once that batch has no unclaimed query left (or the cursor has
  // moved on to a later batch).
  bool Claim(uint32_t epoch_tag, size_t batch_size, size_t& index);

  // EngineOptions with num_workers clamped to >= 1, so options_ can be
  // initialized (and stay) const.
  static EngineOptions Sanitized(EngineOptions options);

  // Written in the constructor and by ReleaseIndex() only; workers read it
  // exclusively inside an epoch, which RunBatch brackets while holding
  // batch_mu_ — the same lock ReleaseIndex() takes. Search() is const and
  // re-entrant by the PointIndex contract, so traversals need no lock.
  std::unique_ptr<PointIndex> index_ UNGUARDED_OK(
      "written by ctor and batch_mu_-serialized ReleaseIndex only");
  const EngineOptions options_;

  std::vector<std::thread> workers_ UNGUARDED_OK(
      "spawned in the constructor, joined in the destructor");

  // Capability map: batch_mu_ serializes RunBatch/ReleaseIndex callers and
  // guards no data; mu_ guards the epoch/progress fields below, which are
  // valid between dispatch and completion of one epoch; stats_mu_ guards
  // last_stats_. The claim cursor is lock-free.
  Mutex batch_mu_;
  Mutex mu_;
  CondVar work_cv_;  // workers wait here between batches
  CondVar done_cv_;  // RunBatch waits here for completion
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::span<const Query> batch_queries_ GUARDED_BY(mu_);
  std::vector<QueryResult>* batch_results_ GUARDED_BY(mu_) = nullptr;
  // The one pinned view every query of the current batch runs against.
  // Shared ownership (not a raw pointer borrowed from the RunBatch frame):
  // each worker copies the handle under mu_, so the snapshot provably outlives
  // every query no matter how the drain interleaves — srcheck rule C5
  // rejects the borrowed-pointer shape.
  std::shared_ptr<const IndexSnapshot> batch_snapshot_ GUARDED_BY(mu_);
  // Queries not yet reported done; each worker subtracts the count it
  // claimed once per batch, and the one that reaches zero wakes RunBatch.
  size_t remaining_ GUARDED_BY(mu_) = 0;
  size_t steals_ GUARDED_BY(mu_) = 0;

  // The claim cursor: (low 32 bits of epoch_) << 32 | next query index.
  // RunBatch resets it under mu_ when it dispatches a batch; workers then
  // advance it by compare-exchange, and only while its epoch half matches
  // the batch they snapshotted. A worker still draining batch N therefore
  // cannot claim (and write a result for) a query of batch N+1 through its
  // stale batch state; it has to re-snapshot under mu_ first. A blind
  // fetch_add would give no such guarantee. (The tag repeats only after
  // 2^32 batches, which no straggler between two claims can outlast.)
  std::atomic<uint64_t> cursor_{0};

  mutable Mutex stats_mu_;
  BatchStats last_stats_ GUARDED_BY(stats_mu_);
};

}  // namespace srtree

#endif  // SRTREE_ENGINE_QUERY_ENGINE_H_
