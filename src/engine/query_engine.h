// Concurrent batch-query engine.
//
// A QueryEngine owns a PointIndex plus a fixed pool of worker threads, and
// executes batches of queries through the thread-safe snapshot read path.
// Scheduling is work-stealing: a batch is cut into contiguous chunks of
// `steal_grain` queries, dealt round-robin to per-worker deques; an owner
// pops from the front of its own deque and a thief steals from the back of
// a victim's, so contention concentrates on opposite ends. Results are
// written by query position, which makes RunBatch deterministic: the output
// is byte-identical to a sequential loop no matter how chunks are scheduled
// or stolen.
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

#include <cstddef>
#include <deque>
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
  // When > 0, attaches a sharded BufferPool of this many pages to the index
  // for the engine's lifetime (detached again by ReleaseIndex()).
  size_t buffer_pool_pages = 0;
  // Queries per scheduling chunk. Small grains steal better under skewed
  // per-query cost; large grains amortize deque locking.
  size_t steal_grain = 16;
};

// Aggregate accounting for the most recent RunBatch() call.
struct BatchStats {
  size_t queries = 0;
  size_t chunks = 0;
  size_t steals = 0;         // chunks executed by a non-owner worker
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

  // Detaches the buffer pool and hands the index back; the engine accepts
  // no further batches. Lets one built tree move between engine configs.
  std::unique_ptr<PointIndex> ReleaseIndex() EXCLUDES(batch_mu_);

 private:
  // Contiguous range [begin, end) of query indices, tagged with the worker
  // deque it was dealt to (so executed-by-thief chunks can be counted) and
  // the epoch that dispatched it. The epoch tag is the cross-batch safety
  // net: a worker only pops chunks whose epoch matches the batch state it
  // snapshotted, so a chunk dealt by the *next* RunBatch can never run
  // against the previous batch's (by then destroyed) results vector.
  struct Chunk {
    size_t begin = 0;
    size_t end = 0;
    int owner = 0;
    uint64_t epoch = 0;
  };

  struct WorkerQueue {
    Mutex mu;
    std::deque<Chunk> chunks GUARDED_BY(mu);
  };

  void WorkerLoop(int worker_id);
  // Owner end: pop the front of our own deque. Only pops chunks dispatched
  // for `epoch`; a newer chunk is left in place for the worker to pick up
  // after it re-snapshots the batch state.
  bool PopLocal(int worker_id, uint64_t epoch, Chunk& out);
  // Thief end: scan the other deques, stealing from the back. Same epoch
  // filter as PopLocal.
  bool StealFrom(int worker_id, uint64_t epoch, Chunk& out);
  // Executes one chunk against snapshots of the batch state: the worker
  // copies `batch_queries_`/`batch_results_`/`batch_snapshot_` out under
  // mu_ when it observes the new epoch, so the per-query loop runs without
  // touching guarded members (and without the lock). The snapshots are only
  // ever applied to chunks carrying the same epoch tag (enforced by
  // PopLocal/StealFrom).
  void RunChunk(const Chunk& chunk, std::span<const Query> queries,
                const IndexSnapshot& snapshot,
                std::vector<QueryResult>& results);

  // EngineOptions with num_workers and steal_grain clamped to >= 1, so
  // options_ can be initialized (and stay) const.
  static EngineOptions Sanitized(EngineOptions options);

  // Written in the constructor and by ReleaseIndex() only; workers read it
  // exclusively inside an epoch, which RunBatch brackets while holding
  // batch_mu_ — the same lock ReleaseIndex() takes. Search() is const and
  // re-entrant by the PointIndex contract, so traversals need no lock.
  std::unique_ptr<PointIndex> index_ UNGUARDED_OK(
      "written by ctor and batch_mu_-serialized ReleaseIndex only");
  const EngineOptions options_;

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_ UNGUARDED_OK(
      "spawned in the constructor, joined in the destructor");

  // Capability map: batch_mu_ serializes RunBatch/ReleaseIndex callers and
  // guards no data; mu_ guards the epoch/progress fields below, which are
  // valid between dispatch and completion of one epoch; each WorkerQueue's
  // mu guards its deque; stats_mu_ guards last_stats_.
  Mutex batch_mu_;
  Mutex mu_;
  CondVar work_cv_;  // workers wait here between batches
  CondVar done_cv_;  // RunBatch waits here for completion
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::span<const Query> batch_queries_ GUARDED_BY(mu_);
  std::vector<QueryResult>* batch_results_ GUARDED_BY(mu_) = nullptr;
  // The one pinned view every chunk of the current batch queries. Shared
  // ownership (not a raw pointer borrowed from the RunBatch frame): each
  // worker copies the handle under mu_, so the snapshot provably outlives
  // every chunk no matter how the drain interleaves — srcheck rule C5
  // rejects the borrowed-pointer shape.
  std::shared_ptr<const IndexSnapshot> batch_snapshot_ GUARDED_BY(mu_);
  size_t chunks_remaining_ GUARDED_BY(mu_) = 0;
  size_t steals_ GUARDED_BY(mu_) = 0;

  mutable Mutex stats_mu_;
  BatchStats last_stats_ GUARDED_BY(stats_mu_);
};

}  // namespace srtree

#endif  // SRTREE_ENGINE_QUERY_ENGINE_H_
