#include "src/engine/query_engine.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/timer.h"

namespace srtree {

namespace {

constexpr uint64_t kIndexMask = 0xffffffffu;

}  // namespace

EngineOptions QueryEngine::Sanitized(EngineOptions options) {
  options.num_workers = std::max(1, options.num_workers);
  return options;
}

QueryEngine::QueryEngine(std::unique_ptr<PointIndex> index,
                         const EngineOptions& options)
    : index_(std::move(index)), options_(Sanitized(options)) {
  CHECK(index_ != nullptr);
  workers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&QueryEngine::WorkerLoop, this);
  }
}

QueryEngine::~QueryEngine() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

std::vector<QueryResult> QueryEngine::RunBatch(
    std::span<const Query> queries) {
  MutexLock batch_lock(batch_mu_);
  CHECK(index_ != nullptr);  // ReleaseIndex() ends the engine's service life
  // The cursor's index half is 32 bits wide.
  CHECK_LE(queries.size(), kIndexMask);

  const WallTimer timer;
  std::vector<QueryResult> results(queries.size());
  if (!queries.empty()) {
    // One pinned view for the whole batch: every query, on any worker,
    // runs against the same committed version, so the results are
    // byte-identical to a sequential loop over this snapshot even if a
    // writer commits while the batch drains. Shared ownership: workers copy
    // the handle under mu_, so the view stays alive for every query even on
    // schedules where a worker is still draining after RunBatch resets the
    // published copy below.
    const std::shared_ptr<const IndexSnapshot> snapshot =
        index_->AcquireSnapshot();
    {
      MutexLock lock(mu_);
      ++epoch_;
      batch_queries_ = queries;
      batch_results_ = &results;
      batch_snapshot_ = snapshot;
      remaining_ = queries.size();
      steals_ = 0;
      cursor_.store(epoch_ << 32);  // (epoch tag, index 0)
    }
    work_cv_.NotifyAll();
    {
      // Explicit wait loop (not a predicate lambda) so the analysis sees
      // the guarded read of remaining_ under mu_.
      MutexLock lock(mu_);
      while (remaining_ != 0) done_cv_.Wait(mu_);
      batch_results_ = nullptr;
      batch_queries_ = {};
      batch_snapshot_ = nullptr;
    }
  }

  BatchStats stats;
  stats.queries = queries.size();
  stats.wall_seconds = timer.ElapsedSeconds();
  {
    MutexLock lock(mu_);
    stats.steals = steals_;
  }
  for (const QueryResult& r : results) stats.io.MergeFrom(r.io);
  {
    MutexLock lock(stats_mu_);
    last_stats_ = stats;
  }
  return results;
}

BatchStats QueryEngine::last_batch_stats() const {
  MutexLock lock(stats_mu_);
  return last_stats_;
}

std::unique_ptr<PointIndex> QueryEngine::ReleaseIndex() {
  MutexLock batch_lock(batch_mu_);
  return std::move(index_);
}

void QueryEngine::WorkerLoop() {
  const size_t num_workers = static_cast<size_t>(options_.num_workers);
  uint64_t seen_epoch = 0;
  while (true) {
    // The batch state is snapshotted under mu_ so the claim loop below can
    // index into it without the lock. The snapshot is only valid for
    // queries of epoch `seen_epoch`: once every such query is done,
    // RunBatch may return and the caller may dispatch the next batch while
    // this worker is still in its claim loop. Claim() therefore checks the
    // cursor's epoch half, and a newer batch bounces the worker back here
    // to re-snapshot before it runs anything.
    std::span<const Query> queries;
    std::vector<QueryResult>* results = nullptr;
    std::shared_ptr<const IndexSnapshot> snapshot;
    {
      // Explicit wait loop (not a predicate lambda) so the analysis sees
      // the guarded reads of shutdown_/epoch_ under mu_.
      MutexLock lock(mu_);
      while (!shutdown_ && epoch_ == seen_epoch) work_cv_.Wait(mu_);
      if (shutdown_) return;
      seen_epoch = epoch_;
      queries = batch_queries_;
      results = batch_results_;
      snapshot = batch_snapshot_;
    }
    // A worker that wakes after the batch already completed finds it reset
    // to empty, claims nothing and goes back to waiting.
    const uint32_t epoch_tag = static_cast<uint32_t>(seen_epoch);
    size_t claimed = 0;
    size_t i = 0;
    while (Claim(epoch_tag, queries.size(), i)) {
      const Query& q = queries[i];
      (*results)[i] = snapshot->Search(q.point, q.spec);
      ++claimed;
    }
    if (claimed == 0) continue;
    // Report once per batch. Until this worker's share is subtracted the
    // batch cannot complete, so remaining_ and steals_ still belong to the
    // batch of `seen_epoch`.
    const size_t even_share =
        (queries.size() + num_workers - 1) / num_workers;
    bool done;
    {
      MutexLock lock(mu_);
      CHECK_LE(claimed, remaining_);
      remaining_ -= claimed;
      if (claimed > even_share) steals_ += claimed - even_share;
      done = remaining_ == 0;
    }
    if (done) done_cv_.NotifyAll();
  }
}

bool QueryEngine::Claim(uint32_t epoch_tag, size_t batch_size,
                        size_t& index) {
  uint64_t cursor = cursor_.load();
  while (true) {
    const uint64_t next = cursor & kIndexMask;
    if (cursor >> 32 != epoch_tag || next >= batch_size) return false;
    if (cursor_.compare_exchange_weak(cursor, cursor + 1)) {
      index = next;
      return true;
    }
  }
}

}  // namespace srtree
