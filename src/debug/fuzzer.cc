#include "src/debug/fuzzer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/mutex.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/debug/structural_auditor.h"
#include "src/geometry/kernel.h"
#include "src/index/brute_force.h"
#include "src/storage/epoch.h"

namespace srtree::debug {
namespace {

// Distances are computed by the same kernel on the same doubles in the
// index and the oracle, so in practice they agree bitwise; the tolerance
// only guards against benign summation-order differences.
constexpr double kDistEps = 1e-9;

// MutationFuzzer::Run probes non-finite input every this many mutations.
constexpr uint64_t kNonFiniteProbeEvery = 16;

std::string FormatNeighbors(const std::vector<Neighbor>& n, size_t limit = 8) {
  std::string s = "[";
  for (size_t i = 0; i < n.size() && i < limit; ++i) {
    if (i > 0) s += ", ";
    s += "(" + std::to_string(n[i].oid) + ", d=" +
         std::to_string(n[i].distance) + ")";
  }
  if (n.size() > limit) s += ", ...";
  return s + "]";
}

}  // namespace

Status RunConcurrentQueryFuzz(PointIndex& index,
                              const ConcurrentFuzzOptions& options) {
  if (index.size() != 0) {
    return Status::InvalidArgument(
        "RunConcurrentQueryFuzz needs an empty index to load");
  }
  const int dim = index.dim();
  CHECK_GT(options.num_threads, 0);
  // Schedule generation indexes into `points`; a zero-point run has nothing
  // to fuzz against.
  CHECK_GT(options.num_points, 0u);

  Xoshiro256 rng(options.seed);
  const auto random_point = [&](Xoshiro256& r) {
    Point p(static_cast<size_t>(dim));
    for (double& c : p) c = r.Uniform(options.coord_lo, options.coord_hi);
    return p;
  };

  std::vector<Point> points;
  std::vector<uint32_t> oids;
  points.reserve(options.num_points);
  for (size_t i = 0; i < options.num_points; ++i) {
    points.push_back(random_point(rng));
    oids.push_back(static_cast<uint32_t>(i));
  }
  RETURN_IF_ERROR(index.BulkLoad(points, oids));

  BruteForceIndex::Options oracle_options;
  oracle_options.dim = dim;
  BruteForceIndex oracle(oracle_options);
  RETURN_IF_ERROR(oracle.BulkLoad(points, oids));

  const IoStats before = index.GetIoStats();

  // Pre-generate every thread's schedule so the run is deterministic no
  // matter how the threads interleave.
  struct FuzzQuery {
    Point point;
    QuerySpec spec;
  };
  std::vector<std::vector<FuzzQuery>> schedules(options.num_threads);
  for (int t = 0; t < options.num_threads; ++t) {
    Xoshiro256 trng(options.seed + 0x9e3779b9u * (t + 1));
    schedules[t].reserve(options.queries_per_thread);
    for (size_t i = 0; i < options.queries_per_thread; ++i) {
      FuzzQuery fq;
      if (trng.NextDouble() < 0.5) {
        fq.point = points[trng.NextBounded(points.size())];
        const double scale = 0.01 * (options.coord_hi - options.coord_lo);
        for (double& c : fq.point) c += trng.Gaussian() * scale;
      } else {
        fq.point = random_point(trng);
      }
      switch (i % 3) {
        case 0:
          fq.spec = QuerySpec::Knn(
              1 + static_cast<int>(trng.NextBounded(
                      static_cast<uint64_t>(options.max_k))));
          break;
        case 1:
          fq.spec = QuerySpec::KnnBestFirst(
              1 + static_cast<int>(trng.NextBounded(
                      static_cast<uint64_t>(options.max_k))));
          break;
        default: {
          const Point& anchor = points[trng.NextBounded(points.size())];
          fq.spec = QuerySpec::Range(GetDistanceKernel().L2(fq.point, anchor) *
                                     trng.Uniform(0.8, 1.2));
          break;
        }
      }
      schedules[t].push_back(std::move(fq));
    }
  }

  Mutex fail_mu;
  std::vector<std::string> failures;
  std::vector<IoStatsDelta> per_thread_io(options.num_threads);

  const auto worker = [&](int t) {
    IoStatsDelta io_sum;
    for (size_t i = 0; i < schedules[t].size(); ++i) {
      const FuzzQuery& fq = schedules[t][i];
      const QueryResult got = index.Search(fq.point, fq.spec);
      const QueryResult want = oracle.Search(fq.point, fq.spec);
      io_sum.MergeFrom(got.io);
      std::string error;
      if (!got.status.ok()) {
        error = "status not OK: " + got.status.ToString();
      } else if (got.neighbors.size() != want.neighbors.size()) {
        error = "size mismatch: index returned " +
                std::to_string(got.neighbors.size()) + ", oracle " +
                std::to_string(want.neighbors.size());
      } else {
        for (size_t r = 0; r < got.neighbors.size(); ++r) {
          if (got.neighbors[r].oid != want.neighbors[r].oid ||
              std::abs(got.neighbors[r].distance -
                       want.neighbors[r].distance) > kDistEps) {
            error = "rank " + std::to_string(r) + " mismatch: index=" +
                    FormatNeighbors(got.neighbors) +
                    " oracle=" + FormatNeighbors(want.neighbors);
            break;
          }
        }
      }
      if (!error.empty()) {
        MutexLock lock(fail_mu);
        failures.push_back("thread=" + std::to_string(t) +
                           " query=" + std::to_string(i) + " " + error);
        return;
      }
    }
    per_thread_io[t] = io_sum;
  };

  std::vector<std::thread> threads;
  threads.reserve(options.num_threads);
  for (int t = 0; t < options.num_threads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  const IoStats after = index.GetIoStats();

  const auto fail = [&](const std::string& what) {
    return Status::Corruption("concurrent-fuzz[" + index.name() +
                              " seed=" + std::to_string(options.seed) + "] " +
                              what);
  };
  if (!failures.empty()) return fail(failures[0]);

  // Accounting parity: the per-query deltas of the whole run must add up to
  // exactly the movement of the global counters.
  IoStatsDelta total;
  for (const IoStatsDelta& d : per_thread_io) total.MergeFrom(d);
  IoStatsDelta global;
  global.reads = after.reads - before.reads;
  global.leaf_reads = after.leaf_reads() - before.leaf_reads();
  global.nonleaf_reads = after.nonleaf_reads() - before.nonleaf_reads();
  global.cache_misses = after.cache_misses - before.cache_misses;
  if (!(total == global)) {
    return fail(
        "io accounting parity broken: sum of per-query deltas {reads=" +
        std::to_string(total.reads) + " leaf=" +
        std::to_string(total.leaf_reads) + " nonleaf=" +
        std::to_string(total.nonleaf_reads) + " cache_misses=" +
        std::to_string(total.cache_misses) + "} vs global movement {reads=" +
        std::to_string(global.reads) + " leaf=" +
        std::to_string(global.leaf_reads) + " nonleaf=" +
        std::to_string(global.nonleaf_reads) + " cache_misses=" +
        std::to_string(global.cache_misses) + "}");
  }

  return Status::OK();
}

Status RunMixedReadWriteFuzz(PointIndex& index,
                             const MixedFuzzOptions& options) {
  if (index.size() != 0) {
    return Status::InvalidArgument(
        "RunMixedReadWriteFuzz needs an empty index to load");
  }
  const int dim = index.dim();
  CHECK_GT(options.num_reader_threads, 0);
  CHECK_GT(options.initial_points, 0u);
  CHECK_GT(options.num_mutations, 0u);
  CHECK_GT(options.queries_per_snapshot, 0);

  Xoshiro256 rng(options.seed);
  const auto random_point = [&](Xoshiro256& r) {
    Point p(static_cast<size_t>(dim));
    for (double& c : p) c = r.Uniform(options.coord_lo, options.coord_hi);
    return p;
  };

  std::vector<Point> initial_points;
  std::vector<uint32_t> initial_oids;
  initial_points.reserve(options.initial_points);
  for (size_t i = 0; i < options.initial_points; ++i) {
    initial_points.push_back(random_point(rng));
    initial_oids.push_back(static_cast<uint32_t>(i));
  }
  RETURN_IF_ERROR(index.BulkLoad(initial_points, initial_oids));

  // The whole test hinges on version() advancing by one per committed
  // mutation; a pass-through snapshot (version 0) has nothing to verify.
  const uint64_t v0 = index.AcquireSnapshot()->version();
  if (v0 == 0) {
    return Status::InvalidArgument(
        "RunMixedReadWriteFuzz requires snapshot isolation (" + index.name() +
        " reports version 0)");
  }

  // Pre-generate the writer's schedule against a simulated live set, so
  // every delete targets a pair that is live at its point in writer order
  // and every op is guaranteed to succeed. A snapshot at version v0 + k
  // then corresponds to exactly ops[0..k).
  struct MutationOp {
    bool is_delete = false;
    Point point;
    uint32_t oid = 0;
  };
  std::vector<MutationOp> ops;
  ops.reserve(options.num_mutations);
  {
    std::vector<std::pair<Point, uint32_t>> sim_live;
    sim_live.reserve(options.initial_points + options.num_mutations);
    for (size_t i = 0; i < options.initial_points; ++i) {
      sim_live.emplace_back(initial_points[i], initial_oids[i]);
    }
    uint32_t next_oid = static_cast<uint32_t>(options.initial_points);
    for (size_t i = 0; i < options.num_mutations; ++i) {
      MutationOp mop;
      if (!sim_live.empty() && rng.NextDouble() < options.delete_fraction) {
        const size_t pick = rng.NextBounded(sim_live.size());
        mop.is_delete = true;
        mop.point = sim_live[pick].first;
        mop.oid = sim_live[pick].second;
        sim_live[pick] = std::move(sim_live.back());
        sim_live.pop_back();
      } else {
        mop.point = random_point(rng);
        mop.oid = next_oid++;
        sim_live.emplace_back(mop.point, mop.oid);
      }
      ops.push_back(std::move(mop));
    }
  }

  Mutex fail_mu;
  std::vector<std::string> failures;
  const auto report = [&](std::string what) {
    MutexLock lock(fail_mu);
    failures.push_back(std::move(what));
  };
  std::atomic<bool> writer_done{false};

  const auto writer = [&]() {
    for (size_t i = 0; i < ops.size(); ++i) {
      const MutationOp& mop = ops[i];
      const Status st = mop.is_delete ? index.Delete(mop.point, mop.oid)
                                      : index.Insert(mop.point, mop.oid);
      if (!st.ok()) {
        report("writer op=" + std::to_string(i) + " (" +
               (mop.is_delete ? "delete" : "insert") + " oid=" +
               std::to_string(mop.oid) + ") failed: " + st.ToString());
        break;
      }
      if (options.compact_every > 0 &&
          (i + 1) % options.compact_every == 0) {
        if (Status cst = index.Compact(); !cst.ok()) {
          report("writer Compact() after op=" + std::to_string(i) +
                 " failed: " + cst.ToString());
          break;
        }
      }
    }
    writer_done.store(true, std::memory_order_seq_cst);
  };

  const auto reader = [&](int t) {
    // Thread-local oracle tracking the committed prefix this reader has
    // replayed so far. Snapshot versions are monotone within one reader, so
    // the replay only ever moves forward.
    BruteForceIndex::Options oracle_options;
    oracle_options.dim = dim;
    BruteForceIndex oracle(oracle_options);
    if (Status st = oracle.BulkLoad(initial_points, initial_oids); !st.ok()) {
      report("reader=" + std::to_string(t) +
             " oracle bulk load failed: " + st.ToString());
      return;
    }
    size_t applied = 0;
    Xoshiro256 trng(options.seed + 0x9e3779b9u * (t + 1));
    uint64_t iter = 0;
    uint64_t query_counter = 0;
    // One extra pass after the writer finishes so the fully-committed state
    // is always verified at least once per reader.
    bool final_pass_done = false;
    while (!final_pass_done) {
      if (writer_done.load(std::memory_order_seq_cst)) final_pass_done = true;
      const std::unique_ptr<IndexSnapshot> snap = index.AcquireSnapshot();
      const uint64_t version = snap->version();
      const auto fail = [&](const std::string& what) {
        report("reader=" + std::to_string(t) + " iter=" +
               std::to_string(iter) + " version=" + std::to_string(version) +
               " " + what);
      };
      if (version < v0 + applied) {
        fail("version went backwards (already replayed " +
             std::to_string(applied) + " ops past v0=" + std::to_string(v0) +
             ")");
        return;
      }
      const size_t k = static_cast<size_t>(version - v0);
      if (k > ops.size()) {
        fail("version beyond the schedule (" + std::to_string(k) + " > " +
             std::to_string(ops.size()) + " ops)");
        return;
      }
      // Replay the committed prefix the snapshot claims to pin.
      for (; applied < k; ++applied) {
        const MutationOp& mop = ops[applied];
        const Status st = mop.is_delete ? oracle.Delete(mop.point, mop.oid)
                                        : oracle.Insert(mop.point, mop.oid);
        if (!st.ok()) {
          fail("oracle replay of op=" + std::to_string(applied) +
               " failed: " + st.ToString());
          return;
        }
      }
      if (snap->size() != oracle.size()) {
        fail("snapshot size " + std::to_string(snap->size()) +
             " != oracle size " + std::to_string(oracle.size()));
        return;
      }
      for (int q = 0; q < options.queries_per_snapshot; ++q) {
        Point point;
        if (trng.NextDouble() < 0.5) {
          point = initial_points[trng.NextBounded(initial_points.size())];
          const double scale = 0.01 * (options.coord_hi - options.coord_lo);
          for (double& c : point) c += trng.Gaussian() * scale;
        } else {
          point = random_point(trng);
        }
        QuerySpec spec;
        switch (query_counter++ % 3) {
          case 0:
            spec = QuerySpec::Knn(
                1 + static_cast<int>(trng.NextBounded(
                        static_cast<uint64_t>(options.max_k))));
            break;
          case 1:
            spec = QuerySpec::KnnBestFirst(
                1 + static_cast<int>(trng.NextBounded(
                        static_cast<uint64_t>(options.max_k))));
            break;
          default: {
            const Point& anchor =
                initial_points[trng.NextBounded(initial_points.size())];
            spec = QuerySpec::Range(GetDistanceKernel().L2(point, anchor) *
                                    trng.Uniform(0.8, 1.2));
            break;
          }
        }
        const QueryResult got = snap->Search(point, spec);
        const QueryResult want = oracle.Search(point, spec);
        std::string error;
        if (!got.status.ok()) {
          error = "status not OK: " + got.status.ToString();
        } else if (got.neighbors.size() != want.neighbors.size()) {
          error = "size mismatch: snapshot returned " +
                  std::to_string(got.neighbors.size()) + ", oracle " +
                  std::to_string(want.neighbors.size());
        } else {
          for (size_t r = 0; r < got.neighbors.size(); ++r) {
            if (got.neighbors[r].oid != want.neighbors[r].oid ||
                std::abs(got.neighbors[r].distance -
                         want.neighbors[r].distance) > kDistEps) {
              error = "rank " + std::to_string(r) + " mismatch: snapshot=" +
                      FormatNeighbors(got.neighbors) +
                      " oracle=" + FormatNeighbors(want.neighbors);
              break;
            }
          }
        }
        if (!error.empty()) {
          fail("query=" + std::to_string(q) + " " + error);
          return;
        }
      }
      ++iter;
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(options.num_reader_threads) + 1);
  for (int t = 0; t < options.num_reader_threads; ++t) {
    threads.emplace_back(reader, t);
  }
  threads.emplace_back(writer);
  for (std::thread& t : threads) t.join();

  const auto fail = [&](const std::string& what) {
    return Status::Corruption("mixed-fuzz[" + index.name() +
                              " seed=" + std::to_string(options.seed) + "] " +
                              what);
  };
  if (!failures.empty()) return fail(failures[0]);

  // Quiesced epilogue: the final committed version must account for every
  // scheduled mutation, the tree must still audit clean, and the live state
  // must match a full oracle replay.
  std::unique_ptr<IndexSnapshot> final_snap = index.AcquireSnapshot();
  if (final_snap->version() != v0 + ops.size()) {
    return fail("final version " + std::to_string(final_snap->version()) +
                " != v0 + mutations = " + std::to_string(v0 + ops.size()));
  }
  if (Status st = index.CheckInvariants(); !st.ok()) {
    return fail("final invariant check failed: " + st.ToString());
  }
  BruteForceIndex::Options oracle_options;
  oracle_options.dim = dim;
  BruteForceIndex oracle(oracle_options);
  RETURN_IF_ERROR(oracle.BulkLoad(initial_points, initial_oids));
  for (size_t i = 0; i < ops.size(); ++i) {
    const Status st = ops[i].is_delete
                          ? oracle.Delete(ops[i].point, ops[i].oid)
                          : oracle.Insert(ops[i].point, ops[i].oid);
    if (!st.ok()) {
      return fail("final oracle replay of op=" + std::to_string(i) +
                  " failed: " + st.ToString());
    }
  }
  if (index.size() != oracle.size()) {
    return fail("final size " + std::to_string(index.size()) +
                " != oracle size " + std::to_string(oracle.size()));
  }

  // Leak check: with every reader joined and the final snapshot still
  // pinned above, only that one guard may hold retirees back. Release is
  // the caller's job for final_snap, so reclaim against the live state:
  // everything retired before the final commit must free now — a nonzero
  // residue (beyond what final_snap pins) means unlink-before-retire or
  // the epoch tags are wrong, exactly what ASan/LSan cannot see because
  // the memory is still referenced.
  if (EpochManager* epochs = index.epoch_domain_for_test()) {
    final_snap.reset();
    epochs->ReclaimExpired();
    const size_t residue = epochs->retired_count();
    if (residue != 0) {
      return fail("epoch reclamation left " + std::to_string(residue) +
                  " retired object(s) after all readers quiesced");
    }
  }
  return Status::OK();
}

Status MutationFuzzer::Run(std::unique_ptr<PointIndex>& index,
                           const ReopenFn& reopen) {
  CHECK(index != nullptr);
  const int dim = index->dim();
  stats_ = {};

  BruteForceIndex::Options oracle_options;
  oracle_options.dim = dim;
  BruteForceIndex oracle(oracle_options);

  Xoshiro256 rng(options_.seed);
  std::vector<std::pair<Point, uint32_t>> live;
  uint32_t next_oid = 0;
  uint64_t op = 0;
  size_t batch_index = 0;

  const auto fail = [&](const std::string& what) {
    return Status::Corruption("fuzz[" + index->name() +
                              " seed=" + std::to_string(options_.seed) +
                              " op=" + std::to_string(op) +
                              " batch=" + std::to_string(batch_index) + "] " +
                              what);
  };

  const auto random_point = [&]() {
    Point p(static_cast<size_t>(dim));
    for (double& c : p) c = rng.Uniform(options_.coord_lo, options_.coord_hi);
    return p;
  };

  const auto query_point = [&]() {
    if (!live.empty() && rng.NextDouble() < 0.5) {
      Point p = live[rng.NextBounded(live.size())].first;
      const double scale = 0.01 * (options_.coord_hi - options_.coord_lo);
      for (double& c : p) c += rng.Gaussian() * scale;
      return p;
    }
    return random_point();
  };

  const auto compare = [&](const char* tag, const Point& q,
                           const std::vector<Neighbor>& got,
                           const std::vector<Neighbor>& want) {
    if (got.size() != want.size()) {
      return fail(std::string(tag) + " size mismatch: index returned " +
                  std::to_string(got.size()) + ", oracle " +
                  std::to_string(want.size()) + "; index=" +
                  FormatNeighbors(got) + " oracle=" + FormatNeighbors(want));
    }
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].oid != want[i].oid ||
          std::abs(got[i].distance - want[i].distance) > kDistEps) {
        return fail(std::string(tag) + " rank " + std::to_string(i) +
                    " mismatch near query " + std::to_string(q[0]) +
                    ",...: index=" + FormatNeighbors(got) +
                    " oracle=" + FormatNeighbors(want));
      }
    }
    return Status::OK();
  };

  const auto audit = [&]() {
    ++stats_.audits;
    const std::vector<Violation> violations =
        StructuralAuditor().Audit(*index);
    if (!violations.empty()) {
      return fail("audit found " + std::to_string(violations.size()) +
                  " violation(s); first: " + FormatViolation(violations[0]));
    }
    if (index->size() != oracle.size()) {
      return fail("size() diverged: index " + std::to_string(index->size()) +
                  " vs oracle " + std::to_string(oracle.size()));
    }
    return Status::OK();
  };

  // All oracle comparisons go through the unified Search() entry point —
  // the same path production callers use — so a wrapper-only regression
  // cannot slip past the fuzzer.
  const auto checked_search = [&](const char* tag, const Point& q,
                                  const QuerySpec& spec) -> StatusOr<QueryResult> {
    QueryResult r = index->Search(q, spec);
    if (!r.status.ok()) {
      return fail(std::string(tag) + " search failed: " + r.status.ToString());
    }
    return r;
  };

  const auto run_queries = [&]() {
    for (int i = 0; i < options_.knn_queries_per_batch; ++i) {
      ++stats_.knn_queries;
      const Point q = query_point();
      const int k = 1 + static_cast<int>(rng.NextBounded(
                            static_cast<uint64_t>(options_.max_k)));
      StatusOr<QueryResult> got = checked_search("knn", q, QuerySpec::Knn(k));
      RETURN_IF_ERROR(got.status());
      RETURN_IF_ERROR(compare("knn", q, got.value().neighbors,
                              oracle.Search(q, QuerySpec::Knn(k)).neighbors));
      StatusOr<QueryResult> best =
          checked_search("knn-best-first", q, QuerySpec::KnnBestFirst(k));
      RETURN_IF_ERROR(best.status());
      RETURN_IF_ERROR(compare("knn-best-first", q, best.value().neighbors,
                              got.value().neighbors));
    }
    for (int i = 0; i < options_.range_queries_per_batch; ++i) {
      ++stats_.range_queries;
      const Point q = query_point();
      double radius;
      if (!live.empty()) {
        const Point& anchor = live[rng.NextBounded(live.size())].first;
        radius = GetDistanceKernel().L2(q, anchor) * rng.Uniform(0.8, 1.2);
      } else {
        radius = rng.Uniform(0.0, options_.coord_hi - options_.coord_lo);
      }
      StatusOr<QueryResult> got =
          checked_search("range", q, QuerySpec::Range(radius));
      RETURN_IF_ERROR(got.status());
      RETURN_IF_ERROR(
          compare("range", q, got.value().neighbors,
                  oracle.Search(q, QuerySpec::Range(radius)).neighbors));
    }
    return Status::OK();
  };

  // Optional bulk-loaded starting population (the only way to exercise
  // static structures).
  if (options_.initial_points > 0) {
    std::vector<Point> points;
    std::vector<uint32_t> oids;
    points.reserve(options_.initial_points);
    for (size_t i = 0; i < options_.initial_points; ++i) {
      points.push_back(random_point());
      oids.push_back(next_oid);
      live.emplace_back(points.back(), next_oid);
      ++next_oid;
    }
    Status st = index->BulkLoad(points, oids);
    if (!st.ok()) return fail("bulk load failed: " + st.ToString());
    st = oracle.BulkLoad(points, oids);
    if (!st.ok()) return fail("oracle bulk load failed: " + st.ToString());
  }

  // A separate generator keeps the regular schedule identical to a run
  // without probes.
  Xoshiro256 probe_rng(options_.seed ^ 0x6e6f6e2d66696e69ull);
  const auto probe_non_finite = [&]() {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kBad[] = {std::numeric_limits<double>::quiet_NaN(), kInf,
                               -kInf};
    Point p(static_cast<size_t>(dim));
    for (double& c : p) {
      c = probe_rng.Uniform(options_.coord_lo, options_.coord_hi);
    }
    p[probe_rng.NextBounded(p.size())] = kBad[probe_rng.NextBounded(3)];
    const uint32_t oid = next_oid + 2'000'000;
    const size_t size_before = index->size();
    const uint64_t version_before = index->AcquireSnapshot()->version();
    const Status inserted = index->Insert(p, oid);
    const Status deleted = index->Delete(p, oid);
    if (!inserted.IsInvalidArgument() || !deleted.IsInvalidArgument()) {
      return fail("non-finite point: insert said " + inserted.ToString() +
                  ", delete said " + deleted.ToString());
    }
    if (index->size() != size_before ||
        index->AcquireSnapshot()->version() != version_before) {
      return fail("a rejected non-finite mutation changed the index");
    }
    ++stats_.non_finite_rejects;
    return Status::OK();
  };

  const auto one_mutation = [&]() {
    ++op;
    if (op % kNonFiniteProbeEvery == 0) RETURN_IF_ERROR(probe_non_finite());
    const bool do_delete =
        !live.empty() && rng.NextDouble() < options_.delete_fraction;
    if (do_delete) {
      if (rng.NextDouble() < options_.missing_delete_fraction) {
        // Absent key: both sides must answer NotFound.
        ++stats_.missing_deletes;
        const Point p = random_point();
        const uint32_t oid = next_oid + 1'000'000;
        const Status a = index->Delete(p, oid);
        const Status b = oracle.Delete(p, oid);
        if (a.code() != b.code() || !a.IsNotFound()) {
          return fail("missing-key delete: index said " + a.ToString() +
                      ", oracle said " + b.ToString());
        }
        return Status::OK();
      }
      ++stats_.deletes;
      const size_t pick = rng.NextBounded(live.size());
      const Point p = live[pick].first;
      const uint32_t oid = live[pick].second;
      const Status a = index->Delete(p, oid);
      const Status b = oracle.Delete(p, oid);
      if (!a.ok() || !b.ok()) {
        return fail("live delete of oid " + std::to_string(oid) +
                    ": index said " + a.ToString() + ", oracle said " +
                    b.ToString());
      }
      live[pick] = live.back();
      live.pop_back();
      return Status::OK();
    }
    ++stats_.inserts;
    Point p;
    if (!live.empty() && rng.NextDouble() < options_.duplicate_fraction) {
      p = live[rng.NextBounded(live.size())].first;  // duplicate point
    } else {
      p = random_point();
    }
    const uint32_t oid = next_oid++;
    const Status a = index->Insert(p, oid);
    const Status b = oracle.Insert(p, oid);
    if (!a.ok() || !b.ok()) {
      return fail("insert of oid " + std::to_string(oid) + ": index said " +
                  a.ToString() + ", oracle said " + b.ToString());
    }
    live.emplace_back(std::move(p), oid);
    return Status::OK();
  };

  const auto end_batch = [&]() {
    RETURN_IF_ERROR(run_queries());
    if (options_.audit_every_batch) RETURN_IF_ERROR(audit());
    if (options_.compact_every_batches > 0 &&
        (batch_index + 1) % options_.compact_every_batches == 0) {
      ++stats_.compacts;
      if (Status st = index->Compact(); !st.ok()) {
        return fail("Compact() failed: " + st.ToString());
      }
      // Compaction changes representation, not contents: the same queries
      // and audit must pass against the unchanged oracle.
      RETURN_IF_ERROR(audit());
      RETURN_IF_ERROR(run_queries());
    }
    if (reopen != nullptr && options_.reopen_every_batches > 0 &&
        (batch_index + 1) % options_.reopen_every_batches == 0) {
      ++stats_.reopens;
      StatusOr<std::unique_ptr<PointIndex>> reopened = reopen(*index);
      if (!reopened.ok()) {
        return fail("reopen failed: " + reopened.status().ToString());
      }
      index = std::move(reopened).value();
      CHECK(index != nullptr);
      RETURN_IF_ERROR(audit());
      RETURN_IF_ERROR(run_queries());
    }
    ++batch_index;
    return Status::OK();
  };

  if (options_.num_mutations == 0) {
    for (size_t b = 0; b < options_.query_only_batches; ++b) {
      RETURN_IF_ERROR(probe_non_finite());
      RETURN_IF_ERROR(end_batch());
    }
  } else {
    size_t done = 0;
    while (done < options_.num_mutations) {
      const size_t batch =
          std::min(options_.batch_size, options_.num_mutations - done);
      for (size_t i = 0; i < batch; ++i) {
        RETURN_IF_ERROR(one_mutation());
      }
      done += batch;
      RETURN_IF_ERROR(end_batch());
    }
  }

  // Final audit so a run that ends mid-batch still leaves a verified tree.
  RETURN_IF_ERROR(audit());
  return Status::OK();
}

}  // namespace srtree::debug
