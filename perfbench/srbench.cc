// The repository benchmark: k = 21 nearest-neighbor serving on the SR-tree
// system, in three workloads chosen so that different layers dominate (see
// perfbench/README.md for the metric -> layer table).
//
//   sr-uniform-read   uniform data, n = 20,000, dynamic SR-tree built by
//                     Insert, 4 engine workers. The paper's Fig. 3/10 case:
//                     at D = 16 pruning fails and a query reads nearly every
//                     page, so page fetch, node decode and the leaf scan
//                     dominate, and the index fits in L3.
//   tiered-real-read  histogram data, n = 1,000,000, TieredIndex (95%
//                     BulkLoad, 5% delta Inserts, 0.2% tombstones), 4
//                     workers. The serving arrangement at scale: selective
//                     zero-decode reads over an index larger than L3.
//   sr-real-mixed     histogram data, n = 100,000, dynamic SR-tree, 3 reader
//                     workers beside one open-loop writer at 2,000
//                     mutations/s. Copy-on-write commits, epoch reclamation
//                     and per-batch snapshots share the machine with reads.
//
// Every input (data, query anchors, writer schedule) is generated before
// any timing starts (see MakeInputs for what --seed draws), and the library
// is driven only through its public calls, timed from outside. Queries come
// from one client in a closed loop of 64-query RunBatch calls.
//
// Usage: srbench --workload NAME --seed N --seconds S --trace 0|1
//                [--trace-out FILE]
// The last stdout line is the result object; the line before it stamps the
// machine and build the result is comparable on.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/bench_support.h"
#include "perfbench/probes.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/engine/query_engine.h"
#include "src/index/index_factory.h"
#include "src/storage/epoch.h"
#include "src/workload/histogram.h"
#include "src/workload/uniform.h"

namespace perfbench {
namespace {

using srtree::EngineOptions;
using srtree::EpochManager;
using srtree::IndexConfig;
using srtree::IndexType;
using srtree::MakeIndex;
using srtree::Neighbor;
using srtree::Point;
using srtree::PointIndex;
using srtree::PointView;
using srtree::Query;
using srtree::QueryEngine;
using srtree::QueryResult;
using srtree::QuerySpec;
using srtree::Status;
using srtree::Xoshiro256;

constexpr int kDim = 16;
constexpr int kK = 21;
constexpr size_t kBatchSize = 64;
// Distinct queries, cycled in 64 batches. Fewer make reads/query on the
// clustered data depend visibly on which anchors a seed draws.
constexpr size_t kPoolQueries = 4096;
constexpr size_t kProbeQueries = 1024;  // per engine/Search pass, traced run
constexpr size_t kOracleQueries = 64;   // checked against brute force
constexpr size_t kFreshPoints = 4096;   // the writer's insert pool
constexpr uint32_t kFreshOidBase = 100'000'000;  // above every data oid
constexpr double kWriteRate = 2000.0;   // mutations/s, open loop
// The writer's first operations are not timed: in trials, its service time
// right after a read phase fell by half over the first ~1.5 s.
constexpr size_t kWriterWarmupOps = 3000;
// Writer latency quantiles and query throughput are medians over this many
// runs of consecutive operations or batches.
constexpr size_t kWriterSegments = 5;
constexpr size_t kReadSegments = 5;
constexpr size_t kAcquireCalls = 20000;
constexpr size_t kDeleteEdge = 16;      // deletes in the first/last medians

struct Workload {
  const char* name;
  bool real_data;
  size_t n;
  bool tiered;
  int workers;
  bool concurrent_writer;
  // Builds per untraced run; setup_s is their median. A fixed count, so
  // every run takes the median of as many samples. The quick build gets
  // more of them to ride out bursts of outside interference.
  int setups;
};

constexpr Workload kWorkloads[] = {
    {"sr-uniform-read", false, 20'000, false, 4, false, 15},
    {"tiered-real-read", true, 1'000'000, true, 4, false, 3},
    {"sr-real-mixed", true, 100'000, false, 3, true, 3},
};

// Attempted operations and failures (non-OK status, short result, result
// that differs from the oracle or from an earlier run of the same query).
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const OpCounts& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 31;
  return z;
}

// Everything the library sees, generated before timing starts.
struct Inputs {
  // Tiered: the BulkLoad slice and the delta Inserts. Dynamic: the Insert
  // order is base then delta (the split only matters to the tier probe).
  std::vector<Point> base;
  std::vector<uint32_t> base_oids;
  std::vector<Point> delta;
  std::vector<uint32_t> delta_oids;
  std::vector<size_t> tombstones;  // base indices deleted at set-up (tiered)
  std::vector<Point> fresh;        // held out of the data for the writer
  std::vector<Query> queries;      // anchors sampled from the data (§3.1)
  std::vector<size_t> oracle_slots;
};

// Each workload's data set, and so the order its points are inserted in,
// is fixed; `seed` draws the query anchors, the tombstones and the oracle
// sample. A tree built by Insert depends on the insertion order: on
// sr-real-mixed, five orders gave 274 to 352 reads/query. The histogram
// generator's seed also picks its 64 Zipf-weighted scene prototypes, a
// different distribution. Neither is run-to-run noise in the code measured.
constexpr uint64_t kDataSeed = 1997;

Inputs MakeInputs(const Workload& w, uint64_t seed) {
  const size_t total = w.n + kFreshPoints;
  srtree::Dataset data;
  if (w.real_data) {
    srtree::HistogramConfig config;
    config.n = total;
    config.dim = kDim;
    config.seed = kDataSeed;
    data = srtree::MakeHistogramDataset(config);
  } else {
    data = srtree::MakeUniformDataset(total, kDim, kDataSeed);
  }
  Xoshiro256 rng(StreamSeed(seed, 1));
  const auto copy = [&](size_t i) {
    const PointView p = data.point(i);
    return Point(p.begin(), p.end());
  };
  Inputs in;
  const size_t split = w.n - w.n / 20;
  in.base.reserve(split);
  for (size_t i = 0; i < split; ++i) {
    in.base.push_back(copy(i));
    in.base_oids.push_back(static_cast<uint32_t>(i));
  }
  for (size_t i = split; i < w.n; ++i) {
    in.delta.push_back(copy(i));
    in.delta_oids.push_back(static_cast<uint32_t>(i));
  }
  for (size_t i = w.n; i < total; ++i) in.fresh.push_back(copy(i));

  for (size_t q = 0; q < kPoolQueries; ++q) {
    const size_t i = rng.NextBounded(w.n);
    in.queries.push_back(
        Query{i < split ? in.base[i] : in.delta[i - split],
              QuerySpec::Knn(kK)});
  }
  const auto distinct = [&rng](size_t count, size_t range) {
    std::vector<bool> taken(range, false);
    std::vector<size_t> out;
    while (out.size() < count) {
      const size_t i = rng.NextBounded(range);
      if (taken[i]) continue;
      taken[i] = true;
      out.push_back(i);
    }
    return out;
  };
  in.tombstones = distinct(std::max<size_t>(1, split / 500), split);
  in.oracle_slots = distinct(kOracleQueries, kPoolQueries);
  return in;
}

IndexConfig DefaultConfig() {
  IndexConfig config;  // 8 KB pages, 512-byte leaf data: Table 1 fanouts
  config.dim = kDim;
  return config;
}

struct Setup {
  std::unique_ptr<PointIndex> index;
  double seconds = 0;
  double bulkload_s = 0;   // tiered only
  Samples insert_us;       // every Insert of the build
  Samples delete_us;       // tombstone Deletes, in order (tiered only)
  uint64_t insert_writes = 0;
};

// Builds the workload's index from the generated inputs; the timed span
// excludes data generation.
Setup BuildIndex(bool tiered, const Inputs& in, SpanLog& log, OpCounts& ops) {
  Setup s;
  const int64_t start = NowNs();
  s.index = MakeIndex(tiered ? IndexType::kTieredSRTree : IndexType::kSRTree,
                      DefaultConfig());
  const auto insert_all = [&](const std::vector<Point>& points,
                              const std::vector<uint32_t>& oids) {
    for (size_t i = 0; i < points.size(); ++i) {
      const int64_t t0 = NowNs();
      const Status st = s.index->Insert(points[i], oids[i]);
      const int64_t t1 = NowNs();
      ops.Count(st.ok());
      s.insert_us.Add(static_cast<double>(t1 - t0) / 1e3);
      log.Record("Insert", t0, t1, oids[i]);
    }
  };
  if (tiered) {
    const int64_t t0 = NowNs();
    ops.Count(s.index->BulkLoad(in.base, in.base_oids).ok());
    const int64_t t1 = NowNs();
    s.bulkload_s = static_cast<double>(t1 - t0) / 1e9;
    log.Record("BulkLoad", t0, t1, 0);
  }
  const uint64_t writes_before = s.index->GetIoStats().writes;
  if (!tiered) insert_all(in.base, in.base_oids);
  insert_all(in.delta, in.delta_oids);
  s.insert_writes = s.index->GetIoStats().writes - writes_before;
  if (tiered) {
    for (const size_t i : in.tombstones) {
      const int64_t t0 = NowNs();
      const Status st = s.index->Delete(in.base[i], in.base_oids[i]);
      const int64_t t1 = NowNs();
      ops.Count(st.ok());
      s.delete_us.Add(static_cast<double>(t1 - t0) / 1e3);
      log.Record("Delete", t0, t1, in.base_oids[i]);
    }
  }
  s.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return s;
}

// Checks every query result: OK status and a full k results, and, where the
// index does not change between runs of a query, the same neighbors and
// page reads as the query's first run.
class ResultChecker {
 public:
  explicit ResultChecker(bool repeatable)
      : repeatable_(repeatable),
        first_(kPoolQueries),
        first_reads_(kPoolQueries, 0),
        seen_(kPoolQueries, false) {}

  void Check(size_t slot, const QueryResult& r, OpCounts& ops) {
    bool ok = r.status.ok() && r.neighbors.size() == static_cast<size_t>(kK);
    if (repeatable_ && ok) {
      if (!seen_[slot]) {
        seen_[slot] = true;
        first_[slot] = r.neighbors;
        first_reads_[slot] = r.io.reads;
      } else {
        ok = r.neighbors == first_[slot] && r.io.reads == first_reads_[slot];
      }
    }
    ops.Count(ok);
  }

  // Mean reads over the query pool, each query counted once: an exact
  // repeat across runs of one seed. Requires a full pass over the pool.
  double PoolReadsPerQuery() const {
    uint64_t sum = 0;
    for (size_t i = 0; i < kPoolQueries; ++i) {
      CHECK(seen_[i]);
      sum += first_reads_[i];
    }
    return static_cast<double>(sum) / kPoolQueries;
  }

 private:
  bool repeatable_;
  std::vector<std::vector<Neighbor>> first_;
  std::vector<uint64_t> first_reads_;
  std::vector<bool> seen_;
};

struct ReadStats {
  size_t queries = 0;
  size_t batches = 0;
  double wall_s = 0;
  Samples batch_ms;
  Samples service_us;  // per-query QueryResult::elapsed_seconds
  uint64_t reads = 0;
  uint64_t steals = 0;
  uint64_t backlog_max = 0;

  double qps() const { return static_cast<double>(queries) / wall_s; }

  // Median over `segments` equal runs of consecutive batches of each run's
  // throughput, so a burst of outside interference that slows one run
  // does not move it. Every batch holds kBatchSize queries.
  double SegmentedQps(size_t segments) const {
    const std::vector<double>& ms = batch_ms.values();
    segments = std::max<size_t>(1, std::min(segments, ms.size()));
    Samples per_segment;
    for (size_t s = 0; s < segments; ++s) {
      const size_t begin = s * ms.size() / segments;
      const size_t end = (s + 1) * ms.size() / segments;
      double sum_ms = 0;
      for (size_t i = begin; i < end; ++i) sum_ms += ms[i];
      per_segment.Add(static_cast<double>((end - begin) * kBatchSize) /
                      (sum_ms / 1e3));
    }
    return per_segment.Median();
  }
};

// Closed loop of 64-query RunBatch calls over the query pool, for at least
// `seconds` and at least `min_queries` queries.
ReadStats RunReads(QueryEngine& engine, const Inputs& in, double seconds,
                   size_t min_queries, uint64_t& next_batch,
                   ResultChecker& checker, OpCounts& ops, SpanLog& log,
                   const EpochManager* epochs) {
  constexpr size_t kPoolBatches = kPoolQueries / kBatchSize;
  ReadStats st;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  int64_t end = start;
  while (end < deadline || st.queries < min_queries) {
    const uint64_t request = next_batch++;
    const size_t first = (request % kPoolBatches) * kBatchSize;
    const std::span<const Query> batch(in.queries.data() + first, kBatchSize);
    const int64_t t0 = NowNs();
    const std::vector<QueryResult> results = engine.RunBatch(batch);
    end = NowNs();
    log.Record("RunBatch", t0, end, request);
    st.batch_ms.Add(static_cast<double>(end - t0) / 1e6);
    st.steals += engine.last_batch_stats().steals;
    ++st.batches;
    st.queries += results.size();
    for (size_t i = 0; i < results.size(); ++i) {
      checker.Check(first + i, results[i], ops);
      st.reads += results[i].io.reads;
      st.service_us.Add(results[i].elapsed_seconds * 1e6);
    }
    if (epochs != nullptr) {
      st.backlog_max = std::max<uint64_t>(st.backlog_max,
                                          epochs->retired_count());
    }
  }
  st.wall_s = static_cast<double>(end - start) / 1e9;
  return st;
}

// Runs the first `queries` pool queries on a fresh engine with `workers`
// workers and hands the index back.
ReadStats EnginePass(std::unique_ptr<PointIndex>& index, int workers,
                     size_t queries, const Inputs& in, ResultChecker& checker,
                     OpCounts& ops, SpanLog& log) {
  EngineOptions options;
  options.num_workers = workers;
  QueryEngine engine(std::move(index), options);
  uint64_t next_batch = 0;
  ReadStats st = RunReads(engine, in, 0, queries, next_batch, checker, ops,
                          log, nullptr);
  index = engine.ReleaseIndex();
  return st;
}

// The writer: step i inserts a fresh point and deletes the one inserted at
// step i - 2, so the index size stays within +2 of the built size.
struct WriterOp {
  bool insert;
  size_t fresh;
  uint32_t oid;
};

std::vector<WriterOp> MakeWriterPlan(size_t ops) {
  std::vector<WriterOp> plan;
  plan.reserve(ops);
  for (size_t i = 0; plan.size() < ops; ++i) {
    plan.push_back({true, i % kFreshPoints,
                    kFreshOidBase + static_cast<uint32_t>(i)});
    if (i >= 2 && plan.size() < ops) {
      plan.push_back({false, (i - 2) % kFreshPoints,
                      kFreshOidBase + static_cast<uint32_t>(i - 2)});
    }
  }
  return plan;
}

struct WriterStats {
  Samples latency_us;  // completion minus due time
  Samples delete_us;   // service time
  double lateness_us_max = 0;  // how late the generator started an op
  size_t completed = 0;        // plan prefix executed
  uint64_t backlog_max = 0;
  OpCounts ops;
};

// Open loop: op j is due at start_ns + j / kWriteRate whatever happened to
// op j - 1, and its latency is measured from that due time. Operations
// before kWriterWarmupOps are run and checked but not timed.
void RunWriter(PointIndex& index, const Inputs& in,
               const std::vector<WriterOp>& plan,
               const std::atomic<bool>& stop, int64_t start_ns, SpanLog& log,
               WriterStats& out) {
  const EpochManager* epochs = index.epoch_domain_for_test();
  const double interval_ns = 1e9 / kWriteRate;
  for (size_t j = 0; j < plan.size(); ++j) {
    const int64_t due =
        start_ns + static_cast<int64_t>(static_cast<double>(j) * interval_ns);
    if (stop.load(std::memory_order_relaxed)) break;
    SpinUntilNs(due);
    if (stop.load(std::memory_order_relaxed)) break;
    const WriterOp& op = plan[j];
    const Point& p = in.fresh[op.fresh];
    const int64_t t0 = NowNs();
    const Status st = op.insert ? index.Insert(p, op.oid)
                                : index.Delete(p, op.oid);
    const int64_t t1 = NowNs();
    out.ops.Count(st.ok());
    out.completed = j + 1;
    log.Record(op.insert ? "Insert" : "Delete", t0, t1, j);
    if (epochs != nullptr) {
      out.backlog_max = std::max<uint64_t>(out.backlog_max,
                                           epochs->retired_count());
    }
    if (j < kWriterWarmupOps) continue;
    if (!op.insert) out.delete_us.Add(static_cast<double>(t1 - t0) / 1e3);
    out.latency_us.Add(static_cast<double>(t1 - due) / 1e3);
    out.lateness_us_max =
        std::max(out.lateness_us_max, static_cast<double>(t0 - due) / 1e3);
  }
}

// (fresh index, oid) pairs live after the first `completed` plan ops.
std::vector<std::pair<size_t, uint32_t>> LiveFresh(
    const std::vector<WriterOp>& plan, size_t completed) {
  std::unordered_map<uint32_t, size_t> live;
  for (size_t j = 0; j < completed; ++j) {
    if (plan[j].insert) {
      live[plan[j].oid] = plan[j].fresh;
    } else {
      live.erase(plan[j].oid);
    }
  }
  std::vector<std::pair<size_t, uint32_t>> out;
  for (const auto& [oid, fresh] : live) out.emplace_back(fresh, oid);
  return out;
}

// The direct 1-thread Search pass of the traced run.
struct SearchPass {
  Samples search_us;
  double search_ns = 0;
  uint64_t reads = 0;
  uint64_t leaf_reads = 0;
  uint64_t nonleaf_reads = 0;
  size_t queries = 0;
};

SearchPass RunSearchPass(const PointIndex& index, const Inputs& in,
                         ResultChecker& checker, OpCounts& ops,
                         SpanLog& log) {
  SearchPass pass;
  for (size_t i = 0; i < kProbeQueries; ++i) {
    const Query& q = in.queries[i];
    const int64_t t0 = NowNs();
    const QueryResult r = index.Search(q.point, q.spec);
    const int64_t t1 = NowNs();
    log.Record("Search", t0, t1, i);
    checker.Check(i, r, ops);
    pass.search_us.Add(static_cast<double>(t1 - t0) / 1e3);
    pass.search_ns += static_cast<double>(t1 - t0);
    pass.reads += r.io.reads;
    pass.leaf_reads += r.io.leaf_reads;
    pass.nonleaf_reads += r.io.nonleaf_reads;
    ++pass.queries;
  }
  return pass;
}

// Median of the first (or last) kDeleteEdge samples, in the order taken.
double EdgeMedian(const Samples& samples, bool first) {
  const std::vector<double>& v = samples.values();
  Samples edge;
  const size_t n = std::min(kDeleteEdge, v.size());
  for (size_t i = 0; i < n; ++i) edge.Add(first ? v[i] : v[v.size() - 1 - i]);
  return edge.Median();
}

struct TierProbe {
  double bulkload_s = 0;
  double delta_insert_us_p50 = 0;
  double delete_us_first = 0;  // median of the first kDeleteEdge tombstones
  double delete_us_last = 0;   // median of the last kDeleteEdge tombstones
  double compact_s = 0;
  double merge_overhead_us = 0;
};

// Static-tier numbers for a tiered index built by BuildIndex (`built`) and
// not changed since: its set-up times, and the per-query cost of the tier
// merge against standalone trees holding the same two tiers.
TierProbe ProbeTier(PointIndex& tiered, const Setup& built, const Inputs& in,
                    OpCounts& ops, SpanLog& log) {
  TierProbe probe;
  probe.bulkload_s = built.bulkload_s;
  probe.delta_insert_us_p50 = built.insert_us.Median();
  probe.delete_us_first = EdgeMedian(built.delete_us, true);
  probe.delete_us_last = EdgeMedian(built.delete_us, false);

  std::unique_ptr<PointIndex> base =
      MakeIndex(IndexType::kStaticSRTree, DefaultConfig());
  ops.Count(base->BulkLoad(in.base, in.base_oids).ok());
  std::unique_ptr<PointIndex> delta =
      MakeIndex(IndexType::kSRTree, DefaultConfig());
  for (size_t i = 0; i < in.delta.size(); ++i) {
    ops.Count(delta->Insert(in.delta[i], in.delta_oids[i]).ok());
  }
  double tiered_ns = 0, parts_ns = 0;
  for (size_t i = 0; i < kProbeQueries; ++i) {
    const Query& q = in.queries[i];
    int64_t t0 = NowNs();
    const QueryResult a = tiered.Search(q.point, q.spec);
    int64_t t1 = NowNs();
    log.Record("Search.tiered", t0, t1, i);
    tiered_ns += static_cast<double>(t1 - t0);
    t0 = NowNs();
    const QueryResult b = base->Search(q.point, q.spec);
    const QueryResult c = delta->Search(q.point, q.spec);
    t1 = NowNs();
    log.Record("Search.static+delta", t0, t1, i);
    parts_ns += static_cast<double>(t1 - t0);
    ops.Count(a.status.ok() && b.status.ok() && c.status.ok());
  }
  probe.merge_overhead_us = (tiered_ns - parts_ns) / kProbeQueries / 1e3;
  return probe;
}

// One Compact() of a tiered index, in seconds.
double TimeCompact(PointIndex& tiered, OpCounts& ops, SpanLog& log) {
  const int64_t t0 = NowNs();
  ops.Count(tiered.Compact().ok());
  const int64_t t1 = NowNs();
  log.Record("Compact", t0, t1, 0);
  return static_cast<double>(t1 - t0) / 1e9;
}

// Compares a fixed-seed sample of queries, neighbor for neighbor (oid and
// distance, canonical (distance, oid) order), with a brute-force scan over
// the same logical contents. Consumes the index so the scan's copy of the
// data never coexists with it.
void CheckAgainstOracle(std::unique_ptr<PointIndex> index, const Inputs& in,
                        bool tiered,
                        const std::vector<std::pair<size_t, uint32_t>>& fresh,
                        OpCounts& ops) {
  std::vector<QueryResult> got;
  for (const size_t slot : in.oracle_slots) {
    got.push_back(index->Search(in.queries[slot].point, in.queries[slot].spec));
  }
  const size_t expected_size = index->size();
  index.reset();

  IndexConfig config = DefaultConfig();
  config.leaf_data_size = 0;  // the scan's page accounting is not compared
  std::unique_ptr<PointIndex> oracle = MakeIndex(IndexType::kScan, config);
  std::vector<bool> dead(in.base.size(), false);
  if (tiered) {
    for (const size_t i : in.tombstones) dead[i] = true;
  }
  for (size_t i = 0; i < in.base.size(); ++i) {
    if (!dead[i]) CHECK(oracle->Insert(in.base[i], in.base_oids[i]).ok());
  }
  for (size_t i = 0; i < in.delta.size(); ++i) {
    CHECK(oracle->Insert(in.delta[i], in.delta_oids[i]).ok());
  }
  for (const auto& [f, oid] : fresh) {
    CHECK(oracle->Insert(in.fresh[f], oid).ok());
  }
  ops.Count(oracle->size() == expected_size);
  for (size_t i = 0; i < in.oracle_slots.size(); ++i) {
    const Query& q = in.queries[in.oracle_slots[i]];
    const QueryResult want = oracle->Search(q.point, q.spec);
    CHECK(want.status.ok());
    ops.Count(got[i].status.ok() && got[i].neighbors == want.neighbors);
  }
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) return false;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return args.workload != nullptr && args.seconds > 0 && args.trace >= 0;
}

int Run(const Args& args) {
  const Workload& w = *args.workload;
  const bool trace = args.trace == 1;
  const bool read_only = !w.concurrent_writer;
  const MachineStamp stamp = GetMachineStamp();
  CHECK_LE(w.workers, stamp.nproc);

  SpanLog main_log(trace), writer_log(trace), quiet(false);
  OpCounts ops;
  MetricSet metrics;

  const Inputs in = MakeInputs(w, StreamSeed(args.seed, 0));

  // Set-up: repeated in untraced runs so setup_s is a median; traced runs
  // build once.
  Samples setup_s;
  Setup setup;
  const size_t builds = trace ? 1 : static_cast<size_t>(w.setups);
  while (setup_s.size() < builds) {
    setup.index.reset();
    setup = BuildIndex(w.tiered, in, main_log, ops);
    setup_s.Add(setup.seconds);
  }
  const srtree::TreeStats tree = setup.index->GetTreeStats();
  const srtree::MaintenanceStats maintenance =
      setup.index->GetMaintenanceStats();
  PointIndex* const raw = setup.index.get();
  const EpochManager* const epochs = raw->epoch_domain_for_test();
  std::unique_ptr<PointIndex> index;

  // Measured read phase (with the concurrent writer on sr-real-mixed).
  ResultChecker checker(read_only);
  ReadStats reads, traced_reads;
  WriterStats writer;
  // sr-real-mixed runs the writer beside its readers, which stop it. The
  // traced run of a read-only workload runs it alone after the read phase,
  // for half as long again, for the write-path layer metrics.
  std::vector<WriterOp> plan = MakeWriterPlan(
      kWriterWarmupOps +
      static_cast<size_t>(kWriteRate *
                          (read_only ? args.seconds / 2 : args.seconds + 5)));
  {
    EngineOptions options;
    options.num_workers = w.workers;
    QueryEngine engine(std::move(setup.index), options);
    uint64_t next_batch = 0;
    (void)RunReads(engine, in, 0, 2 * kBatchSize, next_batch, checker, ops,
                   quiet, nullptr);  // warm-up
    std::atomic<bool> stop{false};
    std::thread writer_thread;
    if (!read_only) {
      const int64_t start = NowNs();
      writer_thread = std::thread([&] {
        RunWriter(*raw, in, plan, stop, start, writer_log, writer);
      });
    }
    const size_t min_queries = read_only ? kPoolQueries : 0;
    if (trace) {
      // Untraced then traced halves: their ratio is the tracing overhead.
      reads = RunReads(engine, in, args.seconds / 2, min_queries, next_batch,
                       checker, ops, quiet, epochs);
      traced_reads = RunReads(engine, in, args.seconds / 2, 0, next_batch,
                              checker, ops, main_log, epochs);
    } else {
      reads = RunReads(engine, in, args.seconds, min_queries, next_batch,
                       checker, ops, quiet, epochs);
    }
    stop.store(true, std::memory_order_relaxed);
    if (writer_thread.joinable()) writer_thread.join();
    index = engine.ReleaseIndex();
  }

  // Traced only: engine scaling, direct Search and (tiered) the tier merge
  // on the quiet index, before the read-only workloads' writer changes it.
  ResultChecker after_writer(true);
  ResultChecker& quiet_checker = read_only ? checker : after_writer;
  ReadStats pass4, pass1;
  SearchPass search;
  TierProbe tier;
  if (trace) {
    // Both passes run the same first kProbeQueries pool queries, after the
    // read phase has warmed the caches on them, so they differ only in the
    // worker count.
    pass4 = EnginePass(index, 4, kProbeQueries, in, quiet_checker, ops,
                       main_log);
    pass1 = EnginePass(index, 1, kProbeQueries, in, quiet_checker, ops,
                       main_log);
    search = RunSearchPass(*index, in, quiet_checker, ops, main_log);
    if (w.tiered) tier = ProbeTier(*index, setup, in, ops, main_log);
  }

  if (read_only && trace) {
    const std::atomic<bool> never{false};
    RunWriter(*index, in, plan, never, NowNs() + 1'000'000, writer_log,
              writer);
  }
  ops.Merge(writer.ops);
  const double peak_rss_mb = PeakRssMb();

  if (!trace) {
    metrics.Set("setup_s", setup_s.Median(), "s");
    metrics.Set("query_qps", reads.SegmentedQps(kReadSegments), "1/s");
    metrics.Set("batch_p50_ms", reads.batch_ms.Quantile(0.5), "ms");
    metrics.Set("batch_p90_ms", reads.batch_ms.Quantile(0.9), "ms");
    metrics.Set("reads_per_query",
                read_only ? checker.PoolReadsPerQuery()
                          : static_cast<double>(reads.reads) /
                                static_cast<double>(reads.queries),
                "pages");
    metrics.Set("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    const double batch_wall_s = traced_reads.batch_ms.Sum() / 1e3;
    metrics.Set("engine.busy_frac",
                traced_reads.service_us.Sum() / 1e6 / (w.workers * batch_wall_s),
                "ratio");
    metrics.Set("engine.steals_per_batch",
                static_cast<double>(traced_reads.steals) /
                    static_cast<double>(traced_reads.batches),
                "count");
    metrics.Set("engine.speedup_4w", pass4.qps() / pass1.qps(), "ratio");
    metrics.Set("trace.qps_ratio", traced_reads.qps() / reads.qps(), "ratio");

    const double per_query = static_cast<double>(search.queries);
    metrics.Set("index.search_us_p50", search.search_us.Quantile(0.5), "us");
    metrics.Set("index.search_us_p99", search.search_us.Quantile(0.99), "us");
    metrics.Set("index.contention_ratio",
                pass4.service_us.Median() / pass1.service_us.Median(), "ratio");
    metrics.Set("index.ns_per_page",
                search.search_ns / static_cast<double>(search.reads), "ns");
    metrics.Set("index.leaf_reads_per_query",
                static_cast<double>(search.leaf_reads) / per_query, "pages");
    metrics.Set("index.nonleaf_reads_per_query",
                static_cast<double>(search.nonleaf_reads) / per_query,
                "pages");

    metrics.Set("core.insert_us_p50", setup.insert_us.Quantile(0.5), "us");
    metrics.Set("core.insert_us_p99", setup.insert_us.Quantile(0.99), "us");
    metrics.Set("core.delete_us_p50", writer.delete_us.Quantile(0.5), "us");
    metrics.Set("core.mutation_latency_us_p99",
                writer.latency_us.SegmentedQuantile(0.99, kWriterSegments),
                "us");
    metrics.Set("core.writes_per_insert",
                static_cast<double>(setup.insert_writes) /
                    static_cast<double>(setup.insert_us.size()),
                "pages");
    metrics.Set("core.splits", static_cast<double>(maintenance.splits),
                "count");
    metrics.Set("core.reinsertions",
                static_cast<double>(maintenance.reinsertions), "count");
    metrics.Set("core.height", tree.height, "count");
    const size_t pages = tree.node_count + tree.leaf_count;
    metrics.Set("core.pages", static_cast<double>(pages), "count");
  }

  // Traced only: snapshot acquisition, the static tier, and compaction.
  if (trace) {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < kAcquireCalls; ++i) {
      const std::unique_ptr<srtree::IndexSnapshot> snap =
          index->AcquireSnapshot();
      CHECK(snap != nullptr);
    }
    const int64_t t1 = NowNs();
    main_log.Record("AcquireSnapshot.x20000", t0, t1, 0);
    metrics.Set("storage.snapshot_acquire_ns",
                static_cast<double>(t1 - t0) / kAcquireCalls, "ns");
    metrics.Set("storage.epoch_backlog_max",
                static_cast<double>(std::max({reads.backlog_max,
                                              traced_reads.backlog_max,
                                              writer.backlog_max})),
                "count");
    if (w.tiered) {
      tier.compact_s = TimeCompact(*index, ops, main_log);
    } else {
      // The same 95% / 5% / 0.2% tier arrangement over this workload's data.
      Setup probe = BuildIndex(true, in, main_log, ops);
      tier = ProbeTier(*probe.index, probe, in, ops, main_log);
      tier.compact_s = TimeCompact(*probe.index, ops, main_log);
    }
  }

  CheckAgainstOracle(std::move(index), in, w.tiered,
                     LiveFresh(plan, writer.completed), ops);

  if (trace) {
    metrics.Set("statictier.bulkload_s", tier.bulkload_s, "s");
    metrics.Set("statictier.delta_insert_us_p50", tier.delta_insert_us_p50,
                "us");
    metrics.Set("statictier.delete_us_first", tier.delete_us_first, "us");
    metrics.Set("statictier.delete_us_last", tier.delete_us_last, "us");
    metrics.Set("statictier.compact_s", tier.compact_s, "s");
    metrics.Set("statictier.merge_overhead_us", tier.merge_overhead_us, "us");

    const size_t pages = tree.node_count + tree.leaf_count;
    const StorageProbe storage =
        RunStorageProbe(pages, StreamSeed(args.seed, 2), main_log);
    metrics.Set("storage.read_ns_1t", storage.read_ns_1t, "ns");
    metrics.Set("storage.read_ns_4t", storage.read_ns_4t, "ns");
    metrics.Set("storage.commit_us", storage.commit_us, "us");
    metrics.Set("storage.pool_pin_ns_4t", storage.pool_pin_ns_4t, "ns");

    // Leaf blocks as full as the built tree's leaves; node blocks at the
    // node fanout.
    const size_t leaf_entries = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(tree.entry_count) /
                                   static_cast<double>(tree.leaf_count) +
                               0.5));
    const size_t node_entries = std::max<size_t>(
        2, static_cast<size_t>(static_cast<double>(tree.leaf_count +
                                                   tree.node_count - 1) /
                                   static_cast<double>(
                                       std::max<uint64_t>(1, tree.node_count)) +
                               0.5));
    const GeometryProbe geometry =
        RunGeometryProbe(in.base, leaf_entries, node_entries,
                         StreamSeed(args.seed, 3), main_log);
    metrics.Set("geometry.l2_ns_per_elem", geometry.l2_ns_per_elem, "ns");
    metrics.Set("geometry.mindist_ns_per_entry", geometry.mindist_ns_per_entry,
                "ns");
    const double per_query = static_cast<double>(search.queries);
    metrics.Set("geometry.leaf_scan_share",
                static_cast<double>(search.leaf_reads) / per_query *
                    static_cast<double>(leaf_entries) *
                    geometry.l2_ns_per_elem / (search.search_ns / per_query),
                "ratio");
  }

  if (trace && !args.trace_out.empty()) {
    std::FILE* out = std::fopen(args.trace_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::fprintf(out, "{\"stamp\": %s, \"workload\": \"%s\", \"seed\": %llu}\n",
                 stamp.ToJson().c_str(), w.name,
                 static_cast<unsigned long long>(args.seed));
    main_log.WriteTo(out, "main");
    writer_log.WriteTo(out, "writer");
    std::fclose(out);
  }

  std::printf(
      "{\"stamp\": %s, \"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"writer_ops\": %zu, \"writer_lateness_us_max\": %.3f}\n",
      stamp.ToJson().c_str(), w.name,
      static_cast<unsigned long long>(args.seed), args.trace, writer.completed,
      writer.lateness_us_max);
  const bool correct = ops.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(ops.attempted),
      static_cast<unsigned long long>(ops.failed), metrics.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: srbench --workload sr-uniform-read|tiered-real-read|"
                 "sr-real-mixed --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  return perfbench::Run(args);
}
