// Disk I/O accounting.
//
// The paper's headline query metric is "number of disk reads"; Figure 14
// additionally splits reads into node-level and leaf-level. Trees pass the
// level of the page they are fetching (0 = leaf) so both views fall out of
// the same counters.

#ifndef SRTREE_STORAGE_IO_STATS_H_
#define SRTREE_STORAGE_IO_STATS_H_

#include <cstdint>
#include <vector>

namespace srtree {

// Per-query I/O accounting, threaded through a single search traversal.
//
// A PageFile's global counters aggregate every read the structure ever
// performs, in per-thread atomic shards summed into an IoStats on demand;
// an IoStatsDelta is private to one query, so the traversal can record into
// it without synchronization and hand it back inside the QueryResult.
// Summing the deltas of a batch reproduces the global counters for the
// same queries (the accounting-parity contract tests/query_engine_test.cc
// checks).
struct IoStatsDelta {
  uint64_t reads = 0;
  uint64_t leaf_reads = 0;     // reads of level-0 pages
  uint64_t nonleaf_reads = 0;  // reads of pages at level >= 1
  // Reads that would still reach the disk with the simulated LRU cache
  // enabled (PageFile::SimulateCache); equals `reads` when disabled.
  uint64_t cache_misses = 0;

  void RecordRead(int level) {
    ++reads;
    ++cache_misses;
    if (level == 0) {
      ++leaf_reads;
    } else if (level > 0) {
      ++nonleaf_reads;
    }
  }

  void RecordCacheHit() { --cache_misses; }

  void MergeFrom(const IoStatsDelta& other) {
    reads += other.reads;
    leaf_reads += other.leaf_reads;
    nonleaf_reads += other.nonleaf_reads;
    cache_misses += other.cache_misses;
  }

  bool operator==(const IoStatsDelta&) const = default;
};

// Aggregate counters. IoStats has no lock of its own: PageFile builds one
// by value from its counter shards (PageFile::GetIoStats), the one shared
// instance is a GUARDED_BY member of its owner (BruteForceIndex::stats_),
// and copies are thread-local. Keep it that way — a new shared instance
// should be declared GUARDED_BY(owner mutex) so -Wthread-safety checks the
// discipline.
struct IoStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  // Reads that would still reach the disk with the simulated LRU cache
  // enabled (PageFile::SimulateCache); equals `reads` when disabled.
  uint64_t cache_misses = 0;
  // reads_by_level[l] counts reads of pages at tree level l (0 = leaf).
  // Reads with unknown level (level < 0) are counted in `reads` only.
  std::vector<uint64_t> reads_by_level;

  void RecordRead(int level) {
    ++reads;
    ++cache_misses;  // RecordCacheHit undoes this for simulated hits
    if (level >= 0) {
      const size_t slot = static_cast<size_t>(level);
      if (slot >= reads_by_level.size()) {
        reads_by_level.resize(slot + 1, 0);
      }
      ++reads_by_level[slot];
    }
  }

  void RecordCacheHit() { --cache_misses; }

  void RecordWrite() { ++writes; }

  void Reset() {
    reads = 0;
    writes = 0;
    cache_misses = 0;
    reads_by_level.clear();
  }

  uint64_t leaf_reads() const {
    return reads_by_level.empty() ? 0 : reads_by_level[0];
  }

  uint64_t nonleaf_reads() const {
    uint64_t total = 0;
    for (size_t l = 1; l < reads_by_level.size(); ++l) {
      total += reads_by_level[l];
    }
    return total;
  }

  // Total reads + writes — the paper's "disk accesses" (Figure 9).
  uint64_t accesses() const { return reads + writes; }
};

}  // namespace srtree

#endif  // SRTREE_STORAGE_IO_STATS_H_
