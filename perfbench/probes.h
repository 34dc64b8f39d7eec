// Layer micro-probes of the traced run: the storage layer (PageFile reads
// and commits, BufferPool snapshot pins) at a workload's live-page count,
// and the distance kernels at its leaf and node block sizes. They time the
// public calls from outside, so a layer that an end-to-end workload hides
// still gets its own number.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "perfbench/bench_support.h"
#include "src/geometry/point.h"

namespace perfbench {

struct StorageProbe {
  double read_ns_1t = 0;      // Snapshot::Read per page, one thread
  double read_ns_4t = 0;      // the same, four threads at once
  double commit_us = 0;       // one StageWrite + Commit, median
  double pool_pin_ns_4t = 0;  // BufferPool::PinSnapshot hit, four threads
};

// Builds a standalone PageFile of `live_pages` pages (and a BufferPool over
// it) and times its read, commit and pin paths.
StorageProbe RunStorageProbe(size_t live_pages, uint64_t seed, SpanLog& log);

struct GeometryProbe {
  double l2_ns_per_elem = 0;        // SquaredL2ToManyBounded, per element
  double mindist_ns_per_entry = 0;  // sphere + rect MINDIST, per entry
};

// Times the process-wide DistanceKernel on SoA blocks of `leaf_entries`
// points and on node blocks of `node_entries` sphere/rect regions, built
// from `points` (the workload's data).
GeometryProbe RunGeometryProbe(const std::vector<srtree::Point>& points,
                               size_t leaf_entries, size_t node_entries,
                               uint64_t seed, SpanLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
