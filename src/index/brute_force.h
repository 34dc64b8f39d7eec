// Linear-scan index: ground truth for tests and the "no index" baseline.
//
// Disk accounting models a sequential scan: each query charges the number
// of 8 KB blocks a flat file of (point + 512-byte data area) entries would
// occupy, which makes the brute-force baseline comparable to the trees in
// the harness.

#ifndef SRTREE_INDEX_BRUTE_FORCE_H_
#define SRTREE_INDEX_BRUTE_FORCE_H_

#include <memory>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/index/point_index.h"
#include "src/storage/page.h"

namespace srtree {

class BruteForceIndex : public PointIndex {
 public:
  struct Options {
    int dim = 2;
    size_t page_size = kDefaultPageSize;
    size_t leaf_data_size = 512;
  };

  explicit BruteForceIndex(const Options& options);

  int dim() const override { return options_.dim; }
  size_t size() const override { return points_.size(); }
  std::string name() const override { return "scan"; }

  Status Insert(PointView point, uint32_t oid) override;
  Status Delete(PointView point, uint32_t oid) override;

  // A scan file packs leaf entries sequentially; there are no nodes.
  size_t leaf_capacity() const override;
  size_t node_capacity() const override { return 0; }

  TreeStats GetTreeStats() const override;
  Status CheckInvariants() const override { return Status::OK(); }
  RegionSummary LeafRegionSummary() const override { return {}; }

  IoStats GetIoStats() const override EXCLUDES(stats_mu_) {
    MutexLock lock(stats_mu_);
    return stats_;
  }

  // The scan is the test oracle and has no page file: its view is the live
  // contents with version 0, valid only while no mutation runs.
  [[nodiscard]] std::unique_ptr<IndexSnapshot> AcquireSnapshot()
      const override;

 protected:
  std::vector<Neighbor> SearchImpl(PointView query, const QuerySpec& spec,
                                   IoStatsDelta* io) const override;

 private:
  std::vector<Neighbor> ScanKnn(PointView query, int k,
                                IoStatsDelta* io) const;
  std::vector<Neighbor> ScanRange(PointView query, double radius,
                                  IoStatsDelta* io) const;
  void ChargeScan(IoStatsDelta* io) const EXCLUDES(stats_mu_);

  const Options options_;
  std::vector<Point> points_ UNGUARDED_OK(
      "oracle scan: mutations require external exclusion from queries");
  std::vector<uint32_t> oids_ UNGUARDED_OK(
      "oracle scan: mutations require external exclusion from queries");
  // Queries are const yet charge simulated scan reads, so the global
  // counters are mutable and locked; per-query deltas need no lock.
  mutable Mutex stats_mu_;
  mutable IoStats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace srtree

#endif  // SRTREE_INDEX_BRUTE_FORCE_H_
