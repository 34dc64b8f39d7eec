#include "src/index/brute_force.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/geometry/kernel.h"
#include "src/index/knn.h"

namespace srtree {

BruteForceIndex::BruteForceIndex(const Options& options) : options_(options) {
  CHECK_GT(options_.dim, 0);
}

Status BruteForceIndex::Insert(PointView point, uint32_t oid) {
  RETURN_IF_ERROR(ValidatePoint(point, options_.dim));
  points_.emplace_back(point.begin(), point.end());
  oids_.push_back(oid);
  MutexLock lock(stats_mu_);
  stats_.RecordWrite();
  return Status::OK();
}

Status BruteForceIndex::Delete(PointView point, uint32_t oid) {
  RETURN_IF_ERROR(ValidatePoint(point, options_.dim));
  for (size_t i = 0; i < points_.size(); ++i) {
    if (oids_[i] == oid && std::equal(point.begin(), point.end(),
                                      points_[i].begin(), points_[i].end())) {
      points_[i] = std::move(points_.back());
      points_.pop_back();
      oids_[i] = oids_.back();
      oids_.pop_back();
      MutexLock lock(stats_mu_);
      stats_.RecordWrite();
      return Status::OK();
    }
  }
  return Status::NotFound("point not present");
}

size_t BruteForceIndex::leaf_capacity() const {
  const size_t entry_bytes = options_.dim * sizeof(double) +
                             sizeof(uint32_t) + options_.leaf_data_size;
  return std::max<size_t>(1, options_.page_size / entry_bytes);
}

void BruteForceIndex::ChargeScan(IoStatsDelta* io) const {
  const size_t entries_per_page = leaf_capacity();
  const size_t pages =
      (points_.size() + entries_per_page - 1) / entries_per_page;
  MutexLock lock(stats_mu_);
  for (size_t i = 0; i < pages; ++i) {
    stats_.RecordRead(/*level=*/0);
    if (io != nullptr) io->RecordRead(/*level=*/0);
  }
}

// The scan transposes fixed-size runs of points into the kernel's SoA block
// layout; per-element distances are block-size independent (see
// src/geometry/kernel.h), so results match the per-node blocks the trees
// feed the same kernel exactly.
constexpr size_t kScanBlock = 256;

namespace {

// The scan's read view: the live contents themselves, version 0. Its
// mutations require external exclusion from its queries, so there is no
// version to pin.
class LiveScanView final : public IndexSnapshot {
 public:
  explicit LiveScanView(const BruteForceIndex* index) : index_(index) {}

  [[nodiscard]] QueryResult Search(PointView query,
                                   const QuerySpec& spec) const override {
    return index_->Search(query, spec);
  }
  uint64_t version() const override { return 0; }
  size_t size() const override { return index_->size(); }

 private:
  const BruteForceIndex* index_;
};

}  // namespace

std::unique_ptr<IndexSnapshot> BruteForceIndex::AcquireSnapshot() const {
  return std::make_unique<LiveScanView>(this);
}

std::vector<Neighbor> BruteForceIndex::SearchImpl(PointView query,
                                                  const QuerySpec& spec,
                                                  IoStatsDelta* io) const {
  // A scan has no traversal order: both k-NN kinds run the same scan.
  return spec.kind == QueryKind::kRange ? ScanRange(query, spec.radius, io)
                                        : ScanKnn(query, spec.k, io);
}

std::vector<Neighbor> BruteForceIndex::ScanKnn(PointView query, int k,
                                               IoStatsDelta* io) const {
  ChargeScan(io);
  KnnCandidates candidates(k);
  KernelScratch scratch;
  for (size_t base = 0; base < points_.size(); base += kScanBlock) {
    const size_t n = std::min(kScanBlock, points_.size() - base);
    const double bound_sq = candidates.PruneDistanceSquared();
    const std::vector<double>& d2 = BatchSquaredL2(
        scratch, query, n,
        [&](size_t i) { return PointView(points_[base + i]); }, bound_sq);
    for (size_t i = 0; i < n; ++i) {
      if (d2[i] <= bound_sq) candidates.OfferSquared(d2[i], oids_[base + i]);
    }
  }
  return candidates.TakeSorted();
}

std::vector<Neighbor> BruteForceIndex::ScanRange(PointView query,
                                                 double radius,
                                                 IoStatsDelta* io) const {
  ChargeScan(io);
  std::vector<Neighbor> result;
  KernelScratch scratch;
  const double radius_sq = radius * radius;
  for (size_t base = 0; base < points_.size(); base += kScanBlock) {
    const size_t n = std::min(kScanBlock, points_.size() - base);
    const std::vector<double>& d2 = BatchSquaredL2(
        scratch, query, n,
        [&](size_t i) { return PointView(points_[base + i]); }, radius_sq);
    for (size_t i = 0; i < n; ++i) {
      if (d2[i] <= radius_sq) {
        result.push_back(Neighbor{std::sqrt(d2[i]), oids_[base + i]});
      }
    }
  }
  std::sort(result.begin(), result.end());  // canonical (distance, oid)
  return result;
}

TreeStats BruteForceIndex::GetTreeStats() const {
  TreeStats stats;
  stats.height = 1;
  stats.leaf_count = 1;
  stats.entry_count = points_.size();
  return stats;
}

}  // namespace srtree
