// PinnedSnapshot: the IndexSnapshot of the structures whose queries read a
// committed version of a copy-on-write PageFile (the SR-tree and the static
// tier). It pins the version current at acquisition and holds the epoch
// guard for its whole lifetime, so the version's pages cannot be reclaimed
// under it; every query goes through the same validation shell as
// PointIndex::Search into the tree's snapshot traversals:
//
//   tree->KnnDfsSnapshot(snap, query, k, io)        (and KnnBestFirst-,
//   tree->RangeSnapshot(snap, query, radius, io)     Range- likewise)
//
// The tree's committed metadata word 2 is its size.

#ifndef SRTREE_INDEX_PINNED_SNAPSHOT_H_
#define SRTREE_INDEX_PINNED_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/index/point_index.h"
#include "src/storage/epoch.h"
#include "src/storage/page_file.h"

namespace srtree {

template <typename Tree>
class PinnedSnapshot final : public IndexSnapshot, public SearchDispatch {
 public:
  PinnedSnapshot(const Tree* tree, const PageFile& file)
      : IndexSnapshot(tree),
        tree_(tree),
        guard_(file.epochs()),
        snap_(file.AcquireSnapshot(guard_)) {}

  [[nodiscard]] QueryResult Search(PointView query,
                                   const QuerySpec& spec) const override {
    return RunValidatedSearch(*this, tree_->dim(), query, spec);
  }
  uint64_t version() const override { return snap_.version(); }
  size_t size() const override { return static_cast<size_t>(snap_.meta(2)); }

  std::vector<Neighbor> KnnDfsImpl(PointView query, int k,
                                   IoStatsDelta* io) const override {
    return tree_->KnnDfsSnapshot(snap_, query, k, io);
  }
  std::vector<Neighbor> KnnBestFirstImpl(PointView query, int k,
                                         IoStatsDelta* io) const override {
    return tree_->KnnBestFirstSnapshot(snap_, query, k, io);
  }
  std::vector<Neighbor> RangeImpl(PointView query, double radius,
                                  IoStatsDelta* io) const override {
    return tree_->RangeSnapshot(snap_, query, radius, io);
  }

 private:
  const Tree* tree_;
  EpochGuard guard_;  // declared before snap_: the announce precedes the pin
  PageFile::Snapshot snap_;
};

}  // namespace srtree

#endif  // SRTREE_INDEX_PINNED_SNAPSHOT_H_
