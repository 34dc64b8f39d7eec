#include "src/index/paged_index.h"

namespace srtree {
namespace {

// The IndexSnapshot of every paged index. It pins the version current at
// acquisition and holds the epoch guard for its whole lifetime, so the
// version's pages cannot be reclaimed under it; every query goes through
// the same validation shell as PointIndex::Search into the tree's
// SearchSnapshot().
class PinnedSnapshot final : public IndexSnapshot, public SearchDispatch {
 public:
  explicit PinnedSnapshot(const PagedIndex* index)
      : index_(index),
        guard_(index->epochs()),
        snap_(index->AcquirePageSnapshot(guard_)) {}

  [[nodiscard]] QueryResult Search(PointView query,
                                   const QuerySpec& spec) const override {
    return RunValidatedSearch(*this, index_->dim(), query, spec);
  }
  uint64_t version() const override { return snap_.version(); }
  size_t size() const override { return static_cast<size_t>(snap_.meta(2)); }

  std::vector<Neighbor> SearchImpl(PointView query, const QuerySpec& spec,
                                   IoStatsDelta* io) const override {
    return index_->SearchSnapshot(snap_, query, spec, io);
  }

 private:
  const PagedIndex* index_;
  EpochGuard guard_;  // declared before snap_: the announce precedes the pin
  PageFile::Snapshot snap_;
};

}  // namespace

Status PagedIndex::LoadFullPages(std::istream& in) {
  RETURN_IF_ERROR(file_.LoadFrom(in));
  // Every extent is at most page_size, so the total is full exactly when
  // every page is.
  if (file_.stored_bytes() != file_.live_pages() * file_.page_size()) {
    return Status::Corruption("image holds a page shorter than its block");
  }
  return Status::OK();
}

Status PagedIndex::Insert(PointView point, uint32_t oid) {
  RETURN_IF_ERROR(ValidatePoint(point, dim()));
  MutexLock lock(writer_mu_);
  return InsertLocked(point, oid);
}

Status PagedIndex::Delete(PointView point, uint32_t oid) {
  RETURN_IF_ERROR(ValidatePoint(point, dim()));
  MutexLock lock(writer_mu_);
  return DeleteLocked(point, oid);
}

size_t PagedIndex::size() const {
  const EpochGuard guard(file_.epochs());
  return static_cast<size_t>(file_.AcquireSnapshot(guard).meta(2));
}

std::unique_ptr<IndexSnapshot> PagedIndex::AcquireSnapshot() const {
  return std::make_unique<PinnedSnapshot>(this);
}

std::vector<Neighbor> PagedIndex::SearchImpl(PointView query,
                                             const QuerySpec& spec,
                                             IoStatsDelta* io) const {
  // The guard announces an epoch, the snapshot captures the version, and
  // every page the traversal reads comes from that version — a writer
  // committing mid-query changes nothing the traversal can see.
  const EpochGuard guard(file_.epochs());
  return SearchSnapshot(file_.AcquireSnapshot(guard), query, spec, io);
}

TraversalRoot PagedIndex::CommittedRoot(const PageFile::Snapshot& snap) {
  if (snap.meta(2) == 0) return {};
  return {static_cast<PageId>(snap.meta(0)), static_cast<int>(snap.meta(1))};
}

}  // namespace srtree
