#include "src/index/paged_index.h"

#include <cstring>

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
      : index_(index), pages_(*index) {}

  [[nodiscard]] QueryResult Search(PointView query,
                                   const QuerySpec& spec) const override {
    return RunValidatedSearch(*this, index_->dim(), query, spec);
  }
  uint64_t version() const override { return pages_.snap.version(); }
  size_t size() const override {
    return static_cast<size_t>(pages_.snap.meta(2));
  }

  std::vector<Neighbor> SearchImpl(PointView query, const QuerySpec& spec,
                                   IoStatsDelta* io) const override {
    return index_->SearchSnapshot(pages_.snap, query, spec, io);
  }

 private:
  const PagedIndex* index_;
  PagedIndex::PinnedPages pages_;
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

Status PagedIndex::ValidatePageTree(const std::string& tree, PageId root_id,
                                    int root_level, uint64_t size,
                                    const PageTreeShape& shape) const {
  // Depth-first from the root: every reachable page must be live, carry the
  // level its parent implies, keep its count within capacity and its
  // entries within the bytes it stores — so the decoding walks behind
  // CheckInvariants never read past a page or chase a wild child id. A walk
  // longer than the live page count is not a tree.
  constexpr size_t kHeaderBytes = 8;
  struct Item {
    PageId id;
    int level;
  };
  std::vector<Item> stack = {{root_id, root_level}};
  uint64_t visited = 0;
  uint64_t points = 0;
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    const auto corrupt = [&](const char* what) {
      return Status::Corruption(tree + " page " + std::to_string(item.id) +
                                what);
    };
    if (!file_.is_live(item.id)) return corrupt(" is not live in the image");
    if (++visited > file_.live_pages()) {
      return Status::Corruption(tree + " page structure is not a tree");
    }
    const size_t extent = file_.extent(item.id);
    const auto* page =
        reinterpret_cast<const unsigned char*>(file_.PeekPage(item.id));
    if (extent < kHeaderBytes || page[0] != item.level) {
      return corrupt(" does not carry its level");
    }
    const size_t count = static_cast<size_t>(page[2]) |
                         static_cast<size_t>(page[3]) << 8;
    const bool leaf = item.level == 0;
    const size_t entry_bytes =
        leaf ? shape.leaf_entry_bytes : shape.node_entry_bytes;
    if (count > (leaf ? shape.leaf_capacity : shape.node_capacity) ||
        kHeaderBytes + count * entry_bytes > extent) {
      return corrupt(" count exceeds its page");
    }
    if (leaf) {
      points += count;
      continue;
    }
    for (size_t i = 0; i < count; ++i) {
      const size_t at =
          shape.soa ? kHeaderBytes + count * (entry_bytes - sizeof(PageId)) +
                          i * sizeof(PageId)
                    : kHeaderBytes + (i + 1) * entry_bytes - sizeof(PageId);
      PageId child = kInvalidPageId;
      std::memcpy(&child, page + at, sizeof(child));
      stack.push_back({child, item.level - 1});
    }
  }
  if (points != size) {
    return Status::Corruption(tree + " leaf total does not match its size");
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
