#include "src/statictier/tiered_index.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/storage/image_io.h"

namespace srtree {
namespace {

// Persisted header of the "srtiered" image (see Save() for semantics).
struct TieredImageHeader {
  int32_t dim;
  uint32_t pad0;
  uint64_t page_size;
  uint64_t leaf_data_size;
  double min_utilization;
  double reinsert_fraction;
  uint32_t root_id;
  int32_t root_level;
  uint64_t size;
};

bool PlausibleOptions(const TieredIndex::Options& o) {
  return o.dim > 0 && o.dim <= (1 << 16) && o.page_size >= 64 &&
         o.page_size <= (1u << 28) && o.min_utilization > 0.0 &&
         o.min_utilization <= 0.5 && o.reinsert_fraction >= 0.0 &&
         o.reinsert_fraction < 1.0;
}

// IoStats carries no MergeFrom of its own; the tiered index is the first
// structure whose global counters are a sum of two page files.
void AccumulateStats(const IoStats& from, IoStats* into) {
  into->reads += from.reads;
  into->writes += from.writes;
  into->cache_misses += from.cache_misses;
  if (from.reads_by_level.size() > into->reads_by_level.size()) {
    into->reads_by_level.resize(from.reads_by_level.size(), 0);
  }
  for (size_t l = 0; l < from.reads_by_level.size(); ++l) {
    into->reads_by_level[l] += from.reads_by_level[l];
  }
}

}  // namespace

TieredIndex::TieredIndex(const Options& options) : options_(options) {
  CHECK_GT(options_.dim, 0);
  StaticSRTree::Options static_options;
  static_options.dim = options_.dim;
  static_options.page_size = options_.page_size;
  TierState initial;
  initial.static_tier = std::make_shared<StaticSRTree>(static_options);
  initial.delta = MakeDelta();
  initial.tombstones = std::make_shared<const TombstoneBitmap>();
  initial.delta_version = initial.delta->committed_version();
  PublishState(std::move(initial));
}

TieredIndex::~TieredIndex() = default;

std::shared_ptr<SRTree> TieredIndex::MakeDelta() const {
  SRTree::Options delta_options;
  delta_options.dim = options_.dim;
  delta_options.page_size = options_.page_size;
  delta_options.leaf_data_size = options_.leaf_data_size;
  delta_options.min_utilization = options_.min_utilization;
  delta_options.reinsert_fraction = options_.reinsert_fraction;
  return std::make_shared<SRTree>(delta_options);
}

size_t TieredIndex::size() const { return LoadState()->size; }

// --------------------------------------------------------------------------
// Mutation
// --------------------------------------------------------------------------

Status TieredIndex::Insert(PointView point, uint32_t oid) {
  MutexLock lock(writer_mu_);
  const std::shared_ptr<const TierState> cur = LoadState();
  // A pair tombstoned in the static tier may be re-inserted: the delta copy
  // serves queries from now on, and the tombstone keeps masking the stale
  // static copy until the next compaction drops both.
  RETURN_IF_ERROR(cur->delta->Insert(point, oid));
  TierState next = *cur;
  next.delta_version = next.delta->committed_version();
  ++next.version;
  ++next.size;
  PublishState(std::move(next));
  return Status::OK();
}

Status TieredIndex::Delete(PointView point, uint32_t oid) {
  MutexLock lock(writer_mu_);
  const std::shared_ptr<const TierState> cur = LoadState();
  Status delta_status = cur->delta->Delete(point, oid);
  if (delta_status.ok()) {
    TierState next = *cur;
    next.delta_version = next.delta->committed_version();
    ++next.version;
    --next.size;
    PublishState(std::move(next));
    return Status::OK();
  }
  if (!delta_status.IsNotFound()) return delta_status;
  const std::optional<uint64_t> slot =
      cur->static_tier->FindLiveSlot(point, oid, *cur->tombstones);
  if (!slot.has_value()) {
    return Status::NotFound("no such (point, oid) pair");
  }
  PublishDeadSlot(*slot);
  return Status::OK();
}

void TieredIndex::PublishDeadSlot(uint64_t slot) {
  const std::shared_ptr<const TierState> cur = LoadState();
  TierState next = *cur;
  // Path copy: the new bitmap copies the chunk holding `slot` and shares
  // the rest, so snapshots holding the old one never see the mutation.
  auto tombstones = std::make_shared<TombstoneBitmap>(*cur->tombstones);
  tombstones->Set(slot);
  next.tombstones = std::move(tombstones);
  ++next.version;
  --next.size;
  PublishState(std::move(next));
}

Status TieredIndex::BulkLoad(const std::vector<Point>& points,
                             const std::vector<uint32_t>& oids) {
  MutexLock lock(writer_mu_);
  const std::shared_ptr<const TierState> cur = LoadState();
  if (cur->size != 0 || cur->delta->size() != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty index");
  }
  RETURN_IF_ERROR(cur->static_tier->BulkLoad(points, oids));
  TierState next = *cur;
  next.size = points.size();
  PublishState(std::move(next));
  return Status::OK();
}

Status TieredIndex::CollectLogicalContents(const TierState& state,
                                           std::vector<Point>* points,
                                           std::vector<uint32_t>* oids) const {
  points->clear();
  oids->clear();
  points->reserve(state.size);
  oids->reserve(state.size);
  const auto collect = [&](PointView p, uint32_t oid) {
    points->emplace_back(p.begin(), p.end());
    oids->push_back(oid);
  };
  RETURN_IF_ERROR(
      state.static_tier->ExportLiveEntries(*state.tombstones, collect));
  RETURN_IF_ERROR(state.delta->ExportEntries(collect));
  if (points->size() != state.size) {
    return Status::Corruption("tiered bookkeeping does not match contents");
  }
  return Status::OK();
}

Status TieredIndex::Compact() {
  MutexLock lock(writer_mu_);
  const std::shared_ptr<const TierState> cur = LoadState();
  std::vector<Point> points;
  std::vector<uint32_t> oids;
  RETURN_IF_ERROR(CollectLogicalContents(*cur, &points, &oids));

  StaticSRTree::Options static_options;
  static_options.dim = options_.dim;
  static_options.page_size = options_.page_size;
  auto merged = std::make_shared<StaticSRTree>(static_options);
  RETURN_IF_ERROR(merged->BulkLoad(points, oids));

  // Publish the rebuilt arrangement; snapshots acquired before this point
  // keep shared ownership of the old state and are undisturbed. The version
  // counter does NOT advance: compaction changes representation, not
  // contents.
  TierState next;
  next.static_tier = std::move(merged);
  next.delta = MakeDelta();
  next.tombstones = std::make_shared<const TombstoneBitmap>();
  next.version = cur->version;
  next.size = cur->size;
  next.delta_version = next.delta->committed_version();
  PublishState(std::move(next));
  return Status::OK();
}

// --------------------------------------------------------------------------
// Persistence
// --------------------------------------------------------------------------

Status TieredIndex::Save(const std::string& path) const {
  MutexLock lock(writer_mu_);
  const std::shared_ptr<const TierState> cur = LoadState();
  std::vector<Point> points;
  std::vector<uint32_t> oids;
  RETURN_IF_ERROR(CollectLogicalContents(*cur, &points, &oids));

  StaticSRTree::Options static_options;
  static_options.dim = options_.dim;
  static_options.page_size = options_.page_size;
  StaticSRTree merged(static_options);
  RETURN_IF_ERROR(merged.BulkLoad(points, oids));

  TieredImageHeader header = {};
  header.dim = options_.dim;
  header.page_size = options_.page_size;
  header.leaf_data_size = options_.leaf_data_size;
  header.min_utilization = options_.min_utilization;
  header.reinsert_fraction = options_.reinsert_fraction;
  header.root_id = merged.root_id();
  header.root_level = merged.root_level();
  header.size = merged.size();
  return AtomicWriteFile(path, [&](std::ostream& out) {
    RETURN_IF_ERROR(WriteIndexImageTo(out, kImageTag, &header, sizeof(header)));
    return merged.SavePagesTo(out);
  });
}

StatusOr<std::unique_ptr<TieredIndex>> TieredIndex::Open(
    const std::string& path) {
  TieredImageHeader header = {};
  IndexImageFile image;
  RETURN_IF_ERROR(image.Open(path, kImageTag, &header, sizeof(header)));

  Options options;
  options.dim = header.dim;
  options.page_size = header.page_size;
  options.leaf_data_size = header.leaf_data_size;
  options.min_utilization = header.min_utilization;
  options.reinsert_fraction = header.reinsert_fraction;
  if (!PlausibleOptions(options)) {
    return Status::Corruption("implausible tiered index header");
  }
  auto index = std::make_unique<TieredIndex>(options);
  const std::shared_ptr<const TierState> cur = index->LoadState();
  RETURN_IF_ERROR(cur->static_tier->LoadPages(
      image.stream(), header.root_id, header.root_level, header.size));
  TierState next = *cur;
  next.size = header.size;
  index->PublishState(std::move(next));
  return index;
}

// --------------------------------------------------------------------------
// Snapshots & search
// --------------------------------------------------------------------------

// A pinned two-tier read view: the published state and a pinned version of
// each tier's pages, the delta's at exactly state->delta_version. Member
// order is destruction-critical: the pins must die before the TierState
// whose shared_ptrs keep their trees (and epoch managers) alive.
class TieredSnapshot : public IndexSnapshot, public SearchDispatch {
 public:
  // Lock-free acquisition: load the published state, pin the delta's pages,
  // and retry when a mutation committed in between — the delta's pinned
  // version then differs from the one the state was published with (the
  // static tier's pages are pinned once the pair matches). Mutators store
  // state_ strictly AFTER the delta mutation it describes, so version
  // equality proves (state, delta pin) describe the same commit. Reading
  // through writer_mu_ instead would nest that lock under every storage
  // lock held by callers of size()/AcquireSnapshot().
  explicit TieredSnapshot(const TieredIndex& index) : dim_(index.dim()) {
    for (;;) {
      delta_.reset();  // before the state that keeps its tree alive
      state_ = index.LoadState();
      delta_.emplace(*state_->delta);
      if (delta_->snap.version() == state_->delta_version) break;
    }
    static_tier_.emplace(*state_->static_tier);
  }

  [[nodiscard]] QueryResult Search(PointView query,
                                   const QuerySpec& spec) const override {
    return RunValidatedSearch(*this, dim_, query, spec);
  }

  uint64_t version() const override { return state_->version; }
  size_t size() const override { return state_->size; }

  // A k-NN fills one candidate set: the static tier, which holds nearly
  // every point, first, then the delta, so the delta starts pruning from an
  // almost final k-th distance. A range concatenates both tiers' hits.
  std::vector<Neighbor> SearchImpl(PointView query, const QuerySpec& spec,
                                   IoStatsDelta* io) const override {
    const StaticSRTree& static_tier = *state_->static_tier;
    const SRTree& delta = *state_->delta;
    const TombstoneBitmap* dead = state_->tombstones.get();
    if (spec.kind == QueryKind::kRange) {
      std::vector<Neighbor> hits = static_tier.SearchSnapshot(
          static_tier_->snap, query, spec, io, dead);
      const std::vector<Neighbor> delta_hits =
          delta.SearchSnapshot(delta_->snap, query, spec, io);
      const auto mid = hits.insert(hits.end(), delta_hits.begin(),
                                   delta_hits.end());
      std::inplace_merge(hits.begin(), mid, hits.end());
      return hits;
    }
    KnnCandidates candidates(spec.k);
    static_tier.KnnSnapshotInto(static_tier_->snap, query, spec.kind,
                                candidates, io, dead);
    delta.KnnSnapshotInto(delta_->snap, query, spec.kind, candidates, io);
    return candidates.TakeSorted();
  }

 private:
  int dim_;
  std::shared_ptr<const TieredIndex::TierState> state_;
  std::optional<PagedIndex::PinnedPages> static_tier_;
  std::optional<PagedIndex::PinnedPages> delta_;
};

std::unique_ptr<IndexSnapshot> TieredIndex::AcquireSnapshot() const {
  return std::make_unique<TieredSnapshot>(*this);
}

std::vector<Neighbor> TieredIndex::SearchImpl(PointView query,
                                              const QuerySpec& spec,
                                              IoStatsDelta* io) const {
  return TieredSnapshot(*this).SearchImpl(query, spec, io);
}

// --------------------------------------------------------------------------
// Introspection & plumbing
// --------------------------------------------------------------------------

Status TieredIndex::ExportEntries(
    const std::function<void(PointView, uint32_t)>& fn) const {
  MutexLock lock(writer_mu_);  // exclude mutators: the live delta is walked
  const std::shared_ptr<const TierState> cur = LoadState();
  RETURN_IF_ERROR(cur->static_tier->ExportLiveEntries(*cur->tombstones, fn));
  return cur->delta->ExportEntries(fn);
}

TreeStats TieredIndex::GetTreeStats() const {
  const std::shared_ptr<const TierState> cur = LoadState();
  const TreeStats s = cur->static_tier->GetTreeStats();
  const TreeStats d = cur->delta->GetTreeStats();
  TreeStats merged;
  merged.height = std::max(s.height, d.height);
  merged.node_count = s.node_count + d.node_count;
  merged.leaf_count = s.leaf_count + d.leaf_count;
  // Includes tombstoned static entries: these are physical-page statistics.
  merged.entry_count = s.entry_count + d.entry_count;
  return merged;
}

MaintenanceStats TieredIndex::GetMaintenanceStats() const {
  return LoadState()->delta->GetMaintenanceStats();
}

Status TieredIndex::CheckInvariants() const {
  MutexLock lock(writer_mu_);  // exclude mutators: bookkeeping must be still
  const std::shared_ptr<const TierState> cur = LoadState();
  RETURN_IF_ERROR(cur->static_tier->CheckInvariants());
  RETURN_IF_ERROR(cur->delta->CheckInvariants());
  // Every dead bit must name a stored static entry, and the dead count
  // must be exactly what separates the physical entries from size().
  size_t tombstone_count = 0;
  Status slots = Status::OK();
  cur->tombstones->ForEachSet([&](uint64_t slot) {
    ++tombstone_count;
    if (slots.ok()) slots = cur->static_tier->CheckSlot(slot);
  });
  RETURN_IF_ERROR(slots);
  const size_t physical = cur->static_tier->size() + cur->delta->size();
  if (physical < tombstone_count ||
      physical - tombstone_count != cur->size) {
    return Status::Corruption("tiered size bookkeeping is inconsistent");
  }
  return Status::OK();
}

RegionSummary TieredIndex::LeafRegionSummary() const {
  // The static tier holds the bulk of the data; its leaf regions are the
  // meaningful geometry for the paper's figures.
  return LoadState()->static_tier->LeafRegionSummary();
}

IoStats TieredIndex::GetIoStats() const {
  const std::shared_ptr<const TierState> cur = LoadState();
  IoStats merged;
  AccumulateStats(cur->static_tier->GetIoStats(), &merged);
  AccumulateStats(cur->delta->GetIoStats(), &merged);
  return merged;
}

PageFootprint TieredIndex::GetPageFootprint() const {
  const std::shared_ptr<const TierState> cur = LoadState();
  const PageFootprint tier = cur->static_tier->GetPageFootprint();
  const PageFootprint delta = cur->delta->GetPageFootprint();
  return {tier.pages + delta.pages, tier.page_size,
          tier.stored_bytes + delta.stored_bytes};
}

void TieredIndex::SimulateBufferPool(size_t capacity) {
  MutexLock lock(writer_mu_);
  const std::shared_ptr<const TierState> cur = LoadState();
  cur->static_tier->SimulateBufferPool(capacity);
  cur->delta->SimulateBufferPool(capacity);
}

size_t TieredIndex::leaf_capacity() const {
  return LoadState()->static_tier->leaf_capacity();
}

size_t TieredIndex::node_capacity() const {
  return LoadState()->static_tier->node_capacity();
}

EpochManager* TieredIndex::epoch_domain_for_test() const {
  return LoadState()->delta->epoch_domain_for_test();
}

size_t TieredIndex::delta_size_for_test() const {
  return LoadState()->delta->size();
}

size_t TieredIndex::tombstone_count_for_test() const {
  return LoadState()->tombstones->count();
}

std::shared_ptr<const TombstoneBitmap> TieredIndex::tombstones_for_test()
    const {
  return LoadState()->tombstones;
}

void TieredIndex::MarkSlotDeadForTest(uint64_t slot) {
  MutexLock lock(writer_mu_);
  PublishDeadSlot(slot);
}

}  // namespace srtree
