// TieredIndex: the production-style two-tier serving arrangement over the
// SR-tree family (ROADMAP item #2).
//
//   * a read-optimized, immutable StaticSRTree holds the bulk of the data
//     (flat BFS-serialized page image, SoA blocks, zero-deserialization
//     queries);
//   * a small dynamic SR-tree "delta" absorbs every Insert;
//   * Deletes against static-tier points become tombstones: one bit per
//     static-tier slot (StaticSRTree::SlotOf) in a chunked TombstoneBitmap.
//     A delete marks exactly one live copy of the pair and path-copies only
//     the chunk it changes, sharing every other chunk with the versions
//     older snapshots hold, so its cost does not grow with the number of
//     tombstones. The static leaf scans bit-test each candidate's slot, so
//     a masked entry can never appear in (or displace a live point from) a
//     query result;
//   * a k-NN query fills one candidate set: the static tier's traversal
//     runs first, and the delta's runs after it into the same set, so the
//     delta prunes from the static tier's k-th distance rather than from
//     infinity. The result is the top k under (squared distance, oid),
//     byte-identical to a single-tier index over the same logical contents.
//     A range query concatenates both tiers' hits in canonical order;
//   * Compact() bulk-rebuilds the static tier from static-minus-tombstones
//     plus delta via the VAMSplit build and swaps it in. Snapshots hold
//     shared ownership of the tiers they were acquired against, so
//     concurrent readers keep traversing the pre-compaction tiers
//     undisturbed; the swapped-out tree is freed when the last such snapshot
//     dies.
//
// Writer exclusion matches the dynamic SR-tree: one mutator at a time
// (enforced by writer_mu_). Readers never take that lock: mutators publish
// an immutable TierState wholesale through an atomic shared_ptr, and
// Search() / AcquireSnapshot() capture it lock-free (RCU-style), pairing it
// with a pinned version of the delta's pages via a version-checked retry.

#ifndef SRTREE_STATICTIER_TIERED_INDEX_H_
#define SRTREE_STATICTIER_TIERED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/mutex.h"
#include "src/core/sr_tree.h"
#include "src/index/point_index.h"
#include "src/statictier/static_sr_tree.h"

namespace srtree {

class TieredIndex : public PointIndex {
 public:
  struct Options {
    int dim = 2;
    size_t page_size = kDefaultPageSize;
    // Dynamic-delta knobs, forwarded to the SR-tree (see IndexConfig).
    size_t leaf_data_size = 0;  // attached bytes per leaf entry
    double min_utilization = 0.4;
    double reinsert_fraction = 0.3;
  };

  explicit TieredIndex(const Options& options);
  ~TieredIndex() override;

  static constexpr char kImageTag[] = "srtiered";

  // Save() compacts on the way out: the image holds ONE merged static tier
  // (delta and tombstones applied), so Open() restores the same logical
  // contents with an empty delta. version() restarts at 1 after Open.
  Status Save(const std::string& path) const override;
  static StatusOr<std::unique_ptr<TieredIndex>> Open(const std::string& path);

  int dim() const override { return options_.dim; }
  size_t size() const override;
  std::string name() const override { return "Tiered SR-tree"; }
  const Options& options() const { return options_; }

  Status Insert(PointView point, uint32_t oid) override;
  Status Delete(PointView point, uint32_t oid) override;
  Status BulkLoad(const std::vector<Point>& points,
                  const std::vector<uint32_t>& oids) override;

  // Rebuilds the static tier from the current logical contents (static
  // minus tombstones, plus delta) and swaps it in; the delta and tombstone
  // bitmap come back empty. Logical contents, size() and the version
  // counter are unchanged — concurrent snapshot readers are never disturbed.
  Status Compact() override;

  Status ExportEntries(
      const std::function<void(PointView, uint32_t)>& fn) const override;

  TreeStats GetTreeStats() const override;
  MaintenanceStats GetMaintenanceStats() const override;
  Status CheckInvariants() const override;
  RegionSummary LeafRegionSummary() const override;

  IoStats GetIoStats() const override;
  void SimulateBufferPool(size_t capacity) override;
  // Both tiers' pages: the static tier's plus the delta's.
  PageFootprint GetPageFootprint() const override;

  size_t leaf_capacity() const override;
  size_t node_capacity() const override;

  [[nodiscard]] std::unique_ptr<IndexSnapshot> AcquireSnapshot()
      const override;

  EpochManager* epoch_domain_for_test() const override;

  // Test hooks.
  size_t delta_size_for_test() const;
  // The number of dead static-tier slots.
  size_t tombstone_count_for_test() const;
  // The published bitmap (tests compare chunk identity across deletes).
  std::shared_ptr<const TombstoneBitmap> tombstones_for_test() const;
  // Marks `slot` dead and drops size() by one, as a Delete would, without
  // checking that the slot holds an entry (tests forge bad bookkeeping).
  void MarkSlotDeadForTest(uint64_t slot);

 protected:
  std::vector<Neighbor> SearchImpl(PointView query, const QuerySpec& spec,
                                   IoStatsDelta* io) const override;

 private:
  friend class TieredSnapshot;

  // The immutable state readers capture: shared ownership of both tiers
  // plus the tombstone bitmap, and the (version, size) they correspond to.
  // Mutators (serialized by writer_mu_) never edit a published TierState —
  // they build a fresh one and store it wholesale into state_, so a single
  // atomic load observes a fully consistent tier arrangement.
  struct TierState {
    std::shared_ptr<StaticSRTree> static_tier;
    std::shared_ptr<SRTree> delta;
    // Dead slots of static_tier. A Delete publishes a copy that shares
    // all chunks but one with this one; Compact() starts a fresh one.
    std::shared_ptr<const TombstoneBitmap> tombstones;
    // Bumped per successful Insert/Delete; Compact() leaves it alone.
    uint64_t version = 1;
    size_t size = 0;
    // The delta tree's own committed version when this state was
    // published; a TieredSnapshot uses it to pair the state with a pinned
    // delta version without taking writer_mu_.
    uint64_t delta_version = 0;
  };

  // state_ is accessed exclusively through these two helpers. The free
  // functions are used instead of std::atomic<shared_ptr> because
  // libstdc++'s _Sp_atomic lock-bit protocol is invisible to TSan (gcc
  // 12), whereas the free functions go through an instrumented mutex
  // pool; semantics are identical (acquire load / release store).
  std::shared_ptr<const TierState> LoadState() const {
    return std::atomic_load_explicit(&state_, std::memory_order_acquire);
  }
  void PublishState(TierState next) {
    std::atomic_store_explicit(
        &state_, std::make_shared<const TierState>(std::move(next)),
        std::memory_order_release);
  }
  std::shared_ptr<SRTree> MakeDelta() const;
  // Publishes the current state with static slot `slot` dead and size()
  // one lower.
  void PublishDeadSlot(uint64_t slot) REQUIRES(writer_mu_);
  // Collects state's logical contents (static minus tombstones + delta).
  // Callers hold writer_mu_ so the live delta cannot move underneath.
  Status CollectLogicalContents(const TierState& state,
                                std::vector<Point>* points,
                                std::vector<uint32_t>* oids) const;

  const Options options_;

  // One mutator at a time. Readers never take it — they load state_ —
  // so the lock must never be reachable from a read accessor: that would
  // nest it under the storage locks its critical sections acquire.
  // mutable: Save() is const but must exclude writers.
  mutable Mutex writer_mu_;
  // The published state. Accessed via LoadState() by readers and replaced
  // wholesale by mutators via PublishState() (store strictly after the
  // delta mutation it describes, so TieredSnapshot's version check is
  // sound).
  std::shared_ptr<const TierState> state_ UNGUARDED_OK(
      "touched only through std::atomic_load/atomic_store in "
      "LoadState()/PublishState(); mutators are serialized by writer_mu_");
};

}  // namespace srtree

#endif  // SRTREE_STATICTIER_TIERED_INDEX_H_
