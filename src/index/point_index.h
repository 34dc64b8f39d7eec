// PointIndex: the common interface of every index structure in this library.
//
// All five trees (SR, SS, R*, K-D-B, VAMSplit R) plus the brute-force
// baseline implement this interface, which is what lets the experiment
// harness, the invariant checkers, and the property tests treat them
// uniformly.

#ifndef SRTREE_INDEX_POINT_INDEX_H_
#define SRTREE_INDEX_POINT_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/geometry/point.h"
#include "src/index/node_view.h"
#include "src/index/query.h"
#include "src/index/region_stats.h"
#include "src/storage/io_stats.h"

namespace srtree {

class EpochManager;
class PointIndex;

// The three traversal hooks every query entry point dispatches to, split
// out of PointIndex so snapshot objects (IndexSnapshot implementations that
// traverse a pinned version) can share the exact validation shell —
// RunValidatedSearch below — with the live index. Implementations are
// called only with a validated spec and a query of the right
// dimensionality; they record every page read into `io` (never null) and
// must be const + re-entrant, carrying all traversal state on the stack.
class SearchDispatch {
 public:
  virtual std::vector<Neighbor> KnnDfsImpl(PointView query, int k,
                                           IoStatsDelta* io) const = 0;
  virtual std::vector<Neighbor> KnnBestFirstImpl(PointView query, int k,
                                                 IoStatsDelta* io) const = 0;
  virtual std::vector<Neighbor> RangeImpl(PointView query, double radius,
                                          IoStatsDelta* io) const = 0;

 protected:
  ~SearchDispatch() = default;  // deleted only through concrete owners
};

// The single validation + dispatch + timing shell behind every Search():
// checks the spec (k >= 1 for the k-NN kinds, radius finite and >= 0 for
// range, query dimensionality == `dim`, every query coordinate finite),
// returns InvalidArgument with an empty neighbor list when malformed (no
// traversal runs), and otherwise routes to the matching SearchDispatch
// hook, stamping elapsed time either way.
[[nodiscard]] QueryResult RunValidatedSearch(const SearchDispatch& dispatch,
                                             int dim, PointView query,
                                             const QuerySpec& spec);

// The boundary checks every mutation shares, so a point no query could
// reach is never stored: InvalidArgument when `point` does not have `dim`
// coordinates or has a non-finite one (NaN compares false against every
// bound). ValidateBulkLoad also requires one oid per point, and checks
// every point before a BulkLoad stores any.
[[nodiscard]] Status ValidatePoint(PointView point, int dim);
[[nodiscard]] Status ValidateBulkLoad(const std::vector<Point>& points,
                                      const std::vector<uint32_t>& oids,
                                      int dim);

// A read view of an index pinned at acquisition time. What "pinned" means
// is the implementation's contract:
//
//   * This base class is a pass-through for the frozen-tree structures
//     (everything except the SR-tree): no writer may run concurrently by
//     contract, so forwarding to the live index IS a stable snapshot, and
//     version() reports 0.
//   * The SR-tree returns a snapshot-isolated view (see SRTree): queries
//     against it observe exactly the committed version that was current at
//     AcquireSnapshot() time, unaffected by concurrent Insert/Delete
//     commits, and version() reports that committed version.
//
// The snapshot must not outlive the index it was acquired from.
class IndexSnapshot {
 public:
  explicit IndexSnapshot(const PointIndex* index) : index_(index) {}
  virtual ~IndexSnapshot() = default;

  IndexSnapshot(const IndexSnapshot&) = delete;
  IndexSnapshot& operator=(const IndexSnapshot&) = delete;

  // Same contract as PointIndex::Search, evaluated against the pinned view.
  [[nodiscard]] virtual QueryResult Search(PointView query,
                                           const QuerySpec& spec) const;

  // The committed version this snapshot pins, or 0 when the structure has
  // no versioning (frozen-tree pass-through).
  virtual uint64_t version() const { return 0; }

  // Number of points in the pinned view.
  virtual size_t size() const;

 protected:
  const PointIndex* index_;
};

// Structural statistics gathered by walking the tree (no I/O accounting).
struct TreeStats {
  int height = 0;           // number of levels; a lone leaf has height 1
  uint64_t node_count = 0;  // non-leaf pages
  uint64_t leaf_count = 0;  // leaf pages
  uint64_t entry_count = 0; // indexed points
};

// Counters of structural maintenance performed since construction. Which
// fields a structure uses depends on its algorithms: the R*/SS/SR trees
// split and force-reinsert; the K-D-B-tree splits and force-splits
// descendants; static structures report zeros.
struct MaintenanceStats {
  uint64_t splits = 0;         // page splits (leaf or node)
  uint64_t reinsertions = 0;   // forced-reinsertion events
  uint64_t forced_splits = 0;  // K-D-B downward forced splits
};

class PointIndex : private SearchDispatch {
 public:
  virtual ~PointIndex() = default;

  virtual int dim() const = 0;

  // Number of points currently indexed.
  virtual size_t size() const = 0;

  // Short identifier used in reports, e.g. "SR-tree".
  virtual std::string name() const = 0;

  virtual Status Insert(PointView point, uint32_t oid) = 0;

  // Removes one (point, oid) pair. NotFound if absent. Static structures
  // return Unimplemented.
  virtual Status Delete(PointView point, uint32_t oid) = 0;

  // Builds the index from scratch. The default implementation inserts
  // sequentially; bulk-loaded structures (VAMSplit R-tree) override it.
  // Fails if the index is non-empty.
  virtual Status BulkLoad(const std::vector<Point>& points,
                          const std::vector<uint32_t>& oids);

  // Reorganizes the physical representation without changing the logical
  // contents (the tiered index rebuilds its static tier from static + delta
  // and drops its tombstones). Structures without a compaction concept —
  // every single-tier tree — treat it as a no-op.
  virtual Status Compact() { return Status::OK(); }

  // Enumerates every stored (point, oid) pair, in unspecified order. The
  // compaction/merge feed. Unimplemented by default; the SR-tree family
  // members that participate in tiering override it.
  virtual Status ExportEntries(
      const std::function<void(PointView, uint32_t)>& fn) const {
    (void)fn;
    return Status::Unimplemented(name() + " does not support ExportEntries()");
  }

  // Persists the index — options, tree metadata, and the full page file —
  // as a single checksummed image at `path`, written atomically (temp file
  // + fsync + rename; see src/storage/image_io.h): the destination always
  // holds either the previous image or the complete new one. Reopen with
  // OpenIndex() (src/index/index_factory.h) or the concrete tree's static
  // Open(). Structures without a page representation (the brute-force
  // scan) return Unimplemented.
  virtual Status Save(const std::string& path) const {
    (void)path;
    return Status::Unimplemented(name() + " does not support Save()");
  }

  // The unified query entry point. Validates the spec (k >= 1 for the k-NN
  // kinds, radius >= 0 and finite for range, query dimensionality matching
  // dim(), every query coordinate finite) and returns InvalidArgument with
  // an empty neighbor list when it is malformed — no traversal runs. The
  // read path is const and
  // re-entrant: any number of Search() calls may run concurrently. Whether
  // they may also run concurrently with mutations is per-structure: the
  // SR-tree serves every Search() from a pinned committed snapshot and is
  // safe against its (single) writer; the other structures keep the legacy
  // frozen-tree contract — no mutation
  // (Insert/Delete/BulkLoad/ResetIoStats/...) while queries are in flight.
  //
  // Neighbors come back closest first, ties broken by oid:
  //   kKnn          — the paper's depth-first branch-and-bound
  //                   (Roussopoulos et al.); at most k results.
  //   kKnnBestFirst — the same result set via the best-first traversal of
  //                   Hjaltason & Samet, which reads no more pages than any
  //                   algorithm using the same MINDIST bound.
  //   kRange        — all points within spec.radius (closed ball).
  [[nodiscard]] QueryResult Search(PointView query, const QuerySpec& spec) const;

  // Pins a read view of the index (see IndexSnapshot for what that means
  // per structure). The default is the frozen-tree pass-through; the
  // SR-tree overrides it with real snapshot isolation.
  [[nodiscard]] virtual std::unique_ptr<IndexSnapshot> AcquireSnapshot()
      const;

  // Fanout limits implied by the serialized page layout (the paper's
  // Table 1). node_capacity() is 0 for flat structures without nodes.
  virtual size_t leaf_capacity() const = 0;
  virtual size_t node_capacity() const = 0;

  virtual TreeStats GetTreeStats() const = 0;

  // Structural maintenance counters (see MaintenanceStats).
  virtual MaintenanceStats GetMaintenanceStats() const { return {}; }

  // Preorder walk over the index's node pages, presenting each as a
  // tree-agnostic NodeView (see src/index/node_view.h). Uses no I/O
  // accounting. Flat structures visit nothing; that is the default.
  virtual void VisitNodes(const NodeVisitor& visitor) const {
    (void)visitor;
  }

  // Declares which structural rules this index's VisitNodes() output obeys;
  // consumed by debug::StructuralAuditor. The default describes a structure
  // with no nodes.
  virtual AuditSpec GetAuditSpec() const { return {}; }

  // Deep structural validation (region containment, utilization, balance).
  // Used by tests and debug builds; walks pages without I/O accounting.
  // Every tree routes this through debug::StructuralAuditor, which reports
  // the first violation (with its node path) as a Corruption status.
  virtual Status CheckInvariants() const = 0;

  // Geometry of leaf-level regions — volumes and diameters for the
  // Figure 5/6/12/13 experiments.
  virtual RegionSummary LeafRegionSummary() const = 0;

  // Zeroes the global counters. The reset itself is safe against
  // concurrent reads in every implementation, but the reset-then-measure
  // pattern it exists for is not: a Search() racing the reset lands its reads on an unknown side of
  // the zeroing, corrupting the measurement. Callers must quiesce the index
  // (join every query thread) before resetting — the contract
  // debug::RunConcurrentQueryFuzz asserts after its workers join.
  // Concurrent-safe accounting uses QueryResult::io deltas instead; srlint
  // rule R1 flags new call sites of this method.
  virtual void ResetIoStats() = 0;

  // Disk access counters for the measurements: a by-value snapshot of the
  // global counters, safe to take while queries are in flight. Per-query
  // accounting comes back in QueryResult::io; summed over a quiesced batch
  // the deltas equal the movement of these counters.
  virtual IoStats GetIoStats() const = 0;

  // Enables LRU-cache simulation on the underlying page file (see
  // PageFile::SimulateCache). No-op for structures without one.
  virtual void SimulateBufferPool(size_t capacity) { (void)capacity; }

  // Test hook: the epoch-reclamation domain behind this structure's
  // snapshot machinery, or nullptr for frozen-tree structures that have
  // none. The mixed read/write fuzz uses it to assert the retire backlog
  // drains to zero once every reader has quiesced — the leak check epoch
  // reclamation owes its callers.
  virtual EpochManager* epoch_domain_for_test() const { return nullptr; }

  // Routes the query read path through a real sharded BufferPool of
  // `capacity` pages over the structure's page file (0 detaches it). Pool
  // hits cost no disk read, so the paper's uncached figures require the
  // default detached state. No-op for structures without pages. Not
  // thread-safe against in-flight queries.
  virtual void UseBufferPool(size_t capacity) { (void)capacity; }

 protected:
  // Traversal hooks behind Search(), inherited from SearchDispatch (see its
  // contract comment). Redeclared here — still pure — so they are protected
  // members of every index: the base is a private one, and implementations
  // override these, not callers.
  std::vector<Neighbor> KnnDfsImpl(PointView query, int k,
                                   IoStatsDelta* io) const override = 0;
  std::vector<Neighbor> KnnBestFirstImpl(PointView query, int k,
                                         IoStatsDelta* io) const override = 0;
  std::vector<Neighbor> RangeImpl(PointView query, double radius,
                                  IoStatsDelta* io) const override = 0;
};

}  // namespace srtree

#endif  // SRTREE_INDEX_POINT_INDEX_H_
