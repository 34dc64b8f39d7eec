// PointIndex: the common interface of every index structure in this library.
//
// All ten index types implement this interface: the paper's five trees
// (SR, SS, R*, K-D-B, VAMSplit R), the X- and TV-trees, the brute-force
// scan, the static SR tier and the tiered index. That is what lets the
// experiment harness, the invariant checkers, and the property tests treat
// them uniformly. Every tree answers its queries with the one set of
// traversals in src/index/traversal.h, each run with the tree's own region
// bound.

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

// The traversal hook every query entry point dispatches to, split out of
// PointIndex so snapshot objects (IndexSnapshot implementations that
// traverse a pinned version) can share the exact validation shell —
// RunValidatedSearch below — with the live index. Implementations are
// called only with a validated spec and a query of the right
// dimensionality; they record every page read into `io` (never null) and
// must be const + re-entrant, carrying all traversal state on the stack.
class SearchDispatch {
 public:
  virtual std::vector<Neighbor> SearchImpl(PointView query,
                                           const QuerySpec& spec,
                                           IoStatsDelta* io) const = 0;

 protected:
  ~SearchDispatch() = default;  // deleted only through concrete owners
};

// The single validation + dispatch + timing shell behind every Search():
// checks the query as ValidatePoint checks a stored point (dimensionality
// == `dim`, every coordinate finite and within MaxCoordinateMagnitude) and
// the spec (k >= 1 for the k-NN kinds, radius finite and >= 0 for range),
// returns InvalidArgument with an empty neighbor list when malformed (no
// traversal runs), and otherwise routes to the SearchDispatch hook,
// stamping elapsed time either way.
[[nodiscard]] QueryResult RunValidatedSearch(const SearchDispatch& dispatch,
                                             int dim, PointView query,
                                             const QuerySpec& spec);

// The numeric domain of a stored coordinate at dimensionality `dim`: the
// largest magnitude m with D·(2m)² <= DBL_MAX / 2. D·(2m)² bounds every
// squared distance between two stored points; the factor-two headroom
// absorbs the rounding of any summation order, since at the bare threshold
// a D-term kernel sum still overflows for some D (3, 9, 11, ...).
[[nodiscard]] double MaxCoordinateMagnitude(int dim);

// The boundary checks every mutation shares, so a point no query could
// reach is never stored: InvalidArgument when `point` does not have `dim`
// coordinates, has a non-finite one (NaN compares false against every
// bound), or has one beyond MaxCoordinateMagnitude(dim), where squared
// distances could overflow to inf and stop ranking. ValidateBulkLoad also
// requires one oid per point, and checks every point before a BulkLoad
// stores any.
[[nodiscard]] Status ValidatePoint(PointView point, int dim);
[[nodiscard]] Status ValidateBulkLoad(const std::vector<Point>& points,
                                      const std::vector<uint32_t>& oids,
                                      int dim);

// A read view of an index pinned at acquisition time. Every paged index
// (src/index/paged_index.h) and the tiered index return a snapshot-isolated
// view: queries against it observe exactly the committed version that was
// current at AcquireSnapshot() time, unaffected by concurrent Insert/Delete
// commits, and version() reports that committed version. The brute-force
// scan, the oracle with no page file, returns a view onto its live contents
// with version 0.
//
// The snapshot must not outlive the index it was acquired from.
class IndexSnapshot {
 public:
  IndexSnapshot() = default;
  virtual ~IndexSnapshot() = default;

  IndexSnapshot(const IndexSnapshot&) = delete;
  IndexSnapshot& operator=(const IndexSnapshot&) = delete;

  // Same contract as PointIndex::Search, evaluated against the pinned view.
  [[nodiscard]] virtual QueryResult Search(PointView query,
                                           const QuerySpec& spec) const = 0;

  // The committed version this snapshot pins, or 0 for the scan's
  // unversioned view.
  virtual uint64_t version() const = 0;

  // Number of points in the pinned view.
  virtual size_t size() const = 0;
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

// The page storage behind an index: its live pages, the logical page size
// each one counts as (the paper's block, the unit of capacity and of read
// accounting), and the bytes the pages actually hold — each page's stored
// extent (src/storage/page_file.h), which a page that does not fill its
// block keeps below page_size.
struct PageFootprint {
  uint64_t pages = 0;
  uint64_t page_size = 0;
  uint64_t stored_bytes = 0;

  uint64_t logical_bytes() const { return pages * page_size; }
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
  // read path is const and re-entrant: any number of Search() calls may
  // run concurrently, and every index but the brute-force scan serves each
  // one from a pinned committed version, so they are also safe against its
  // single writer (Insert/Delete/BulkLoad/Compact, one thread at a time).
  // The scan, the test oracle, requires its mutations to be excluded from
  // its queries.
  //
  // Neighbors come back closest first, ties broken by oid:
  //   kKnn          — the paper's depth-first branch-and-bound
  //                   (Roussopoulos et al.); at most k results.
  //   kKnnBestFirst — the same result set via the best-first traversal of
  //                   Hjaltason & Samet, which reads no more pages than any
  //                   algorithm using the same MINDIST bound.
  //   kRange        — all points within spec.radius (closed ball).
  [[nodiscard]] QueryResult Search(PointView query, const QuerySpec& spec) const;

  // Pins a read view of the index (see IndexSnapshot).
  [[nodiscard]] virtual std::unique_ptr<IndexSnapshot> AcquireSnapshot()
      const = 0;

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

  // Disk access counters for the measurements: a by-value snapshot of the
  // global counters, safe to take while queries are in flight. Per-query
  // accounting comes back in QueryResult::io; summed over a quiesced batch
  // the deltas equal the movement of these counters.
  virtual IoStats GetIoStats() const = 0;

  // Enables LRU-cache simulation on the underlying page file (see
  // PageFile::SimulateCache), the one cache model: queries still read every
  // page in place, and only the cache-miss count changes. No-op for
  // structures without a page file.
  virtual void SimulateBufferPool(size_t capacity) { (void)capacity; }

  // The index's page storage (see PageFootprint); all zero for structures
  // without a page file. Walks nothing: the page file keeps the totals.
  virtual PageFootprint GetPageFootprint() const { return {}; }

  // Test hook: the epoch-reclamation domain behind this structure's
  // snapshot machinery, or nullptr for the scan, which has none. The mixed
  // read/write fuzz uses it to assert the retire backlog drains to zero
  // once every reader has quiesced — the leak check epoch reclamation owes
  // its callers.
  virtual EpochManager* epoch_domain_for_test() const { return nullptr; }

 protected:
  // Traversal hook behind Search(), inherited from SearchDispatch (see its
  // contract comment). Redeclared here — still pure — so it is a protected
  // member of every index: the base is a private one, and implementations
  // override it, not callers.
  std::vector<Neighbor> SearchImpl(PointView query, const QuerySpec& spec,
                                   IoStatsDelta* io) const override = 0;
};

}  // namespace srtree

#endif  // SRTREE_INDEX_POINT_INDEX_H_
