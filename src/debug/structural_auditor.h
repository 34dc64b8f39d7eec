// StructuralAuditor: one tree-agnostic verifier for the structural
// invariants that every index variant must maintain.
//
// The auditor walks any PointIndex through its VisitNodes() hook and checks
// the rules declared by its AuditSpec:
//   * region containment — child regions and leaf points stay inside the
//     region their parent entry claims for them;
//   * region exactness — R*-family rectangles are exact MBRs; K-D-B sibling
//     regions tile their parent disjointly;
//   * SR-specific sphere rules (Section 4.2/4.4) — every subtree point lies
//     inside the entry sphere, and the min(d_s, d_r) radius never exceeds
//     the farthest corner of the entry's own rectangle;
//   * fanout within [min_entries, capacity];
//   * uniform leaf depth and level bookkeeping;
//   * finiteness — every leaf point and every region (rect bounds, sphere
//     center and radius) is finite: a NaN compares false against every
//     bound, so it would slip past the containment checks above while
//     hiding what it guards from every query;
//   * entry-count bookkeeping — entry weights match actual subtree counts
//     and the reachable (finite) leaf points number PointIndex::size().
//
// Unlike a bare Status, the auditor reports a typed list of violations,
// each naming the offending node by its root path ("root/2/0"), so tests
// can assert both the class and the location of an injected corruption.

#ifndef SRTREE_DEBUG_STRUCTURAL_AUDITOR_H_
#define SRTREE_DEBUG_STRUCTURAL_AUDITOR_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/index/point_index.h"

namespace srtree::debug {

enum class ViolationKind {
  kLevelBookkeeping,    // stored root level disagrees with the root page
  kUnevenLeafDepth,     // node level inconsistent with its depth
  kEmptyInternalNode,   // internal node with zero children
  kOverfullNode,        // entry count above capacity
  kUnderfullNode,       // entry count below the structural minimum
  kRectContainment,     // child rect or leaf point escapes the parent region
  kRectNotTightMbr,     // claimed rect is not the exact MBR of the contents
  kRegionOverlap,       // K-D-B sibling regions overlap in their interiors
  kSphereContainment,   // subtree point escapes the entry sphere
  kSphereExceedsRect,   // sphere radius above the d_r bound (Section 4.2)
  kWeightMismatch,      // entry weight != actual subtree point count
  kEntryCountMismatch,  // reachable leaf point total != PointIndex::size()
  kNonFinite,           // leaf point or entry region has a NaN/inf coordinate
};

const char* ViolationKindName(ViolationKind kind);

struct Violation {
  ViolationKind kind;
  // Path of the offending node: "root" or "root/<i>/<j>/...". For claimed
  // region violations this names the node the region describes, not the
  // parent page that stores the entry.
  std::string node_path;
  std::string detail;
};

// "root/2/0: sphere-containment: <detail>"
std::string FormatViolation(const Violation& violation);

class StructuralAuditor {
 public:
  // Walks `index` and returns every violation found (empty = clean).
  // Structures that expose no nodes are vacuously clean.
  std::vector<Violation> Audit(const PointIndex& index) const;

  // Condenses an audit result into a Status: OK when empty, otherwise
  // Corruption carrying the first violation (and a count of the rest).
  static Status ToStatus(const std::vector<Violation>& violations);
};

// Convenience used by the trees' CheckInvariants(): audit and condense.
Status AuditIndex(const PointIndex& index);

}  // namespace srtree::debug

#endif  // SRTREE_DEBUG_STRUCTURAL_AUDITOR_H_
