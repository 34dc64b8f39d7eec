// Tree-agnostic structural introspection: the vocabulary through which any
// PointIndex exposes its node pages to external walkers.
//
// PointIndex::VisitNodes() presents every node as a NodeView — level,
// fanout limits, the regions recorded for each child, and the leaf points —
// without leaking any tree's private Node type. PointIndex::GetAuditSpec()
// declares which structural rules those views must obey (exact MBRs vs.
// disjoint K-D-B partitions, bounding spheres, entry weights, ...). The
// debug::StructuralAuditor consumes both to verify the shared invariants of
// all six tree variants with one implementation.

#ifndef SRTREE_INDEX_NODE_VIEW_H_
#define SRTREE_INDEX_NODE_VIEW_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/geometry/point.h"
#include "src/geometry/rect.h"
#include "src/geometry/sphere.h"

namespace srtree {

// One child entry of an internal node, as recorded in the parent page.
// Pointers refer to tree-owned storage and are valid only for the duration
// of the NodeVisitor callback.
struct EntryView {
  const Rect* rect = nullptr;      // nullptr when the tree stores no rect
  const Sphere* sphere = nullptr;  // nullptr when the tree stores no sphere
  uint64_t weight = 0;             // claimed subtree point count
  bool has_weight = false;         // false when the tree tracks no weights
};

// Snapshot of one node page. `capacity`/`min_entries` are the fanout limits
// for THIS node (bulk-loaded structures report min_entries = 0, meaning "no
// minimum is enforced").
struct NodeView {
  int level = 0;              // 0 = leaf
  size_t capacity = 0;        // maximum entries this node may hold
  size_t min_entries = 0;     // structural minimum for non-root nodes
  std::vector<EntryView> entries;  // internal node: one per child
  std::vector<PointView> points;   // leaf node: the stored points
};

// Callback invoked once per node in preorder (parent before children).
// `path` is the sequence of child indexes from the root; empty = root.
using NodeVisitor =
    std::function<void(const std::vector<int>& path, const NodeView& node)>;

// What the rectangles recorded in parent entries mean for a given tree.
enum class RectSemantics {
  kNone,      // the tree stores no rectangles (SS-tree)
  kExactMbr,  // entry rect == exact MBR of the child's contents (R*-family)
  kPartition, // child regions tile the parent region disjointly (K-D-B)
};

// The structural rules a tree's VisitNodes() output must satisfy, consumed
// by debug::StructuralAuditor. The defaults describe a flat structure with
// no nodes (brute-force scan), for which every check is vacuous.
struct AuditSpec {
  // Dimensionality of the stored shapes. The TV-tree stores regions over
  // its active subspace only, so this may be smaller than PointIndex::dim().
  int dim = 0;
  RectSemantics rect_semantics = RectSemantics::kNone;
  // Entry spheres must contain every point of their subtree (SS/SR).
  bool has_spheres = false;
  // SR-tree Section 4.2: radius = min(d_s, d_r) implies the sphere never
  // exceeds the farthest corner of the entry's own rectangle.
  bool sphere_bounded_by_rect = false;
  // Entry weights must equal the actual subtree point counts (SS/SR).
  bool has_weights = false;
  // An internal root must hold at least two children.
  bool internal_root_min2 = false;
  // kPartition only: the region the root is responsible for tiling.
  std::optional<Rect> domain;
};

}  // namespace srtree

#endif  // SRTREE_INDEX_NODE_VIEW_H_
