#include "src/debug/structural_auditor.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/geometry/kernel.h"
#include "src/geometry/point.h"
#include "src/geometry/rect.h"
#include "src/geometry/sphere.h"

namespace srtree::debug {
namespace {

// Matches the slack the trees themselves use when maintaining spheres.
constexpr double kEps = 1e-9;

// Owned copy of one NodeView entry (the view's pointers die with the
// visitor callback).
struct MirrorEntry {
  std::optional<Rect> rect;
  std::optional<Sphere> sphere;
  uint64_t weight = 0;
  bool has_weight = false;
};

// Owned copy of one visited node, linked into a tree by child index.
struct MirrorNode {
  int level = 0;
  size_t capacity = 0;
  size_t min_entries = 0;
  size_t page_count = 1;
  size_t per_page_capacity = 0;
  std::vector<MirrorEntry> entries;
  std::vector<Point> points;
  std::vector<std::unique_ptr<MirrorNode>> children;  // aligned with entries

  bool is_leaf() const { return level == 0; }
  size_t count() const { return is_leaf() ? points.size() : entries.size(); }
};

std::string PathString(const std::vector<int>& path) {
  std::string s = "root";
  for (const int i : path) {
    s += '/';
    s += std::to_string(i);
  }
  return s;
}

std::string FormatPoint(PointView p) {
  std::ostringstream os;
  os << '(';
  for (size_t i = 0; i < p.size(); ++i) {
    if (i > 0) os << ", ";
    os << p[i];
  }
  os << ')';
  return os.str();
}

class AuditRun {
 public:
  AuditRun(AuditSpec spec, const MirrorNode& root)
      : spec_(std::move(spec)), root_level_(root.level) {}

  std::vector<Violation> Run(const MirrorNode& root) {
    // At the root the claimed region is the K-D-B domain if the spec names
    // one; other trees claim nothing for the root.
    MirrorEntry root_claim;
    if (spec_.domain.has_value()) root_claim.rect = *spec_.domain;
    std::vector<int> path;
    total_points_ = 0;
    CheckNode(root, spec_.domain.has_value() ? &root_claim : nullptr,
              /*is_root=*/true, path);
    return std::move(violations_);
  }

  uint64_t total_points() const { return total_points_; }

 private:
  void Report(ViolationKind kind, const std::vector<int>& path,
              std::string detail) {
    violations_.push_back(Violation{kind, PathString(path), std::move(detail)});
  }

  // Verifies `node` against the region its parent claims for it, recurses,
  // and returns the node's subtree points (needed for the sphere and weight
  // checks of the levels above).
  std::vector<Point> CheckNode(const MirrorNode& node,
                               const MirrorEntry* claimed, bool is_root,
                               std::vector<int>& path) {
    // Uniform leaf depth / level consistency: a node at depth d must sit at
    // level root_level - d, which forces every leaf to level 0 at the same
    // depth.
    const int expected_level = root_level_ - static_cast<int>(path.size());
    if (node.level != expected_level) {
      Report(ViolationKind::kUnevenLeafDepth, path,
             "node at depth " + std::to_string(path.size()) + " has level " +
                 std::to_string(node.level) + ", expected " +
                 std::to_string(expected_level));
    }

    if (!node.is_leaf() && node.entries.empty()) {
      Report(ViolationKind::kEmptyInternalNode, path,
             "internal node has no children");
    }
    if (node.capacity > 0 && node.count() > node.capacity) {
      Report(ViolationKind::kOverfullNode, path,
             std::to_string(node.count()) + " entries exceed capacity " +
                 std::to_string(node.capacity));
    }
    if (!is_root && node.min_entries > 0 && node.count() < node.min_entries) {
      Report(ViolationKind::kUnderfullNode, path,
             std::to_string(node.count()) + " entries below minimum " +
                 std::to_string(node.min_entries));
    }
    if (is_root && !node.is_leaf() && spec_.internal_root_min2 &&
        node.entries.size() < 2) {
      Report(ViolationKind::kUnderfullNode, path,
             "internal root must have >= 2 children, has " +
                 std::to_string(node.entries.size()));
    }
    if (!node.is_leaf() && node.per_page_capacity > 0 && node.page_count > 1 &&
        node.count() <= (node.page_count - 1) * node.per_page_capacity) {
      Report(ViolationKind::kSupernodeWaste, path,
             std::to_string(node.count()) + " entries fit in " +
                 std::to_string(node.page_count - 1) + " pages but the node "
                 "occupies " + std::to_string(node.page_count));
    }

    const Rect* region =
        (claimed != nullptr && claimed->rect.has_value()) ? &*claimed->rect
                                                          : nullptr;
    CheckRects(node, region, path);
    CheckFinite(node, path);

    // Recurse, gathering the subtree's points. A non-finite point is
    // stored but unreachable, so it does not count toward size().
    std::vector<Point> local;
    if (node.is_leaf()) {
      local = node.points;
      total_points_ += static_cast<uint64_t>(std::count_if(
          node.points.begin(), node.points.end(),
          [](const Point& p) { return AllFinite(p); }));
    } else {
      for (size_t i = 0; i < node.entries.size(); ++i) {
        path.push_back(static_cast<int>(i));
        if (node.children[i] != nullptr) {
          std::vector<Point> sub = CheckNode(
              *node.children[i], &node.entries[i], /*is_root=*/false, path);
          local.insert(local.end(), std::make_move_iterator(sub.begin()),
                       std::make_move_iterator(sub.end()));
        }
        path.pop_back();
      }
    }

    if (claimed != nullptr && !is_root) {
      CheckClaim(node, *claimed, local, path);
    }
    return local;
  }

  // Every leaf point and entry region of `node` is finite (one report per
  // node for points, one per entry for regions).
  void CheckFinite(const MirrorNode& node, std::vector<int>& path) {
    for (size_t i = 0; i < node.points.size(); ++i) {
      if (!AllFinite(node.points[i])) {
        Report(ViolationKind::kNonFinite, path,
               "leaf point " + std::to_string(i) + " " +
                   FormatPoint(node.points[i]) + " is not finite");
        break;
      }
    }
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const MirrorEntry& e = node.entries[i];
      const bool rect_ok = !e.rect.has_value() ||
                           (AllFinite(e.rect->lo()) && AllFinite(e.rect->hi()));
      const bool sphere_ok =
          !e.sphere.has_value() || (AllFinite(e.sphere->center()) &&
                                    std::isfinite(e.sphere->radius()));
      if (!rect_ok || !sphere_ok) {
        path.push_back(static_cast<int>(i));
        Report(ViolationKind::kNonFinite, path,
               std::string("entry ") + (rect_ok ? "sphere" : "rect") +
                   " has a non-finite coordinate");
        path.pop_back();
      }
    }
  }

  // Rectangle semantics of `node`'s own contents against the region claimed
  // for it: containment of children/points, MBR tightness, and K-D-B
  // sibling disjointness.
  void CheckRects(const MirrorNode& node, const Rect* region,
                  std::vector<int>& path) {
    if (spec_.rect_semantics == RectSemantics::kNone) return;

    if (region != nullptr && node.is_leaf()) {
      for (size_t i = 0; i < node.points.size(); ++i) {
        if (!region->Contains(node.points[i])) {
          Report(ViolationKind::kRectContainment, path,
                 "leaf point " + std::to_string(i) + " " +
                     FormatPoint(node.points[i]) + " escapes the node region");
          break;  // one report per node keeps corrupted-tree output readable
        }
      }
    }
    if (region != nullptr && !node.is_leaf()) {
      for (size_t i = 0; i < node.entries.size(); ++i) {
        if (node.entries[i].rect.has_value() &&
            !region->ContainsRect(*node.entries[i].rect)) {
          path.push_back(static_cast<int>(i));
          Report(ViolationKind::kRectContainment, path,
                 "child region escapes the parent region");
          path.pop_back();
        }
      }
    }

    if (spec_.rect_semantics == RectSemantics::kExactMbr &&
        region != nullptr && node.count() > 0) {
      Rect mbr = Rect::Empty(spec_.dim);
      if (node.is_leaf()) {
        for (const Point& p : node.points) mbr.Expand(p);
      } else {
        for (const MirrorEntry& e : node.entries) {
          if (e.rect.has_value()) mbr.Expand(*e.rect);
        }
      }
      if (!(mbr == *region)) {
        Report(ViolationKind::kRectNotTightMbr, path,
               "claimed rect is not the exact MBR of the node contents");
      }
    }

    if (spec_.rect_semantics == RectSemantics::kPartition && !node.is_leaf()) {
      // Siblings must have pairwise disjoint interiors (shared faces OK).
      for (size_t i = 0; i < node.entries.size(); ++i) {
        if (!node.entries[i].rect.has_value()) continue;
        const Rect& a = *node.entries[i].rect;
        for (size_t j = i + 1; j < node.entries.size(); ++j) {
          if (!node.entries[j].rect.has_value()) continue;
          const Rect& b = *node.entries[j].rect;
          bool interior_overlap = true;
          for (int d = 0; d < spec_.dim; ++d) {
            if (std::max(a.lo()[d], b.lo()[d]) >=
                std::min(a.hi()[d], b.hi()[d])) {
              interior_overlap = false;
              break;
            }
          }
          if (interior_overlap) {
            Report(ViolationKind::kRegionOverlap, path,
                   "sibling regions " + std::to_string(i) + " and " +
                       std::to_string(j) + " overlap");
          }
        }
      }
    }
  }

  // Sphere containment, the SR d_r radius bound, and weight bookkeeping of
  // the entry that claims this subtree.
  void CheckClaim(const MirrorNode& node, const MirrorEntry& claimed,
                  const std::vector<Point>& subtree_points,
                  const std::vector<int>& path) {
    (void)node;
    if (spec_.has_spheres && claimed.sphere.has_value()) {
      const Sphere& sphere = *claimed.sphere;
      for (const Point& p : subtree_points) {
        const double dist = GetDistanceKernel().L2(sphere.center(), p);
        if (dist > sphere.radius() * (1.0 + kEps) + kEps) {
          Report(ViolationKind::kSphereContainment, path,
                 "point " + FormatPoint(p) + " at distance " +
                     std::to_string(dist) + " escapes sphere radius " +
                     std::to_string(sphere.radius()));
          break;
        }
      }
      if (spec_.sphere_bounded_by_rect && claimed.rect.has_value()) {
        const double d_r =
            std::sqrt(claimed.rect->MaxDistSq(sphere.center()));
        if (sphere.radius() > d_r * (1.0 + kEps) + kEps) {
          Report(ViolationKind::kSphereExceedsRect, path,
                 "sphere radius " + std::to_string(sphere.radius()) +
                     " exceeds the farthest rect corner at " +
                     std::to_string(d_r) + " (Section 4.2 min(d_s, d_r))");
        }
      }
    }
    if (spec_.has_weights && claimed.has_weight &&
        claimed.weight != subtree_points.size()) {
      Report(ViolationKind::kWeightMismatch, path,
             "entry claims " + std::to_string(claimed.weight) +
                 " points, subtree holds " +
                 std::to_string(subtree_points.size()));
    }
  }

  const AuditSpec spec_;
  const int root_level_;
  uint64_t total_points_ = 0;
  std::vector<Violation> violations_;
};

// Rebuilds an owned mirror of the visited structure. Returns nullptr when
// the index exposes no nodes (flat structures).
std::unique_ptr<MirrorNode> BuildMirror(const PointIndex& index) {
  std::unique_ptr<MirrorNode> root;
  index.VisitNodes([&root](const std::vector<int>& path,
                           const NodeView& view) {
    auto node = std::make_unique<MirrorNode>();
    node->level = view.level;
    node->capacity = view.capacity;
    node->min_entries = view.min_entries;
    node->page_count = view.page_count;
    node->per_page_capacity = view.per_page_capacity;
    node->entries.reserve(view.entries.size());
    for (const EntryView& e : view.entries) {
      MirrorEntry entry;
      if (e.rect != nullptr) entry.rect = *e.rect;
      if (e.sphere != nullptr) entry.sphere = *e.sphere;
      entry.weight = e.weight;
      entry.has_weight = e.has_weight;
      node->entries.push_back(std::move(entry));
    }
    node->children.resize(node->entries.size());
    node->points.reserve(view.points.size());
    for (const PointView p : view.points) {
      node->points.emplace_back(p.begin(), p.end());
    }

    if (path.empty()) {
      root = std::move(node);
      return;
    }
    // Preorder guarantees every ancestor was already delivered.
    MirrorNode* parent = root.get();
    CHECK(parent != nullptr);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      CHECK_LT(static_cast<size_t>(path[i]), parent->children.size());
      parent = parent->children[path[i]].get();
      CHECK(parent != nullptr);
    }
    CHECK_LT(static_cast<size_t>(path.back()), parent->children.size());
    parent->children[path.back()] = std::move(node);
  });
  return root;
}

}  // namespace

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kLevelBookkeeping:
      return "level-bookkeeping";
    case ViolationKind::kUnevenLeafDepth:
      return "uneven-leaf-depth";
    case ViolationKind::kEmptyInternalNode:
      return "empty-internal-node";
    case ViolationKind::kOverfullNode:
      return "overfull-node";
    case ViolationKind::kUnderfullNode:
      return "underfull-node";
    case ViolationKind::kSupernodeWaste:
      return "supernode-waste";
    case ViolationKind::kRectContainment:
      return "rect-containment";
    case ViolationKind::kRectNotTightMbr:
      return "rect-not-tight-mbr";
    case ViolationKind::kRegionOverlap:
      return "region-overlap";
    case ViolationKind::kSphereContainment:
      return "sphere-containment";
    case ViolationKind::kSphereExceedsRect:
      return "sphere-exceeds-rect";
    case ViolationKind::kWeightMismatch:
      return "weight-mismatch";
    case ViolationKind::kEntryCountMismatch:
      return "entry-count-mismatch";
    case ViolationKind::kNonFinite:
      return "non-finite";
  }
  return "unknown";
}

std::string FormatViolation(const Violation& violation) {
  return violation.node_path + ": " + ViolationKindName(violation.kind) +
         ": " + violation.detail;
}

std::vector<Violation> StructuralAuditor::Audit(const PointIndex& index) const {
  std::unique_ptr<MirrorNode> root = BuildMirror(index);
  if (root == nullptr) return {};  // flat structure: nothing to audit

  std::vector<Violation> violations;
  const TreeStats stats = index.GetTreeStats();
  if (root->level != stats.height - 1) {
    violations.push_back(Violation{
        ViolationKind::kLevelBookkeeping, "root",
        "root page has level " + std::to_string(root->level) +
            " but the index reports height " + std::to_string(stats.height)});
  }

  AuditRun run(index.GetAuditSpec(), *root);
  std::vector<Violation> body = run.Run(*root);
  violations.insert(violations.end(), std::make_move_iterator(body.begin()),
                    std::make_move_iterator(body.end()));

  if (run.total_points() != index.size()) {
    violations.push_back(Violation{
        ViolationKind::kEntryCountMismatch, "root",
        "leaves hold " + std::to_string(run.total_points()) +
            " reachable points but the index reports size " +
            std::to_string(index.size())});
  }
  return violations;
}

Status StructuralAuditor::ToStatus(const std::vector<Violation>& violations) {
  if (violations.empty()) return Status::OK();
  std::string msg = "structural audit: " + FormatViolation(violations[0]);
  if (violations.size() > 1) {
    msg += " (+" + std::to_string(violations.size() - 1) + " more)";
  }
  return Status::Corruption(std::move(msg));
}

Status AuditIndex(const PointIndex& index) {
  return StructuralAuditor::ToStatus(StructuralAuditor().Audit(index));
}

}  // namespace srtree::debug
