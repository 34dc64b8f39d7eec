#include "src/kdb/kdb_tree.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"
#include "src/debug/structural_auditor.h"
#include "src/geometry/kernel.h"
#include "src/index/traversal.h"
#include "src/storage/image_io.h"

namespace srtree {
namespace {

constexpr size_t kHeaderBytes = 8;

bool SamePoint(PointView a, PointView b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

KdbTree::KdbTree(const Options& options)
    : PagedIndex(options.page_size), options_(options) {
  CHECK_GT(options_.dim, 0);
  CHECK_LT(options_.domain_lo, options_.domain_hi);

  const size_t dim = static_cast<size_t>(options_.dim);
  const size_t leaf_entry =
      dim * sizeof(double) + sizeof(uint32_t) + options_.leaf_data_size;
  const size_t node_entry = 2 * dim * sizeof(double) + sizeof(uint32_t);
  leaf_cap_ = (options_.page_size - kHeaderBytes) / leaf_entry;
  node_cap_ = (options_.page_size - kHeaderBytes) / node_entry;
  page_shape_ = {.leaf_capacity = leaf_cap_,
                 .node_capacity = node_cap_,
                 .leaf_entry_bytes = leaf_entry,
                 .node_entry_bytes = node_entry};
  CHECK_GE(leaf_cap_, 2u);
  CHECK_GE(node_cap_, 2u);

  Node root;
  root.id = file_.Allocate();
  root.level = 0;
  WriteNode(root);
  root_id_ = root.id;
  PublishBuilt(root_id_, root_level_, size_);  // the empty tree
}

Rect KdbTree::Domain() const {
  return Rect(Point(options_.dim, options_.domain_lo),
              Point(options_.dim, options_.domain_hi));
}

// --------------------------------------------------------------------------
// Persistence
// --------------------------------------------------------------------------

namespace {

// v2 header record embedded in the SRIX container (src/storage/image_io.h);
// the container carries the magic, tag, and a CRC32C over these bytes.
struct KdbImageHeader {
  int32_t dim;
  uint32_t pad0;
  uint64_t page_size;
  uint64_t leaf_data_size;
  double domain_lo;
  double domain_hi;
  uint32_t root_id;
  int32_t root_level;
  uint64_t size;
};

// True iff `o` would pass every constructor CHECK, so Open() can reject a
// forged header with Corruption instead of crashing the process. The
// negated comparison also rejects NaN domain bounds.
bool PlausibleOptions(const KdbTree::Options& o) {
  if (o.dim <= 0 || o.dim > (1 << 16)) return false;
  if (!(o.domain_lo < o.domain_hi)) return false;
  if (o.page_size <= kHeaderBytes || o.page_size > (1u << 28)) return false;
  if (o.leaf_data_size > o.page_size) return false;
  const size_t dim = static_cast<size_t>(o.dim);
  const size_t leaf_entry =
      dim * sizeof(double) + sizeof(uint32_t) + o.leaf_data_size;
  const size_t node_entry = 2 * dim * sizeof(double) + sizeof(uint32_t);
  return (o.page_size - kHeaderBytes) / leaf_entry >= 2 &&
         (o.page_size - kHeaderBytes) / node_entry >= 2;
}

}  // namespace

Status KdbTree::Save(const std::string& path) const {
  KdbImageHeader header = {};
  header.dim = options_.dim;
  header.page_size = options_.page_size;
  header.leaf_data_size = options_.leaf_data_size;
  header.domain_lo = options_.domain_lo;
  header.domain_hi = options_.domain_hi;
  header.root_id = root_id_;
  header.root_level = root_level_;
  header.size = size_;
  return AtomicWriteFile(path, [&](std::ostream& out) {
    RETURN_IF_ERROR(
        WriteIndexImageTo(out, kImageTag, &header, sizeof(header)));
    return file_.SaveTo(out);
  });
}

StatusOr<std::unique_ptr<KdbTree>> KdbTree::Open(const std::string& path) {
  KdbImageHeader header = {};
  IndexImageFile image;
  RETURN_IF_ERROR(image.Open(path, kImageTag, &header, sizeof(header)));

  Options options;
  options.dim = header.dim;
  options.page_size = header.page_size;
  options.leaf_data_size = header.leaf_data_size;
  options.domain_lo = header.domain_lo;
  options.domain_hi = header.domain_hi;
  if (!PlausibleOptions(options) || header.root_level < 0 ||
      header.root_level > 64) {
    return Status::Corruption("implausible K-D-B-tree header");
  }
  auto tree = std::make_unique<KdbTree>(options);
  RETURN_IF_ERROR(tree->LoadFullPages(image.stream()));
  RETURN_IF_ERROR(tree->ValidatePageTree("K-D-B-tree", header.root_id,
                                         header.root_level, header.size,
                                         tree->page_shape_));
  tree->root_id_ = header.root_id;
  tree->root_level_ = header.root_level;
  tree->size_ = header.size;
  tree->maintenance_ = MaintenanceStats{};
  tree->PublishBuilt(tree->root_id_, tree->root_level_, tree->size_);
  RETURN_IF_ERROR(tree->CheckInvariants());
  return tree;
}

// --------------------------------------------------------------------------
// Page I/O
// --------------------------------------------------------------------------

void KdbTree::SerializeNode(const Node& node, char* buf) const {
  CHECK_LE(node.count(), Capacity(node));
  PageWriter w(buf, options_.page_size);
  w.PutU8(static_cast<uint8_t>(node.level));
  w.PutU8(0);
  w.PutU16(static_cast<uint16_t>(node.count()));
  w.PutU32(0);
  if (node.is_leaf()) {
    for (const LeafEntry& e : node.points) {
      w.PutDoubles(e.point);
      w.PutU32(e.oid);
      w.Skip(options_.leaf_data_size);
    }
  } else {
    for (const NodeEntry& e : node.children) {
      w.PutDoubles(e.region.lo());
      w.PutDoubles(e.region.hi());
      w.PutU32(e.child);
    }
  }
  // The rest of the page is zero (StageWrite hands back a dirty buffer).
  w.Skip(w.remaining());
}

KdbTree::Node KdbTree::DeserializeNode(const char* buf, PageId id) const {
  PageReader r(buf, options_.page_size);
  Node node;
  node.id = id;
  node.level = r.GetU8();
  r.GetU8();
  const size_t count = r.GetU16();
  r.GetU32();
  const size_t dim = static_cast<size_t>(options_.dim);
  if (node.level == 0) {
    node.points.resize(count);
    for (LeafEntry& e : node.points) {
      e.point.resize(dim);
      r.GetDoubles(e.point);
      e.oid = r.GetU32();
      r.Skip(options_.leaf_data_size);
    }
  } else {
    node.children.resize(count);
    for (NodeEntry& e : node.children) {
      Point lo(dim), hi(dim);
      r.GetDoubles(lo);
      r.GetDoubles(hi);
      e.region = Rect(std::move(lo), std::move(hi));
      e.child = r.GetU32();
    }
  }
  return node;
}

KdbTree::Node KdbTree::ReadNode(PageId id, int level) const {
  // The writer's working page, read in place and counted once.
  const char* page = file_.ReadInPlace(id, level);
  Node node = DeserializeNode(page, id);
  DCHECK_EQ(node.level, level);
  return node;
}

KdbTree::Node KdbTree::PeekNode(PageId id) const {
  return DeserializeNode(file_.PeekPage(id), id);
}

void KdbTree::WriteNode(const Node& node) {
  // Copy-on-write staging keeps snapshots on the committed buffer.
  SerializeNode(node, file_.StageWrite(node.id));
}

// --------------------------------------------------------------------------
// Insertion & splitting
// --------------------------------------------------------------------------

Status KdbTree::InsertLocked(PointView point, uint32_t oid) {
  if (!Domain().Contains(point)) {
    return Status::InvalidArgument("point outside the indexed domain");
  }

  RETURN_IF_ERROR(InsertPoint(point, oid));
  ++size_;
  CommitRoot(root_id_, root_level_, size_);
  return Status::OK();
}

Status KdbTree::InsertPoint(PointView point, uint32_t oid) {
  // Descend to the point page responsible for `point`. Regions on one level
  // partition the domain, so exactly one child's interior (or boundary)
  // contains the point; the first containing child wins on shared faces.
  std::vector<Node> path;
  std::vector<int> idx;
  Node cur = ReadNode(root_id_, root_level_);
  while (!cur.is_leaf()) {
    int chosen = -1;
    for (size_t i = 0; i < cur.children.size(); ++i) {
      if (cur.children[i].region.Contains(point)) {
        chosen = static_cast<int>(i);
        break;
      }
    }
    CHECK_GE(chosen, 0);  // the partition invariant guarantees a match
    const PageId child = cur.children[chosen].child;
    const int child_level = cur.level - 1;
    path.push_back(std::move(cur));
    idx.push_back(chosen);
    cur = ReadNode(child, child_level);
  }
  // No plane separates identical points, so a point page can never hold
  // more copies of one point than it has slots. Refuse before staging.
  const auto copies = std::count_if(
      cur.points.begin(), cur.points.end(), [&](const LeafEntry& e) {
        return std::equal(point.begin(), point.end(), e.point.begin(),
                          e.point.end());
      });
  if (static_cast<size_t>(copies) >= leaf_cap_) {
    return Status::FailedPrecondition(
        "a K-D-B point page holds at most leaf_capacity() copies of one "
        "point");
  }
  cur.points.push_back(LeafEntry{Point(point.begin(), point.end()), oid});

  if (cur.points.size() <= leaf_cap_) {
    WriteNode(cur);
    return Status::OK();
  }

  // Split the overflowing page; replace the parent's entry with the new
  // entries and propagate overflow upward. Regions never change shape above
  // the split, so no ancestor updates are needed beyond the replacement.
  Rect region = path.empty() ? Domain() : path.back().children[idx.back()].region;
  std::vector<NodeEntry> new_entries;
  SplitToEntries(std::move(cur), region, new_entries);

  for (int i = static_cast<int>(path.size()) - 1; i >= 0; --i) {
    Node& parent = path[i];
    parent.children.erase(parent.children.begin() + idx[i]);
    parent.children.insert(parent.children.end(), new_entries.begin(),
                           new_entries.end());
    if (parent.children.size() <= node_cap_) {
      WriteNode(parent);
      return Status::OK();
    }
    region = (i > 0) ? path[i - 1].children[idx[i - 1]].region : Domain();
    new_entries.clear();
    SplitToEntries(std::move(parent), region, new_entries);
  }

  // The root itself split: grow the tree (repeatedly, in the degenerate
  // case where even the new root overflows).
  int level = root_level_;
  while (true) {
    Node root;
    root.id = file_.Allocate();
    root.level = ++level;
    root.children = std::move(new_entries);
    if (root.children.size() <= node_cap_) {
      WriteNode(root);
      root_id_ = root.id;
      root_level_ = root.level;
      return Status::OK();
    }
    new_entries.clear();
    SplitToEntries(std::move(root), Domain(), new_entries);
  }
}

void KdbTree::SplitToEntries(Node&& node, const Rect& region,
                             std::vector<NodeEntry>& out) {
  if (node.count() <= Capacity(node)) {
    WriteNode(node);
    out.push_back(NodeEntry{region, node.id});
    return;
  }

  ++maintenance_.splits;
  int dim = 0;
  double value = 0.0;
  ChoosePlane(node, region, dim, value);

  Node left, right;
  left.id = node.id;
  right.id = file_.Allocate();
  left.level = right.level = node.level;
  if (node.is_leaf()) {
    for (LeafEntry& e : node.points) {
      (e.point[dim] < value ? left.points : right.points)
          .push_back(std::move(e));
    }
  } else {
    for (NodeEntry& e : node.children) {
      if (e.region.hi()[dim] <= value) {
        left.children.push_back(std::move(e));
      } else if (e.region.lo()[dim] >= value) {
        right.children.push_back(std::move(e));
      } else {
        auto [l, r] = ForceSplit(e, node.level - 1, dim, value);
        left.children.push_back(std::move(l));
        right.children.push_back(std::move(r));
      }
    }
  }
  SplitToEntries(std::move(left), ClipHi(region, dim, value), out);
  SplitToEntries(std::move(right), ClipLo(region, dim, value), out);
}

void KdbTree::ChoosePlane(const Node& node, const Rect& region, int& dim,
                          double& value) const {
  if (node.is_leaf()) {
    // Max-spread dimension, most balanced distinct split value. Duplicates
    // beyond a page's capacity cannot be separated by any plane.
    int best_dim = -1;
    double best_spread = 0.0;
    for (int d = 0; d < options_.dim; ++d) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (const LeafEntry& e : node.points) {
        lo = std::min(lo, e.point[d]);
        hi = std::max(hi, e.point[d]);
      }
      if (hi - lo > best_spread) {
        best_spread = hi - lo;
        best_dim = d;
      }
    }
    CHECK(best_dim >= 0);  // InsertPoint caps copies of one point
    std::vector<double> coords(node.points.size());
    for (size_t i = 0; i < node.points.size(); ++i) {
      coords[i] = node.points[i].point[best_dim];
    }
    std::sort(coords.begin(), coords.end());
    // Candidate values are distinct coordinates > min; pick the one closest
    // to the median position.
    const size_t half = coords.size() / 2;
    double best_value = coords.back();
    size_t best_skew = coords.size();
    for (size_t i = 1; i < coords.size(); ++i) {
      if (coords[i] == coords[i - 1]) continue;
      const size_t skew = i > half ? i - half : half - i;
      if (skew < best_skew) {
        best_skew = skew;
        best_value = coords[i];
      }
    }
    dim = best_dim;
    value = best_value;
    return;
  }

  // Region page: candidates are child boundaries strictly inside the
  // region; minimize forced splits (children crossing the plane), then
  // imbalance. R+-tree-style choice (Section 3.1 of the paper).
  int best_dim = -1;
  double best_value = 0.0;
  size_t best_crossings = std::numeric_limits<size_t>::max();
  size_t best_skew = std::numeric_limits<size_t>::max();
  for (int d = 0; d < options_.dim; ++d) {
    std::vector<double> candidates;
    for (const NodeEntry& e : node.children) {
      for (const double v : {e.region.lo()[d], e.region.hi()[d]}) {
        if (v > region.lo()[d] && v < region.hi()[d]) candidates.push_back(v);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (const double v : candidates) {
      size_t left = 0, right = 0, crossing = 0;
      for (const NodeEntry& e : node.children) {
        if (e.region.hi()[d] <= v) {
          ++left;
        } else if (e.region.lo()[d] >= v) {
          ++right;
        } else {
          ++crossing;
        }
      }
      if (left + crossing == 0 || right + crossing == 0) continue;
      const size_t skew = left > right ? left - right : right - left;
      if (crossing < best_crossings ||
          (crossing == best_crossings && skew < best_skew)) {
        best_crossings = crossing;
        best_skew = skew;
        best_dim = d;
        best_value = v;
      }
    }
  }
  CHECK_GE(best_dim, 0);  // >= 2 children partitioning the region
  dim = best_dim;
  value = best_value;
}

std::pair<KdbTree::NodeEntry, KdbTree::NodeEntry> KdbTree::ForceSplit(
    const NodeEntry& entry, int node_level, int dim, double value) {
  ++maintenance_.forced_splits;
  Node node = ReadNode(entry.child, node_level);
  Node left, right;
  left.id = node.id;
  right.id = file_.Allocate();
  left.level = right.level = node.level;
  if (node.is_leaf()) {
    for (LeafEntry& e : node.points) {
      (e.point[dim] < value ? left.points : right.points)
          .push_back(std::move(e));
    }
  } else {
    for (NodeEntry& e : node.children) {
      if (e.region.hi()[dim] <= value) {
        left.children.push_back(std::move(e));
      } else if (e.region.lo()[dim] >= value) {
        right.children.push_back(std::move(e));
      } else {
        auto [l, r] = ForceSplit(e, node.level - 1, dim, value);
        left.children.push_back(std::move(l));
        right.children.push_back(std::move(r));
      }
    }
  }
  WriteNode(left);
  WriteNode(right);
  return {NodeEntry{ClipHi(entry.region, dim, value), left.id},
          NodeEntry{ClipLo(entry.region, dim, value), right.id}};
}

Rect KdbTree::ClipHi(const Rect& region, int dim, double value) {
  Point hi = region.hi();
  hi[dim] = value;
  return Rect(region.lo(), std::move(hi));
}

Rect KdbTree::ClipLo(const Rect& region, int dim, double value) {
  Point lo = region.lo();
  lo[dim] = value;
  return Rect(std::move(lo), region.hi());
}

// --------------------------------------------------------------------------
// Deletion
// --------------------------------------------------------------------------

Status KdbTree::DeleteLocked(PointView point, uint32_t oid) {
  // DeleteFrom stages the leaf only when it finds the point.
  if (DeleteFrom(root_id_, root_level_, point, oid)) {
    --size_;
    CommitRoot(root_id_, root_level_, size_);
    return Status::OK();
  }
  return Status::NotFound("point not present");
}

bool KdbTree::DeleteFrom(PageId id, int level, PointView point, uint32_t oid) {
  Node node = ReadNode(id, level);
  if (node.is_leaf()) {
    for (size_t i = 0; i < node.points.size(); ++i) {
      if (node.points[i].oid == oid && SamePoint(node.points[i].point, point)) {
        node.points.erase(node.points.begin() + i);
        WriteNode(node);
        return true;
      }
    }
    return false;
  }
  // A boundary point may sit in either adjacent page: try every region that
  // contains it.
  for (const NodeEntry& e : node.children) {
    if (e.region.Contains(point) &&
        DeleteFrom(e.child, level - 1, point, oid)) {
      return true;
    }
  }
  return false;
}

// --------------------------------------------------------------------------
// Search
// --------------------------------------------------------------------------

// The K-D-B-tree's bound policy for the shared traversals
// (src/index/traversal.h): squared rect MINDIST.
struct KdbTree::SearchBound {
  static constexpr BoundSpace kSpace = BoundSpace::kSquared;
  const KdbTree& tree;
  const PageFile::Snapshot& snap;

  TraversalRoot root() const { return CommittedRoot(snap); }
  void Prefetch(PageId id) const { snap.Prefetch(id); }

  template <typename Offer, typename Child>
  void Expand(PageId id, int level, PointView query, double leaf_bound_sq,
              KernelScratch& scratch, IoStatsDelta* io, Offer&& offer,
              Child&& child) const {
    const char* page = snap.ReadInPlace(id, level, io);
    const Node node = tree.DeserializeNode(page, id);
    DCHECK_EQ(node.level, level);
    if (node.is_leaf()) {
      ScanLeafEntries(node.points, query, leaf_bound_sq, scratch, offer);
      return;
    }
    const std::vector<double>& m2 = BatchRectMinDistSq(
        scratch, query, node.children.size(),
        [&](size_t i) -> const Rect& { return node.children[i].region; });
    for (size_t i = 0; i < node.children.size(); ++i) {
      child(m2[i], node.children[i].child);
    }
  }
};

std::vector<Neighbor> KdbTree::SearchSnapshot(
    const PageFile::Snapshot& snap, PointView query, const QuerySpec& spec,
    IoStatsDelta* io) const {
  return Traverse(SearchBound{*this, snap}, query, spec, io);
}

// --------------------------------------------------------------------------
// Stats & validation
// --------------------------------------------------------------------------

TreeStats KdbTree::GetTreeStats() const {
  TreeStats stats;
  stats.height = root_level_ + 1;
  CollectStats(PeekNode(root_id_), stats);
  return stats;
}

void KdbTree::CollectStats(const Node& node, TreeStats& stats) const {
  if (node.is_leaf()) {
    ++stats.leaf_count;
    stats.entry_count += node.points.size();
    return;
  }
  ++stats.node_count;
  for (const NodeEntry& e : node.children) {
    CollectStats(PeekNode(e.child), stats);
  }
}

RegionSummary KdbTree::LeafRegionSummary() const {
  RegionStatsCollector collector;
  CollectRegions(PeekNode(root_id_), collector);
  return collector.Finish();
}

void KdbTree::CollectRegions(const Node& node,
                             RegionStatsCollector& collector) const {
  if (node.is_leaf()) {
    if (node.points.empty()) return;
    collector.CountLeaf();
    Rect bound = Rect::Empty(options_.dim);
    for (const LeafEntry& e : node.points) bound.Expand(e.point);
    collector.AddRect(bound);
    return;
  }
  for (const NodeEntry& e : node.children) {
    CollectRegions(PeekNode(e.child), collector);
  }
}

Status KdbTree::CheckInvariants() const { return debug::AuditIndex(*this); }

void KdbTree::VisitNodes(const NodeVisitor& visitor) const {
  std::vector<int> path;
  VisitSubtree(PeekNode(root_id_), path, visitor);
}

void KdbTree::VisitSubtree(const Node& node, std::vector<int>& path,
                           const NodeVisitor& visitor) const {
  NodeView view;
  view.level = node.level;
  view.capacity = Capacity(node);
  view.min_entries = 0;  // the K-D-B-tree gives no utilization guarantee
  view.entries.reserve(node.children.size());
  for (const NodeEntry& e : node.children) {
    view.entries.push_back(EntryView{&e.region, /*sphere=*/nullptr,
                                     /*weight=*/0, /*has_weight=*/false});
  }
  view.points.reserve(node.points.size());
  for (const LeafEntry& e : node.points) view.points.push_back(e.point);
  visitor(path, view);
  for (size_t i = 0; i < node.children.size(); ++i) {
    path.push_back(static_cast<int>(i));
    VisitSubtree(PeekNode(node.children[i].child), path, visitor);
    path.pop_back();
  }
}

AuditSpec KdbTree::GetAuditSpec() const {
  AuditSpec spec;
  spec.dim = options_.dim;
  // Child regions tile their parent disjointly; the root tiles the domain.
  spec.rect_semantics = RectSemantics::kPartition;
  spec.domain = Domain();
  return spec;
}

}  // namespace srtree
