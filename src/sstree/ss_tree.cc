#include "src/sstree/ss_tree.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/common/check.h"
#include "src/debug/structural_auditor.h"
#include "src/geometry/kernel.h"
#include "src/geometry/rect.h"
#include "src/index/traversal.h"
#include "src/storage/image_io.h"

namespace srtree {
namespace {

constexpr size_t kHeaderBytes = 8;

// Relative slack for floating-point containment checks: radii are computed
// by the same arithmetic as the distances they bound, but triangle-
// inequality chains can be off by a few ulps.
constexpr double kEps = 1e-9;

}  // namespace

SSTree::SSTree(const Options& options)
    : PagedIndex(options.page_size), options_(options) {
  CHECK_GT(options_.dim, 0);
  CHECK_GT(options_.min_utilization, 0.0);
  CHECK_LE(options_.min_utilization, 0.5);
  CHECK_GT(options_.reinsert_fraction, 0.0);
  CHECK_LT(options_.reinsert_fraction, 1.0);

  const size_t dim = static_cast<size_t>(options_.dim);
  const size_t leaf_entry =
      dim * sizeof(double) + sizeof(uint32_t) + options_.leaf_data_size;
  // center + radius + weight + child pointer.
  const size_t node_entry =
      dim * sizeof(double) + sizeof(double) + 2 * sizeof(uint32_t);
  leaf_cap_ = (options_.page_size - kHeaderBytes) / leaf_entry;
  node_cap_ = (options_.page_size - kHeaderBytes) / node_entry;
  CHECK_GE(leaf_cap_, 2u);
  CHECK_GE(node_cap_, 2u);
  leaf_min_ = std::max<size_t>(
      1, static_cast<size_t>(options_.min_utilization * leaf_cap_));
  node_min_ = std::max<size_t>(
      1, static_cast<size_t>(options_.min_utilization * node_cap_));

  Node root;
  root.id = file_.Allocate();
  root.level = 0;
  WriteNode(root);
  root_id_ = root.id;
  PublishBuilt(root_id_, root_level_, size_);  // the empty tree
}

// --------------------------------------------------------------------------
// Persistence
// --------------------------------------------------------------------------

namespace {

// v2 header record embedded in the SRIX container (src/storage/image_io.h);
// the container carries the magic, tag, and a CRC32C over these bytes.
struct SsImageHeader {
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

// True iff `o` would pass every constructor CHECK, so Open() can reject a
// forged header with Corruption instead of crashing the process. The
// negated-range form also rejects NaN utilization/fraction values.
bool PlausibleOptions(const SSTree::Options& o) {
  if (o.dim <= 0 || o.dim > (1 << 16)) return false;
  if (!(o.min_utilization > 0.0 && o.min_utilization <= 0.5)) return false;
  if (!(o.reinsert_fraction > 0.0 && o.reinsert_fraction < 1.0)) return false;
  if (o.page_size <= kHeaderBytes || o.page_size > (1u << 28)) return false;
  if (o.leaf_data_size > o.page_size) return false;
  const size_t dim = static_cast<size_t>(o.dim);
  const size_t leaf_entry =
      dim * sizeof(double) + sizeof(uint32_t) + o.leaf_data_size;
  const size_t node_entry =
      dim * sizeof(double) + sizeof(double) + 2 * sizeof(uint32_t);
  return (o.page_size - kHeaderBytes) / leaf_entry >= 2 &&
         (o.page_size - kHeaderBytes) / node_entry >= 2;
}

}  // namespace

Status SSTree::Save(const std::string& path) const {
  SsImageHeader header = {};
  header.dim = options_.dim;
  header.page_size = options_.page_size;
  header.leaf_data_size = options_.leaf_data_size;
  header.min_utilization = options_.min_utilization;
  header.reinsert_fraction = options_.reinsert_fraction;
  header.root_id = root_id_;
  header.root_level = root_level_;
  header.size = size_;
  return AtomicWriteFile(path, [&](std::ostream& out) {
    RETURN_IF_ERROR(
        WriteIndexImageTo(out, kImageTag, &header, sizeof(header)));
    return file_.SaveTo(out);
  });
}

StatusOr<std::unique_ptr<SSTree>> SSTree::Open(const std::string& path) {
  SsImageHeader header = {};
  IndexImageFile image;
  RETURN_IF_ERROR(image.Open(path, kImageTag, &header, sizeof(header)));

  Options options;
  options.dim = header.dim;
  options.page_size = header.page_size;
  options.leaf_data_size = header.leaf_data_size;
  options.min_utilization = header.min_utilization;
  options.reinsert_fraction = header.reinsert_fraction;
  if (!PlausibleOptions(options) || header.root_level < 0 ||
      header.root_level > 64) {
    return Status::Corruption("implausible SS-tree header");
  }
  auto tree = std::make_unique<SSTree>(options);
  RETURN_IF_ERROR(tree->LoadFullPages(image.stream()));
  if (!tree->file_.is_live(header.root_id)) {
    return Status::Corruption("SS-tree root page is not live in the image");
  }
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

void SSTree::SerializeNode(const Node& node, char* buf) const {
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
      w.PutDoubles(e.sphere.center());
      w.PutDouble(e.sphere.radius());
      w.PutU32(e.weight);
      w.PutU32(e.child);
    }
  }
  // The rest of the page is zero (StageWrite hands back a dirty buffer).
  w.Skip(w.remaining());
}

SSTree::Node SSTree::DeserializeNode(const char* buf, PageId id) const {
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
      Point center(dim);
      r.GetDoubles(center);
      const double radius = r.GetDouble();
      e.sphere = Sphere(std::move(center), radius);
      e.weight = r.GetU32();
      e.child = r.GetU32();
    }
  }
  return node;
}

SSTree::Node SSTree::ReadNode(PageId id, int level) const {
  // The writer's working page, read in place and counted once.
  const char* page = file_.ReadInPlace(id, level);
  Node node = DeserializeNode(page, id);
  DCHECK_EQ(node.level, level);
  return node;
}

SSTree::Node SSTree::PeekNode(PageId id) const {
  return DeserializeNode(file_.PeekPage(id), id);
}

void SSTree::WriteNode(const Node& node) {
  // Copy-on-write staging keeps snapshots on the committed buffer.
  SerializeNode(node, file_.StageWrite(node.id));
}

// --------------------------------------------------------------------------
// Region helpers
// --------------------------------------------------------------------------

Point SSTree::NodeCentroid(const Node& node, uint32_t& weight) const {
  Point centroid(options_.dim, 0.0);
  uint64_t total = 0;
  if (node.is_leaf()) {
    for (const LeafEntry& e : node.points) {
      for (int d = 0; d < options_.dim; ++d) centroid[d] += e.point[d];
    }
    total = node.points.size();
  } else {
    for (const NodeEntry& e : node.children) {
      const double w = static_cast<double>(e.weight);
      for (int d = 0; d < options_.dim; ++d) {
        centroid[d] += w * e.sphere.center()[d];
      }
      total += e.weight;
    }
  }
  CHECK_GT(total, 0u);
  for (double& c : centroid) c /= static_cast<double>(total);
  weight = static_cast<uint32_t>(total);
  return centroid;
}

SSTree::NodeEntry SSTree::ComputeEntry(const Node& node) const {
  NodeEntry entry;
  Point center = NodeCentroid(node, entry.weight);
  double radius = 0.0;
  if (node.is_leaf()) {
    for (const LeafEntry& e : node.points) {
      radius = std::max(radius, GetDistanceKernel().L2(center, e.point));
    }
  } else {
    for (const NodeEntry& e : node.children) {
      radius = std::max(radius,
                        GetDistanceKernel().L2(center, e.sphere.center()) +
                            e.sphere.radius());
    }
  }
  entry.sphere = Sphere(std::move(center), radius);
  entry.child = node.id;
  return entry;
}

PointView SSTree::EntryCentroid(const Node& node, size_t i) const {
  return node.is_leaf() ? PointView(node.points[i].point)
                        : PointView(node.children[i].sphere.center());
}

// --------------------------------------------------------------------------
// Insertion
// --------------------------------------------------------------------------

Status SSTree::InsertLocked(PointView point, uint32_t oid) {
  reinserted_nodes_.clear();
  std::deque<Pending> pending;
  Pending item;
  item.level = 0;
  item.leaf = LeafEntry{Point(point.begin(), point.end()), oid};
  pending.push_back(std::move(item));
  ProcessPending(pending);
  ++size_;
  CommitRoot(root_id_, root_level_, size_);
  return Status::OK();
}

void SSTree::ProcessPending(std::deque<Pending>& pending) {
  while (!pending.empty()) {
    Pending item = std::move(pending.front());
    pending.pop_front();
    InsertPending(item, pending);
  }
}

void SSTree::InsertPending(const Pending& item, std::deque<Pending>& pending) {
  const PointView centroid =
      item.level == 0 ? PointView(item.leaf.point)
                      : PointView(item.node.sphere.center());
  CHECK_LE(item.level, root_level_);

  std::vector<Node> path;
  std::vector<int> idx;
  Node cur = ReadNode(root_id_, root_level_);
  while (cur.level > item.level) {
    const int i = ChooseSubtree(cur, centroid);
    const PageId child = cur.children[i].child;
    const int child_level = cur.level - 1;
    path.push_back(std::move(cur));
    idx.push_back(i);
    cur = ReadNode(child, child_level);
  }
  if (item.level == 0) {
    cur.points.push_back(item.leaf);
  } else {
    cur.children.push_back(item.node);
  }
  path.push_back(std::move(cur));
  ResolvePath(path, idx, pending);
}

int SSTree::ChooseSubtree(const Node& node, PointView centroid) const {
  DCHECK(!node.is_leaf());
  int best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.children.size(); ++i) {
    const double d =
        GetDistanceKernel().SquaredL2(node.children[i].sphere.center(), centroid);
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<int>(i);
    }
  }
  return best;
}

void SSTree::ResolvePath(std::vector<Node>& path, std::vector<int>& idx,
                         std::deque<Pending>& pending) {
  int i = static_cast<int>(path.size()) - 1;
  while (true) {
    Node& n = path[i];
    if (n.count() <= Capacity(n)) break;
    const bool is_root = (i == 0);
    if (!is_root && reinserted_nodes_.insert(n.id).second) {
      std::vector<Pending> removed = RemoveForReinsert(n);
      WritePathRefreshingEntries(path, idx, i);
      for (Pending& p : removed) pending.push_back(std::move(p));
      return;
    }
    Node right = SplitNode(n);
    if (is_root) {
      GrowRoot(n, right);
      return;
    }
    WriteNode(right);
    WriteNode(n);
    Node& parent = path[i - 1];
    parent.children[idx[i - 1]] = ComputeEntry(n);
    parent.children.push_back(ComputeEntry(right));
    --i;
  }
  WritePathRefreshingEntries(path, idx, i);
}

void SSTree::WritePathRefreshingEntries(std::vector<Node>& path,
                                        const std::vector<int>& idx,
                                        int from) {
  WriteNode(path[from]);
  for (int j = from - 1; j >= 0; --j) {
    path[j].children[idx[j]] = ComputeEntry(path[j + 1]);
    WriteNode(path[j]);
  }
}

std::vector<SSTree::Pending> SSTree::RemoveForReinsert(Node& node) {
  ++maintenance_.reinsertions;
  const size_t total = node.count();
  size_t evict = static_cast<size_t>(
      std::lround(options_.reinsert_fraction * static_cast<double>(total)));
  evict = std::clamp<size_t>(evict, 1, total - MinEntries(node));

  uint32_t weight = 0;
  const Point centroid = NodeCentroid(node, weight);
  std::vector<std::pair<double, size_t>> by_distance(total);
  for (size_t i = 0; i < total; ++i) {
    by_distance[i] = {
        GetDistanceKernel().SquaredL2(EntryCentroid(node, i), centroid), i};
  }
  std::sort(by_distance.begin(), by_distance.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::vector<size_t> evicted;
  for (size_t i = 0; i < evict; ++i) evicted.push_back(by_distance[i].second);
  std::vector<Pending> removed(evict);
  for (size_t i = 0; i < evict; ++i) {
    Pending& p = removed[evict - 1 - i];  // closest-first reinsertion
    p.level = node.level;
    if (node.is_leaf()) {
      p.leaf = node.points[evicted[i]];
    } else {
      p.node = node.children[evicted[i]];
    }
  }
  std::sort(evicted.begin(), evicted.end(), std::greater<size_t>());
  for (size_t pos : evicted) {
    if (node.is_leaf()) {
      node.points.erase(node.points.begin() + pos);
    } else {
      node.children.erase(node.children.begin() + pos);
    }
  }
  return removed;
}

SSTree::Node SSTree::SplitNode(Node& node) {
  ++maintenance_.splits;
  const size_t total = node.count();
  const size_t m = MinEntries(node);
  CHECK_GE(total, 2 * m);

  // Split dimension: highest coordinate variance of the child centroids
  // (points, for a leaf) — the SS-tree rule the SR-tree inherits.
  int best_dim = 0;
  double best_var = -1.0;
  for (int d = 0; d < options_.dim; ++d) {
    double sum = 0.0, sum_sq = 0.0;
    for (size_t i = 0; i < total; ++i) {
      const double x = EntryCentroid(node, i)[d];
      sum += x;
      sum_sq += x * x;
    }
    const double mean = sum / static_cast<double>(total);
    const double var = sum_sq / static_cast<double>(total) - mean * mean;
    if (var > best_var) {
      best_var = var;
      best_dim = d;
    }
  }

  std::vector<size_t> order(total);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return EntryCentroid(node, a)[best_dim] < EntryCentroid(node, b)[best_dim];
  });

  // Split position: minimize the summed coordinate variance of the two
  // groups along the split dimension, subject to minimum utilization.
  std::vector<double> prefix_sum(total + 1, 0.0), prefix_sq(total + 1, 0.0);
  for (size_t i = 0; i < total; ++i) {
    const double x = EntryCentroid(node, order[i])[best_dim];
    prefix_sum[i + 1] = prefix_sum[i] + x;
    prefix_sq[i + 1] = prefix_sq[i] + x * x;
  }
  auto group_variance = [&](size_t begin, size_t end) {
    const double n = static_cast<double>(end - begin);
    const double sum = prefix_sum[end] - prefix_sum[begin];
    const double sq = prefix_sq[end] - prefix_sq[begin];
    const double mean = sum / n;
    return sq / n - mean * mean;
  };

  size_t best_split = m;
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t split = m; split + m <= total; ++split) {
    const double cost = group_variance(0, split) + group_variance(split, total);
    if (cost < best_cost) {
      best_cost = cost;
      best_split = split;
    }
  }

  Node right;
  right.id = file_.Allocate();
  right.level = node.level;
  if (node.is_leaf()) {
    std::vector<LeafEntry> left_points, right_points;
    for (size_t i = 0; i < total; ++i) {
      auto& dst = (i < best_split) ? left_points : right_points;
      dst.push_back(std::move(node.points[order[i]]));
    }
    node.points = std::move(left_points);
    right.points = std::move(right_points);
  } else {
    std::vector<NodeEntry> left_children, right_children;
    for (size_t i = 0; i < total; ++i) {
      auto& dst = (i < best_split) ? left_children : right_children;
      dst.push_back(std::move(node.children[order[i]]));
    }
    node.children = std::move(left_children);
    right.children = std::move(right_children);
  }
  return right;
}

void SSTree::GrowRoot(Node& left, Node& right) {
  WriteNode(left);
  WriteNode(right);
  Node root;
  root.id = file_.Allocate();
  root.level = left.level + 1;
  root.children.push_back(ComputeEntry(left));
  root.children.push_back(ComputeEntry(right));
  WriteNode(root);
  root_id_ = root.id;
  root_level_ = root.level;
}

// --------------------------------------------------------------------------
// Deletion
// --------------------------------------------------------------------------

Status SSTree::DeleteLocked(PointView point, uint32_t oid) {
  std::vector<Node> path;
  std::vector<int> idx;
  Node root = ReadNode(root_id_, root_level_);
  if (!FindLeafPath(root, point, oid, path, idx)) {
    return Status::NotFound("point not present");
  }
  Node& leaf = path.back();
  bool erased = false;
  for (size_t i = 0; i < leaf.points.size(); ++i) {
    if (leaf.points[i].oid == oid &&
        std::equal(point.begin(), point.end(), leaf.points[i].point.begin(),
                   leaf.points[i].point.end())) {
      leaf.points.erase(leaf.points.begin() + i);
      erased = true;
      break;
    }
  }
  CHECK(erased);
  CondenseTree(path, idx);
  ShrinkRoot();
  --size_;
  CommitRoot(root_id_, root_level_, size_);
  return Status::OK();
}

bool SSTree::FindLeafPath(const Node& node, PointView point, uint32_t oid,
                          std::vector<Node>& path, std::vector<int>& idx) {
  path.push_back(node);
  if (node.is_leaf()) {
    for (const LeafEntry& e : node.points) {
      if (e.oid == oid && std::equal(point.begin(), point.end(),
                                     e.point.begin(), e.point.end())) {
        return true;
      }
    }
    path.pop_back();
    return false;
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    const Sphere& s = node.children[i].sphere;
    if (GetDistanceKernel().L2(s.center(), point) >
        s.radius() * (1.0 + kEps) + kEps) {
      continue;
    }
    idx.push_back(static_cast<int>(i));
    Node child = ReadNode(node.children[i].child, node.level - 1);
    if (FindLeafPath(child, point, oid, path, idx)) return true;
    idx.pop_back();
  }
  path.pop_back();
  return false;
}

void SSTree::CondenseTree(std::vector<Node>& path, std::vector<int>& idx) {
  std::deque<Pending> orphans;
  for (int i = static_cast<int>(path.size()) - 1; i >= 1; --i) {
    Node& n = path[i];
    Node& parent = path[i - 1];
    if (n.count() < MinEntries(n)) {
      if (n.is_leaf()) {
        for (LeafEntry& e : n.points) {
          Pending p;
          p.level = 0;
          p.leaf = std::move(e);
          orphans.push_back(std::move(p));
        }
      } else {
        for (NodeEntry& e : n.children) {
          Pending p;
          p.level = n.level;
          p.node = e;
          orphans.push_back(std::move(p));
        }
      }
      file_.Free(n.id);
      parent.children.erase(parent.children.begin() + idx[i - 1]);
    } else {
      WriteNode(n);
      parent.children[idx[i - 1]] = ComputeEntry(n);
    }
  }
  WriteNode(path[0]);

  reinserted_nodes_.clear();
  ProcessPending(orphans);
}

void SSTree::ShrinkRoot() {
  for (;;) {
    Node root = PeekNode(root_id_);
    if (root.is_leaf()) return;
    if (root.children.empty()) {
      file_.Free(root.id);
      Node leaf;
      leaf.id = file_.Allocate();
      leaf.level = 0;
      WriteNode(leaf);
      root_id_ = leaf.id;
      root_level_ = 0;
      return;
    }
    if (root.children.size() > 1) return;
    const PageId child = root.children[0].child;
    file_.Free(root.id);
    root_id_ = child;
    --root_level_;
  }
}

// --------------------------------------------------------------------------
// Search
// --------------------------------------------------------------------------

// The SS-tree's bound policy for the shared traversals
// (src/index/traversal.h): sphere MINDIST, in distance space.
struct SSTree::SearchBound {
  static constexpr BoundSpace kSpace = BoundSpace::kDistance;
  const SSTree& tree;
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
    const std::vector<double>& md = BatchSphereMinDist(
        scratch, query, node.children.size(),
        [&](size_t i) -> const Sphere& { return node.children[i].sphere; });
    for (size_t i = 0; i < node.children.size(); ++i) {
      child(md[i], node.children[i].child);
    }
  }
};

std::vector<Neighbor> SSTree::SearchSnapshot(
    const PageFile::Snapshot& snap, PointView query, const QuerySpec& spec,
    IoStatsDelta* io) const {
  return Traverse(SearchBound{*this, snap}, query, spec, io);
}

// --------------------------------------------------------------------------
// Stats & validation
// --------------------------------------------------------------------------

TreeStats SSTree::GetTreeStats() const {
  TreeStats stats;
  stats.height = root_level_ + 1;
  CollectStats(PeekNode(root_id_), stats);
  return stats;
}

void SSTree::CollectStats(const Node& node, TreeStats& stats) const {
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

RegionSummary SSTree::LeafRegionSummary() const {
  RegionStatsCollector collector;
  CollectRegions(PeekNode(root_id_), collector);
  return collector.Finish();
}

void SSTree::CollectRegions(const Node& node,
                            RegionStatsCollector& collector) const {
  if (node.is_leaf()) {
    if (node.points.empty()) return;
    collector.CountLeaf();
    collector.AddSphere(ComputeEntry(node).sphere);
    Rect bound = Rect::Empty(options_.dim);
    for (const LeafEntry& e : node.points) bound.Expand(e.point);
    collector.AddRect(bound);
    return;
  }
  for (const NodeEntry& e : node.children) {
    CollectRegions(PeekNode(e.child), collector);
  }
}

Status SSTree::CheckInvariants() const { return debug::AuditIndex(*this); }

void SSTree::VisitNodes(const NodeVisitor& visitor) const {
  std::vector<int> path;
  VisitSubtree(PeekNode(root_id_), path, visitor);
}

void SSTree::VisitSubtree(const Node& node, std::vector<int>& path,
                          const NodeVisitor& visitor) const {
  NodeView view;
  view.level = node.level;
  view.capacity = Capacity(node);
  view.min_entries = MinEntries(node);
  view.entries.reserve(node.children.size());
  for (const NodeEntry& e : node.children) {
    view.entries.push_back(EntryView{/*rect=*/nullptr, &e.sphere, e.weight,
                                     /*has_weight=*/true});
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

AuditSpec SSTree::GetAuditSpec() const {
  AuditSpec spec;
  spec.dim = options_.dim;
  spec.rect_semantics = RectSemantics::kNone;  // spheres are the only shape
  spec.has_spheres = true;
  spec.has_weights = true;
  spec.internal_root_min2 = true;
  return spec;
}

}  // namespace srtree
