#include "src/rstar/rstar_tree.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <type_traits>

#include "src/common/check.h"
#include "src/debug/structural_auditor.h"
#include "src/geometry/kernel.h"
#include "src/index/traversal.h"
#include "src/storage/image_io.h"

namespace srtree {
namespace {

// Node page header: level (u8), pad (u8), count (u16), reserved (u32).
constexpr size_t kHeaderBytes = 8;

}  // namespace

RStarTree::RStarTree(const Options& options)
    : PagedIndex(options.page_size), options_(options) {
  CHECK_GT(options_.dim, 0);
  CHECK_GT(options_.page_size, kHeaderBytes);
  CHECK_GT(options_.min_utilization, 0.0);
  CHECK_LE(options_.min_utilization, 0.5);
  CHECK_GT(options_.reinsert_fraction, 0.0);
  CHECK_LT(options_.reinsert_fraction, 1.0);
  active_dims_ =
      options_.active_dims > 0 ? options_.active_dims : options_.dim;
  CHECK_LE(active_dims_, options_.dim);

  const size_t dim = static_cast<size_t>(options_.dim);
  const size_t active = static_cast<size_t>(active_dims_);
  const size_t leaf_entry =
      dim * sizeof(double) + sizeof(uint32_t) + options_.leaf_data_size;
  // Directory rectangles live in the active subspace: fewer active
  // dimensions buy fanout (the TV-tree's advantage).
  const size_t node_entry = 2 * active * sizeof(double) + sizeof(uint32_t);
  leaf_cap_ = (options_.page_size - kHeaderBytes) / leaf_entry;
  node_cap_ = (options_.page_size - kHeaderBytes) / node_entry;
  page_shape_ = {.leaf_capacity = leaf_cap_,
                 .node_capacity = node_cap_,
                 .leaf_entry_bytes = leaf_entry,
                 .node_entry_bytes = node_entry};
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
// active_dims is the resolved count; 0 (what R* images written before the
// field existed hold in that slot) reopens with the type's default.
struct RStarImageHeader {
  int32_t dim;
  int32_t active_dims;
  uint64_t page_size;
  uint64_t leaf_data_size;
  double min_utilization;
  double reinsert_fraction;
  uint32_t root_id;
  int32_t root_level;
  uint64_t size;
};

// The header record of a VAMSplit R-tree image saved before the tree
// shared R*'s; its pages are already R*'s, with every dimension active.
struct LegacyVamImageHeader {
  int32_t dim;
  uint32_t pad0;
  uint64_t page_size;
  uint64_t leaf_data_size;
  uint32_t root_id;
  int32_t root_level;
  uint64_t size;
};

}  // namespace

// The negated-range form also rejects NaN utilization/fraction values.
bool RStarTree::PlausibleOptions(const Options& o) {
  if (o.dim <= 0 || o.dim > (1 << 16)) return false;
  if (o.active_dims < 0 || o.active_dims > o.dim) return false;
  if (!(o.min_utilization > 0.0 && o.min_utilization <= 0.5)) return false;
  if (!(o.reinsert_fraction > 0.0 && o.reinsert_fraction < 1.0)) return false;
  if (o.page_size <= kHeaderBytes || o.page_size > (1u << 28)) return false;
  if (o.leaf_data_size > o.page_size) return false;
  const size_t dim = static_cast<size_t>(o.dim);
  const size_t active = static_cast<size_t>(o.active_dims);
  const size_t leaf_entry =
      dim * sizeof(double) + sizeof(uint32_t) + o.leaf_data_size;
  const size_t node_entry =
      2 * (active > 0 ? active : dim) * sizeof(double) + sizeof(uint32_t);
  return (o.page_size - kHeaderBytes) / leaf_entry >= 2 &&
         (o.page_size - kHeaderBytes) / node_entry >= 2;
}

Status RStarTree::Save(const std::string& path) const {
  RStarImageHeader header = {};
  header.dim = options_.dim;
  header.active_dims = active_dims_;
  header.page_size = options_.page_size;
  header.leaf_data_size = options_.leaf_data_size;
  header.min_utilization = options_.min_utilization;
  header.reinsert_fraction = options_.reinsert_fraction;
  header.root_id = root_id_;
  header.root_level = root_level_;
  header.size = size_;
  return AtomicWriteFile(path, [&](std::ostream& out) {
    RETURN_IF_ERROR(
        WriteIndexImageTo(out, image_tag(), &header, sizeof(header)));
    return file_.SaveTo(out);
  });
}

template <typename Tree>
StatusOr<std::unique_ptr<Tree>> RStarTree::OpenImage(const std::string& path) {
  RStarImageHeader header = {};
  IndexImageFile image;
  Status opened = image.Open(path, Tree::kImageTag, &header, sizeof(header));
  if (!opened.ok() && std::is_same_v<Tree, VamSplitRTree> &&
      image.stored_header_size() == sizeof(LegacyVamImageHeader)) {
    LegacyVamImageHeader legacy = {};
    image = IndexImageFile();
    opened = image.Open(path, Tree::kImageTag, &legacy, sizeof(legacy));
    header = {.dim = legacy.dim,
              .active_dims = legacy.dim,
              .page_size = legacy.page_size,
              .leaf_data_size = legacy.leaf_data_size,
              .min_utilization = Options().min_utilization,
              .reinsert_fraction = Options().reinsert_fraction,
              .root_id = legacy.root_id,
              .root_level = legacy.root_level,
              .size = legacy.size};
  }
  RETURN_IF_ERROR(opened);

  Options options;
  options.dim = header.dim;
  options.active_dims = header.active_dims;
  options.page_size = header.page_size;
  options.leaf_data_size = header.leaf_data_size;
  options.min_utilization = header.min_utilization;
  options.reinsert_fraction = header.reinsert_fraction;
  if (!PlausibleOptions(options) || header.root_level < 0 ||
      header.root_level > 64) {
    return Status::Corruption("implausible R*-tree header");
  }
  // `new`: VamSplitRTree builds from R*'s options only for its friend.
  std::unique_ptr<Tree> tree(new Tree(options));
  RETURN_IF_ERROR(tree->LoadFullPages(image.stream()));
  RETURN_IF_ERROR(tree->ValidatePageTree(tree->name(), header.root_id,
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

StatusOr<std::unique_ptr<RStarTree>> RStarTree::Open(const std::string& path) {
  return OpenImage<RStarTree>(path);
}

StatusOr<std::unique_ptr<TvRTree>> TvRTree::Open(const std::string& path) {
  return OpenImage<TvRTree>(path);
}

StatusOr<std::unique_ptr<VamSplitRTree>> VamSplitRTree::Open(
    const std::string& path) {
  return OpenImage<VamSplitRTree>(path);
}

// --------------------------------------------------------------------------
// Page I/O
// --------------------------------------------------------------------------

void RStarTree::SerializeNode(const Node& node, char* buf) const {
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
      w.PutDoubles(e.rect.lo());
      w.PutDoubles(e.rect.hi());
      w.PutU32(e.child);
    }
  }
  // The rest of the page is zero (StageWrite hands back a dirty buffer).
  w.Skip(w.remaining());
}

RStarTree::Node RStarTree::DeserializeNode(const char* buf, PageId id) const {
  PageReader r(buf, options_.page_size);
  Node node;
  node.id = id;
  node.level = r.GetU8();
  r.GetU8();
  const size_t count = r.GetU16();
  r.GetU32();
  const size_t dim = static_cast<size_t>(options_.dim);
  const size_t active = static_cast<size_t>(active_dims_);
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
      Point lo(active), hi(active);
      r.GetDoubles(lo);
      r.GetDoubles(hi);
      e.rect = Rect(std::move(lo), std::move(hi));
      e.child = r.GetU32();
    }
  }
  return node;
}

RStarTree::Node RStarTree::ReadNode(PageId id, int level) const {
  // The writer's working page, read in place and counted once.
  const char* page = file_.ReadInPlace(id, level);
  Node node = DeserializeNode(page, id);
  DCHECK_EQ(node.level, level);
  return node;
}

RStarTree::Node RStarTree::PeekNode(PageId id) const {
  return DeserializeNode(file_.PeekPage(id), id);
}

void RStarTree::WriteNode(const Node& node) {
  // Copy-on-write staging keeps snapshots on the committed buffer.
  SerializeNode(node, file_.StageWrite(node.id));
}

// --------------------------------------------------------------------------
// Region helpers
// --------------------------------------------------------------------------

Rect RStarTree::EntryRect(const Node& node, size_t i) const {
  return node.is_leaf() ? Rect::FromPoint(ActiveView(node.points[i].point))
                        : node.children[i].rect;
}

Rect RStarTree::NodeBoundingRect(const Node& node) const {
  Rect bound = Rect::Empty(active_dims_);
  if (node.is_leaf()) {
    for (const LeafEntry& e : node.points) bound.Expand(ActiveView(e.point));
  } else {
    for (const NodeEntry& e : node.children) bound.Expand(e.rect);
  }
  return bound;
}

// --------------------------------------------------------------------------
// Insertion
// --------------------------------------------------------------------------

Status RStarTree::InsertLocked(PointView point, uint32_t oid) {
  reinserted_levels_.clear();
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

void RStarTree::ProcessPending(std::deque<Pending>& pending) {
  while (!pending.empty()) {
    Pending item = std::move(pending.front());
    pending.pop_front();
    InsertPending(item, pending);
  }
}

void RStarTree::InsertPending(const Pending& item,
                              std::deque<Pending>& pending) {
  const Rect entry_rect = item.level == 0
                              ? Rect::FromPoint(ActiveView(item.leaf.point))
                              : item.node.rect;
  CHECK_LE(item.level, root_level_);

  std::vector<Node> path;
  std::vector<int> idx;
  Node cur = ReadNode(root_id_, root_level_);
  while (cur.level > item.level) {
    const int i = ChooseSubtree(cur, entry_rect);
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

int RStarTree::ChooseSubtree(const Node& node, const Rect& entry_rect) const {
  DCHECK(!node.is_leaf());
  const size_t n = node.children.size();
  DCHECK_GT(n, 0u);
  int best = 0;

  if (node.level == 1) {
    // Children are leaves: minimize overlap enlargement, ties broken by
    // area enlargement, then by area.
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      const Rect& rect = node.children[i].rect;
      const Rect enlarged = Rect::Union(rect, entry_rect);
      double overlap_before = 0.0, overlap_after = 0.0;
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        overlap_before += rect.OverlapVolume(node.children[j].rect);
        overlap_after += enlarged.OverlapVolume(node.children[j].rect);
      }
      const double overlap_delta = overlap_after - overlap_before;
      const double area = rect.Volume();
      const double enlarge = enlarged.Volume() - area;
      if (overlap_delta < best_overlap ||
          (overlap_delta == best_overlap &&
           (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)))) {
        best_overlap = overlap_delta;
        best_enlarge = enlarge;
        best_area = area;
        best = static_cast<int>(i);
      }
    }
    return best;
  }

  // Children are internal nodes: minimize area enlargement, ties by area.
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    const Rect& rect = node.children[i].rect;
    const double area = rect.Volume();
    const double enlarge = Rect::Union(rect, entry_rect).Volume() - area;
    if (enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best_enlarge = enlarge;
      best_area = area;
      best = static_cast<int>(i);
    }
  }
  return best;
}

void RStarTree::ResolvePath(std::vector<Node>& path, std::vector<int>& idx,
                            std::deque<Pending>& pending) {
  int i = static_cast<int>(path.size()) - 1;
  while (true) {
    Node& n = path[i];
    if (n.count() <= Capacity(n)) break;
    const bool is_root = (i == 0);
    if (!is_root && reinserted_levels_.insert(n.level).second) {
      std::vector<Pending> removed = RemoveForReinsert(n);
      WritePathRefreshingRects(path, idx, i);
      for (Pending& p : removed) pending.push_back(std::move(p));
      return;
    }
    Node right = SplitNode(n);
    if (is_root) {
      GrowRoot(n, right);
      return;
    }
    WriteNode(right);
    Node& parent = path[i - 1];
    parent.children[idx[i - 1]].rect = NodeBoundingRect(n);
    parent.children.push_back(NodeEntry{NodeBoundingRect(right), right.id});
    WriteNode(n);
    --i;
  }
  // Nodes deeper than `i` (if any) were written by the split branch above;
  // from `i` upward the ancestors still need their rects grown/refreshed.
  WritePathRefreshingRects(path, idx, i);
}

void RStarTree::WritePathRefreshingRects(std::vector<Node>& path,
                                         const std::vector<int>& idx,
                                         int from) {
  WriteNode(path[from]);
  for (int j = from - 1; j >= 0; --j) {
    path[j].children[idx[j]].rect = NodeBoundingRect(path[j + 1]);
    WriteNode(path[j]);
  }
}

std::vector<RStarTree::Pending> RStarTree::RemoveForReinsert(Node& node) {
  ++maintenance_.reinsertions;
  const size_t total = node.count();
  size_t evict = static_cast<size_t>(
      std::lround(options_.reinsert_fraction * static_cast<double>(total)));
  evict = std::clamp<size_t>(evict, 1, total - MinEntries(node));

  const Point center = NodeBoundingRect(node).Center();
  std::vector<std::pair<double, size_t>> by_distance(total);
  for (size_t i = 0; i < total; ++i) {
    by_distance[i] = {
        GetDistanceKernel().SquaredL2(EntryRect(node, i).Center(), center), i};
  }
  // Farthest entries are evicted; reinsertion happens closest-first ("close
  // reinsert"), which the R* authors found best.
  std::sort(by_distance.begin(), by_distance.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::vector<size_t> evicted;
  for (size_t i = 0; i < evict; ++i) evicted.push_back(by_distance[i].second);
  std::vector<Pending> removed(evict);
  for (size_t i = 0; i < evict; ++i) {
    Pending& p = removed[evict - 1 - i];  // reverse: closest first
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

RStarTree::Node RStarTree::SplitNode(Node& node) {
  ++maintenance_.splits;
  const size_t total = node.count();
  const size_t m = MinEntries(node);
  CHECK_GE(total, 2 * m);

  std::vector<Rect> rects(total);
  for (size_t i = 0; i < total; ++i) rects[i] = EntryRect(node, i);

  const size_t num_dist = total - 2 * m + 1;

  // Phase 1 (ChooseSplitAxis): pick the active axis minimizing the summed
  // margins over all distributions of both sortings (by lower and by upper
  // bound).
  // Phase 2 (ChooseSplitIndex): on that axis, pick the distribution with
  // minimal overlap, ties by minimal total area.
  auto evaluate_axis = [&](int axis, bool by_upper,
                           std::vector<size_t>& order) {
    order.resize(total);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const double ka = by_upper ? rects[a].hi()[axis] : rects[a].lo()[axis];
      const double kb = by_upper ? rects[b].hi()[axis] : rects[b].lo()[axis];
      return ka < kb;
    });
  };

  auto group_bounds = [&](const std::vector<size_t>& order) {
    // prefix[i] = bound of order[0..i); suffix[i] = bound of order[i..).
    std::vector<Rect> prefix(total + 1, Rect::Empty(active_dims_));
    std::vector<Rect> suffix(total + 1, Rect::Empty(active_dims_));
    for (size_t i = 0; i < total; ++i) {
      prefix[i + 1] = prefix[i];
      prefix[i + 1].Expand(rects[order[i]]);
    }
    for (size_t i = total; i-- > 0;) {
      suffix[i] = suffix[i + 1];
      suffix[i].Expand(rects[order[i]]);
    }
    return std::make_pair(std::move(prefix), std::move(suffix));
  };

  int best_axis = 0;
  double best_margin_sum = std::numeric_limits<double>::infinity();
  for (int axis = 0; axis < active_dims_; ++axis) {
    double margin_sum = 0.0;
    for (const bool by_upper : {false, true}) {
      std::vector<size_t> order;
      evaluate_axis(axis, by_upper, order);
      auto [prefix, suffix] = group_bounds(order);
      for (size_t k = 0; k < num_dist; ++k) {
        const size_t split = m + k;
        margin_sum += prefix[split].Margin() + suffix[split].Margin();
      }
    }
    if (margin_sum < best_margin_sum) {
      best_margin_sum = margin_sum;
      best_axis = axis;
    }
  }

  std::vector<size_t> best_order;
  size_t best_split = m;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (const bool by_upper : {false, true}) {
    std::vector<size_t> order;
    evaluate_axis(best_axis, by_upper, order);
    auto [prefix, suffix] = group_bounds(order);
    for (size_t k = 0; k < num_dist; ++k) {
      const size_t split = m + k;
      const double overlap = prefix[split].OverlapVolume(suffix[split]);
      const double area = prefix[split].Volume() + suffix[split].Volume();
      // Once volumes overflow, every overlap and area can be inf; the
      // first candidate seeds the choice so one always exists.
      if (best_order.empty() || overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        best_order = order;
        best_split = split;
      }
    }
  }

  Node right;
  right.id = file_.Allocate();
  right.level = node.level;
  if (node.is_leaf()) {
    std::vector<LeafEntry> left_points, right_points;
    for (size_t i = 0; i < total; ++i) {
      auto& dst = (i < best_split) ? left_points : right_points;
      dst.push_back(std::move(node.points[best_order[i]]));
    }
    node.points = std::move(left_points);
    right.points = std::move(right_points);
  } else {
    std::vector<NodeEntry> left_children, right_children;
    for (size_t i = 0; i < total; ++i) {
      auto& dst = (i < best_split) ? left_children : right_children;
      dst.push_back(std::move(node.children[best_order[i]]));
    }
    node.children = std::move(left_children);
    right.children = std::move(right_children);
  }
  return right;
}

void RStarTree::GrowRoot(Node& left, Node& right) {
  WriteNode(left);
  WriteNode(right);
  Node root;
  root.id = file_.Allocate();
  root.level = left.level + 1;
  root.children.push_back(NodeEntry{NodeBoundingRect(left), left.id});
  root.children.push_back(NodeEntry{NodeBoundingRect(right), right.id});
  WriteNode(root);
  root_id_ = root.id;
  root_level_ = root.level;
}

// --------------------------------------------------------------------------
// Deletion
// --------------------------------------------------------------------------

Status RStarTree::DeleteLocked(PointView point, uint32_t oid) {
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

bool RStarTree::FindLeafPath(const Node& node, PointView point, uint32_t oid,
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
    if (!node.children[i].rect.Contains(ActiveView(point))) continue;
    idx.push_back(static_cast<int>(i));
    Node child = ReadNode(node.children[i].child, node.level - 1);
    if (FindLeafPath(child, point, oid, path, idx)) return true;
    idx.pop_back();
  }
  path.pop_back();
  return false;
}

void RStarTree::CondenseTree(std::vector<Node>& path, std::vector<int>& idx) {
  std::deque<Pending> orphans;
  for (int i = static_cast<int>(path.size()) - 1; i >= 1; --i) {
    Node& n = path[i];
    Node& parent = path[i - 1];
    if (n.count() < MinEntries(n)) {
      // Dissolve the node; queue its entries for reinsertion at their level.
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
      parent.children[idx[i - 1]].rect = NodeBoundingRect(n);
    }
  }
  WriteNode(path[0]);

  reinserted_levels_.clear();
  ProcessPending(orphans);
}

void RStarTree::ShrinkRoot() {
  for (;;) {
    Node root = PeekNode(root_id_);
    if (root.is_leaf()) return;
    if (root.children.empty()) {
      // Tree is empty; restart with a fresh leaf root.
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

// The R*-tree's bound policy for the shared traversals
// (src/index/traversal.h): squared rect MINDIST on the active dimensions.
// It lower-bounds the full distance, so pruning stays exact.
struct RStarTree::SearchBound {
  static constexpr BoundSpace kSpace = BoundSpace::kSquared;
  const RStarTree& tree;
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
        scratch, tree.ActiveView(query), node.children.size(),
        [&](size_t i) -> const Rect& { return node.children[i].rect; });
    for (size_t i = 0; i < node.children.size(); ++i) {
      child(m2[i], node.children[i].child);
    }
  }
};

std::vector<Neighbor> RStarTree::SearchSnapshot(
    const PageFile::Snapshot& snap, PointView query, const QuerySpec& spec,
    IoStatsDelta* io) const {
  return Traverse(SearchBound{*this, snap}, query, spec, io);
}

// --------------------------------------------------------------------------
// Stats & validation
// --------------------------------------------------------------------------

TreeStats RStarTree::GetTreeStats() const {
  TreeStats stats;
  stats.height = root_level_ + 1;
  CollectStats(PeekNode(root_id_), stats);
  return stats;
}

void RStarTree::CollectStats(const Node& node, TreeStats& stats) const {
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

RegionSummary RStarTree::LeafRegionSummary() const {
  RegionStatsCollector collector;
  CollectRegions(PeekNode(root_id_), collector);
  return collector.Finish();
}

void RStarTree::CollectRegions(const Node& node,
                               RegionStatsCollector& collector) const {
  if (node.is_leaf()) {
    if (node.points.empty()) return;  // the empty tree's root
    collector.CountLeaf();
    collector.AddRect(NodeBoundingRect(node));
    return;
  }
  for (const NodeEntry& e : node.children) {
    CollectRegions(PeekNode(e.child), collector);
  }
}

Status RStarTree::CheckInvariants() const { return debug::AuditIndex(*this); }

void RStarTree::VisitNodes(const NodeVisitor& visitor) const {
  std::vector<int> path;
  VisitSubtree(PeekNode(root_id_), path, visitor);
}

void RStarTree::VisitSubtree(const Node& node, std::vector<int>& path,
                             const NodeVisitor& visitor) const {
  NodeView view;
  view.level = node.level;
  view.capacity = Capacity(node);
  view.min_entries = audits_min_fill() ? MinEntries(node) : 0;
  view.entries.reserve(node.children.size());
  for (const NodeEntry& e : node.children) {
    view.entries.push_back(EntryView{&e.rect, /*sphere=*/nullptr,
                                     /*weight=*/0, /*has_weight=*/false});
  }
  // Regions live in the active subspace, so the leaf points are presented
  // projected onto it (matching GetAuditSpec().dim).
  view.points.reserve(node.points.size());
  for (const LeafEntry& e : node.points) {
    view.points.push_back(ActiveView(e.point));
  }
  visitor(path, view);
  for (size_t i = 0; i < node.children.size(); ++i) {
    path.push_back(static_cast<int>(i));
    VisitSubtree(PeekNode(node.children[i].child), path, visitor);
    path.pop_back();
  }
}

AuditSpec RStarTree::GetAuditSpec() const {
  AuditSpec spec;
  spec.dim = active_dims_;  // rects span the active subspace only
  spec.rect_semantics = RectSemantics::kExactMbr;
  spec.internal_root_min2 = true;
  return spec;
}

}  // namespace srtree
