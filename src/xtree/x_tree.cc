#include "src/xtree/x_tree.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/common/check.h"
#include "src/debug/structural_auditor.h"
#include "src/geometry/kernel.h"
#include "src/index/traversal.h"
#include "src/storage/image_io.h"

namespace srtree {
namespace {

// Per-page header: level (u8), pad (u8), count in this page (u16),
// next page of the chain (u32; kInvalidPageId terminates). The same 8-byte
// layout as the other trees, with the reserved word carrying the chain.
constexpr size_t kHeaderBytes = 8;

// Overlap measure of two rectangles: per-dimension product of
// intersection extent over combined extent — a monotone proxy for
// ||A ∩ B|| / ||A ∪ B|| that cannot underflow unless the overlap is
// genuinely negligible.
double OverlapRatio(const Rect& a, const Rect& b) {
  double ratio = 1.0;
  for (int d = 0; d < a.dim(); ++d) {
    const double inter =
        std::min(a.hi()[d], b.hi()[d]) - std::max(a.lo()[d], b.lo()[d]);
    if (inter <= 0.0) return 0.0;
    const double span =
        std::max(a.hi()[d], b.hi()[d]) - std::min(a.lo()[d], b.lo()[d]);
    if (span > 0.0) ratio *= inter / span;
  }
  return ratio;
}

}  // namespace

XTree::XTree(const Options& options)
    : PagedIndex(options.page_size), options_(options) {
  CHECK_GT(options_.dim, 0);
  CHECK_GT(options_.min_utilization, 0.0);
  CHECK_LE(options_.min_utilization, 0.5);
  CHECK_GE(options_.max_overlap, 0.0);
  CHECK_GT(options_.min_fanout, 0.0);
  CHECK_LE(options_.min_fanout, 0.5);

  const size_t dim = static_cast<size_t>(options_.dim);
  const size_t leaf_entry =
      dim * sizeof(double) + sizeof(uint32_t) + options_.leaf_data_size;
  const size_t node_entry = 2 * dim * sizeof(double) + sizeof(uint32_t);
  leaf_cap_ = (options_.page_size - kHeaderBytes) / leaf_entry;
  node_cap_ = (options_.page_size - kHeaderBytes) / node_entry;
  CHECK_GE(leaf_cap_, 2u);
  CHECK_GE(node_cap_, 2u);
  leaf_min_ = std::max<size_t>(
      1, static_cast<size_t>(options_.min_utilization * leaf_cap_));
  node_min_ = std::max<size_t>(
      1, static_cast<size_t>(options_.min_fanout * node_cap_));

  Node root;
  root.id = file_.Allocate();
  root.level = 0;
  WriteNode(root);
  root_id_ = root.id;
  PublishBuilt(root_id_, root_level_, size_);  // the empty tree
}

size_t XTree::MinEntries(const Node& node) const {
  return node.is_leaf() ? leaf_min_ : node_min_;
}

// --------------------------------------------------------------------------
// Persistence
// --------------------------------------------------------------------------

namespace {

// v2 header record embedded in the SRIX container (src/storage/image_io.h);
// the container carries the magic, tag, and a CRC32C over these bytes.
struct XImageHeader {
  int32_t dim;
  uint32_t pad0;
  uint64_t page_size;
  uint64_t leaf_data_size;
  double min_utilization;
  double max_overlap;
  double min_fanout;
  uint32_t root_id;
  int32_t root_level;
  uint64_t size;
};

// True iff `o` would pass every constructor CHECK, so Open() can reject a
// forged header with Corruption instead of crashing the process. The
// negated-range form also rejects NaN parameter values.
bool PlausibleOptions(const XTree::Options& o) {
  if (o.dim <= 0 || o.dim > (1 << 16)) return false;
  if (!(o.min_utilization > 0.0 && o.min_utilization <= 0.5)) return false;
  if (!(o.max_overlap >= 0.0)) return false;
  if (!(o.min_fanout > 0.0 && o.min_fanout <= 0.5)) return false;
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

Status XTree::Save(const std::string& path) const {
  XImageHeader header = {};
  header.dim = options_.dim;
  header.page_size = options_.page_size;
  header.leaf_data_size = options_.leaf_data_size;
  header.min_utilization = options_.min_utilization;
  header.max_overlap = options_.max_overlap;
  header.min_fanout = options_.min_fanout;
  header.root_id = root_id_;
  header.root_level = root_level_;
  header.size = size_;
  return AtomicWriteFile(path, [&](std::ostream& out) {
    RETURN_IF_ERROR(
        WriteIndexImageTo(out, kImageTag, &header, sizeof(header)));
    return file_.SaveTo(out);
  });
}

StatusOr<std::unique_ptr<XTree>> XTree::Open(const std::string& path) {
  XImageHeader header = {};
  IndexImageFile image;
  RETURN_IF_ERROR(image.Open(path, kImageTag, &header, sizeof(header)));

  Options options;
  options.dim = header.dim;
  options.page_size = header.page_size;
  options.leaf_data_size = header.leaf_data_size;
  options.min_utilization = header.min_utilization;
  options.max_overlap = header.max_overlap;
  options.min_fanout = header.min_fanout;
  if (!PlausibleOptions(options) || header.root_level < 0 ||
      header.root_level > 64) {
    return Status::Corruption("implausible X-tree header");
  }
  auto tree = std::make_unique<XTree>(options);
  RETURN_IF_ERROR(tree->LoadFullPages(image.stream()));
  if (!tree->file_.is_live(header.root_id)) {
    return Status::Corruption("X-tree root page is not live in the image");
  }
  tree->root_id_ = header.root_id;
  tree->root_level_ = header.root_level;
  tree->size_ = header.size;
  tree->maintenance_ = MaintenanceStats{};
  tree->PublishBuilt(tree->root_id_, tree->root_level_, tree->size_);
  tree->overlap_free_splits_ = 0;
  tree->supernode_extensions_ = 0;
  RETURN_IF_ERROR(tree->CheckInvariants());
  return tree;
}

// --------------------------------------------------------------------------
// Page I/O — supernodes are chains of pages
// --------------------------------------------------------------------------

PageId XTree::DecodePage(const char* raw, PageId page, Node& node) const {
  const size_t dim = static_cast<size_t>(options_.dim);
  PageReader r(raw, options_.page_size);
  node.level = r.GetU8();
  r.GetU8();
  const size_t count = r.GetU16();
  const PageId next = r.GetU32();
  if (node.level == 0) {
    for (size_t i = 0; i < count; ++i) {
      LeafEntry e;
      e.point.resize(dim);
      r.GetDoubles(e.point);
      e.oid = r.GetU32();
      r.Skip(options_.leaf_data_size);
      node.points.push_back(std::move(e));
    }
  } else {
    for (size_t i = 0; i < count; ++i) {
      Point lo(dim), hi(dim);
      r.GetDoubles(lo);
      r.GetDoubles(hi);
      NodeEntry e;
      e.rect = Rect(std::move(lo), std::move(hi));
      e.child = r.GetU32();
      node.children.push_back(std::move(e));
    }
  }
  if (page != node.id) node.extra_pages.push_back(page);
  node.num_pages = 1 + node.extra_pages.size();
  return next;
}

XTree::Node XTree::ReadNode(PageId id, int level) const {
  // Every page of a supernode chain is a counted in-place read of the
  // writer's working state.
  Node node;
  node.id = id;
  for (PageId page = id; page != kInvalidPageId;) {
    page = DecodePage(file_.ReadInPlace(page, level), page, node);
  }
  DCHECK_EQ(node.level, level);
  return node;
}

XTree::Node XTree::PeekNode(PageId id) const {
  Node node;
  node.id = id;
  for (PageId page = id; page != kInvalidPageId;) {
    page = DecodePage(file_.PeekPage(page), page, node);
  }
  return node;
}

void XTree::WriteNode(Node& node) {
  const size_t per_page = PerPageCapacity(node);
  const size_t required =
      std::max<size_t>(1, (node.count() + per_page - 1) / per_page);
  CHECK(node.is_leaf() ? required == 1 : true);
  node.num_pages = std::max(node.num_pages, required);
  while (node.extra_pages.size() < node.num_pages - 1) {
    node.extra_pages.push_back(file_.Allocate());
  }
  while (node.extra_pages.size() > node.num_pages - 1) {
    file_.Free(node.extra_pages.back());
    node.extra_pages.pop_back();
  }

  const size_t total = node.count();
  for (size_t page = 0; page < node.num_pages; ++page) {
    const size_t begin = page * per_page;
    const size_t end = std::min(total, begin + per_page);
    const size_t count = begin < end ? end - begin : 0;
    const PageId page_id = page == 0 ? node.id : node.extra_pages[page - 1];
    // Copy-on-write staging keeps snapshots on the committed buffer.
    PageWriter w(file_.StageWrite(page_id), options_.page_size);
    w.PutU8(static_cast<uint8_t>(node.level));
    w.PutU8(0);
    w.PutU16(static_cast<uint16_t>(count));
    w.PutU32(page + 1 < node.num_pages ? node.extra_pages[page]
                                       : kInvalidPageId);
    if (node.is_leaf()) {
      for (size_t i = begin; i < end; ++i) {
        w.PutDoubles(node.points[i].point);
        w.PutU32(node.points[i].oid);
        w.Skip(options_.leaf_data_size);
      }
    } else {
      for (size_t i = begin; i < end; ++i) {
        w.PutDoubles(node.children[i].rect.lo());
        w.PutDoubles(node.children[i].rect.hi());
        w.PutU32(node.children[i].child);
      }
    }
    // The rest of the page is zero (StageWrite hands back a dirty buffer).
    w.Skip(w.remaining());
  }
}

void XTree::FreeNodePages(const Node& node) {
  file_.Free(node.id);
  for (const PageId id : node.extra_pages) file_.Free(id);
}

// --------------------------------------------------------------------------
// Region helpers
// --------------------------------------------------------------------------

Rect XTree::EntryRect(const Node& node, size_t i) {
  return node.is_leaf() ? Rect::FromPoint(node.points[i].point)
                        : node.children[i].rect;
}

Rect XTree::NodeBoundingRect(const Node& node) const {
  Rect bound = Rect::Empty(options_.dim);
  if (node.is_leaf()) {
    for (const LeafEntry& e : node.points) bound.Expand(e.point);
  } else {
    for (const NodeEntry& e : node.children) bound.Expand(e.rect);
  }
  return bound;
}

// --------------------------------------------------------------------------
// Insertion
// --------------------------------------------------------------------------

Status XTree::InsertLocked(PointView point, uint32_t oid) {
  InsertLeafEntry(LeafEntry{Point(point.begin(), point.end()), oid});
  ++size_;
  CommitRoot(root_id_, root_level_, size_);
  return Status::OK();
}

void XTree::InsertLeafEntry(LeafEntry entry) {
  std::vector<Node> path;
  std::vector<int> idx;
  const Rect entry_rect = Rect::FromPoint(entry.point);
  Node cur = ReadNode(root_id_, root_level_);
  while (!cur.is_leaf()) {
    const int i = ChooseSubtree(cur, entry_rect);
    const PageId child = cur.children[i].child;
    const int child_level = cur.level - 1;
    path.push_back(std::move(cur));
    idx.push_back(i);
    cur = ReadNode(child, child_level);
  }
  cur.points.push_back(std::move(entry));
  path.push_back(std::move(cur));
  ResolvePath(path, idx);
}

void XTree::InsertEntryAtLevel(const NodeEntry& entry, int level) {
  CHECK_LT(level, root_level_ + 1);
  std::vector<Node> path;
  std::vector<int> idx;
  Node cur = ReadNode(root_id_, root_level_);
  while (cur.level > level) {
    const int i = ChooseSubtree(cur, entry.rect);
    const PageId child = cur.children[i].child;
    const int child_level = cur.level - 1;
    path.push_back(std::move(cur));
    idx.push_back(i);
    cur = ReadNode(child, child_level);
  }
  cur.children.push_back(entry);
  path.push_back(std::move(cur));
  ResolvePath(path, idx);
}

int XTree::ChooseSubtree(const Node& node, const Rect& entry_rect) const {
  DCHECK(!node.is_leaf());
  const size_t n = node.children.size();
  int best = 0;

  if (node.level == 1) {
    // R* rule: children are leaves — minimize overlap enlargement.
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      const Rect& rect = node.children[i].rect;
      const Rect enlarged = Rect::Union(rect, entry_rect);
      double overlap_delta = 0.0;
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        overlap_delta += enlarged.OverlapVolume(node.children[j].rect) -
                         rect.OverlapVolume(node.children[j].rect);
      }
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

void XTree::ResolvePath(std::vector<Node>& path, const std::vector<int>& idx) {
  int i = static_cast<int>(path.size()) - 1;
  while (true) {
    Node& n = path[i];
    if (n.count() <= Capacity(n)) break;

    // Decide: split (topological or overlap-free) or supernode extension.
    std::vector<size_t> order;
    size_t split = 0;
    bool do_split;
    if (n.is_leaf()) {
      TopologicalSplit(n, order, split);
      do_split = true;
    } else {
      const double ratio = TopologicalSplit(n, order, split);
      if (ratio <= options_.max_overlap) {
        do_split = true;
      } else if (OverlapFreeSplit(n, order, split)) {
        ++overlap_free_splits_;
        do_split = true;
      } else {
        do_split = false;
      }
    }

    if (!do_split) {
      // Supernode extension: entitle the node to one more page; it no
      // longer overflows and the region is unchanged above.
      ++supernode_extensions_;
      ++n.num_pages;
      break;
    }

    ++maintenance_.splits;
    Node right = SplitNode(n, order, split);
    if (i == 0) {
      GrowRoot(n, right);
      return;
    }
    WriteNode(right);
    WriteNode(n);
    Node& parent = path[i - 1];
    parent.children[idx[i - 1]].rect = NodeBoundingRect(n);
    parent.children.push_back(NodeEntry{NodeBoundingRect(right), right.id});
    --i;
  }
  WritePathRefreshingRects(path, idx, i);
}

void XTree::WritePathRefreshingRects(std::vector<Node>& path,
                                     const std::vector<int>& idx, int from) {
  WriteNode(path[from]);
  for (int j = from - 1; j >= 0; --j) {
    path[j].children[idx[j]].rect = NodeBoundingRect(path[j + 1]);
    WriteNode(path[j]);
  }
}

double XTree::TopologicalSplit(const Node& node, std::vector<size_t>& order,
                               size_t& split) const {
  const size_t total = node.count();
  const size_t m = std::max<size_t>(
      1, static_cast<size_t>(options_.min_utilization *
                             static_cast<double>(total)));
  CHECK_GE(total, 2 * m);
  const size_t num_dist = total - 2 * m + 1;

  std::vector<Rect> rects(total);
  for (size_t i = 0; i < total; ++i) rects[i] = EntryRect(node, i);

  auto sorted_order = [&](int axis, bool by_upper) {
    std::vector<size_t> result(total);
    std::iota(result.begin(), result.end(), 0);
    std::sort(result.begin(), result.end(), [&](size_t a, size_t b) {
      const double ka = by_upper ? rects[a].hi()[axis] : rects[a].lo()[axis];
      const double kb = by_upper ? rects[b].hi()[axis] : rects[b].lo()[axis];
      return ka < kb;
    });
    return result;
  };

  auto group_bounds = [&](const std::vector<size_t>& ord) {
    std::vector<Rect> prefix(total + 1, Rect::Empty(options_.dim));
    std::vector<Rect> suffix(total + 1, Rect::Empty(options_.dim));
    for (size_t i = 0; i < total; ++i) {
      prefix[i + 1] = prefix[i];
      prefix[i + 1].Expand(rects[ord[i]]);
    }
    for (size_t i = total; i-- > 0;) {
      suffix[i] = suffix[i + 1];
      suffix[i].Expand(rects[ord[i]]);
    }
    return std::make_pair(std::move(prefix), std::move(suffix));
  };

  int best_axis = 0;
  double best_margin_sum = std::numeric_limits<double>::infinity();
  for (int axis = 0; axis < options_.dim; ++axis) {
    double margin_sum = 0.0;
    for (const bool by_upper : {false, true}) {
      const std::vector<size_t> ord = sorted_order(axis, by_upper);
      auto [prefix, suffix] = group_bounds(ord);
      for (size_t k = 0; k < num_dist; ++k) {
        margin_sum += prefix[m + k].Margin() + suffix[m + k].Margin();
      }
    }
    if (margin_sum < best_margin_sum) {
      best_margin_sum = margin_sum;
      best_axis = axis;
    }
  }

  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  double best_ratio = 0.0;
  order.clear();
  for (const bool by_upper : {false, true}) {
    const std::vector<size_t> ord = sorted_order(best_axis, by_upper);
    auto [prefix, suffix] = group_bounds(ord);
    for (size_t k = 0; k < num_dist; ++k) {
      const size_t s = m + k;
      const double overlap = prefix[s].OverlapVolume(suffix[s]);
      const double area = prefix[s].Volume() + suffix[s].Volume();
      // Once volumes overflow, every overlap and area can be inf; the
      // first candidate seeds the choice so one always exists.
      if (order.empty() || overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        order = ord;
        split = s;
        best_ratio = OverlapRatio(prefix[s], suffix[s]);
      }
    }
  }
  return best_ratio;
}

bool XTree::OverlapFreeSplit(const Node& node, std::vector<size_t>& order,
                             size_t& split) const {
  DCHECK(!node.is_leaf());
  const size_t total = node.count();
  const size_t min_side = std::max<size_t>(
      1,
      static_cast<size_t>(options_.min_fanout * static_cast<double>(total)));
  size_t best_balance = 0;

  for (int d = 0; d < options_.dim; ++d) {
    std::vector<size_t> ord(total);
    std::iota(ord.begin(), ord.end(), 0);
    std::sort(ord.begin(), ord.end(), [&](size_t a, size_t b) {
      return node.children[a].rect.lo()[d] < node.children[b].rect.lo()[d];
    });
    double prefix_hi = -std::numeric_limits<double>::infinity();
    for (size_t s = 1; s < total; ++s) {
      prefix_hi = std::max(prefix_hi, node.children[ord[s - 1]].rect.hi()[d]);
      if (prefix_hi > node.children[ord[s]].rect.lo()[d]) continue;
      const size_t balance = std::min(s, total - s);
      if (balance >= min_side && balance > best_balance) {
        best_balance = balance;
        order = ord;
        split = s;
      }
    }
  }
  return best_balance > 0;
}

XTree::Node XTree::SplitNode(Node& node, const std::vector<size_t>& order,
                             size_t split) {
  const size_t total = node.count();
  Node right;
  right.id = file_.Allocate();
  right.level = node.level;
  if (node.is_leaf()) {
    std::vector<LeafEntry> left_points, right_points;
    for (size_t i = 0; i < total; ++i) {
      auto& dst = (i < split) ? left_points : right_points;
      dst.push_back(std::move(node.points[order[i]]));
    }
    node.points = std::move(left_points);
    right.points = std::move(right_points);
  } else {
    std::vector<NodeEntry> left_children, right_children;
    for (size_t i = 0; i < total; ++i) {
      auto& dst = (i < split) ? left_children : right_children;
      dst.push_back(std::move(node.children[order[i]]));
    }
    node.children = std::move(left_children);
    right.children = std::move(right_children);
  }
  // Splitting shrinks both halves back to as few pages as their entry
  // counts require; WriteNode frees the surplus chain pages.
  const size_t per_page = PerPageCapacity(node);
  node.num_pages = std::max<size_t>(1, (node.count() + per_page - 1) / per_page);
  right.num_pages =
      std::max<size_t>(1, (right.count() + per_page - 1) / per_page);
  return right;
}

void XTree::GrowRoot(Node& left, Node& right) {
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

Status XTree::DeleteLocked(PointView point, uint32_t oid) {
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

bool XTree::FindLeafPath(const Node& node, PointView point, uint32_t oid,
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
    if (!node.children[i].rect.Contains(point)) continue;
    idx.push_back(static_cast<int>(i));
    Node child = ReadNode(node.children[i].child, node.level - 1);
    if (FindLeafPath(child, point, oid, path, idx)) return true;
    idx.pop_back();
  }
  path.pop_back();
  return false;
}

void XTree::CondenseTree(std::vector<Node>& path, std::vector<int>& idx) {
  std::vector<LeafEntry> orphan_points;
  std::vector<std::pair<int, NodeEntry>> orphan_entries;

  for (int i = static_cast<int>(path.size()) - 1; i >= 1; --i) {
    Node& n = path[i];
    Node& parent = path[i - 1];
    bool dissolve = false;
    if (n.is_leaf()) {
      dissolve = n.count() < leaf_min_;
    } else {
      // Shrink a supernode before considering dissolution.
      const size_t required = std::max<size_t>(
          1, (n.count() + node_cap_ - 1) / node_cap_);
      if (required < n.num_pages) n.num_pages = required;
      dissolve = n.num_pages == 1 && n.count() < node_min_;
    }
    if (dissolve) {
      if (n.is_leaf()) {
        for (LeafEntry& e : n.points) orphan_points.push_back(std::move(e));
      } else {
        for (NodeEntry& e : n.children) {
          orphan_entries.emplace_back(n.level, e);
        }
      }
      FreeNodePages(n);
      parent.children.erase(parent.children.begin() + idx[i - 1]);
    } else {
      WriteNode(n);
      parent.children[idx[i - 1]].rect = NodeBoundingRect(n);
    }
  }
  Node& root = path[0];
  if (!root.is_leaf()) {
    const size_t required =
        std::max<size_t>(1, (root.count() + node_cap_ - 1) / node_cap_);
    if (required < root.num_pages) root.num_pages = required;
  }
  WriteNode(root);

  // Orphaned subtrees go back in at their own level, points at the leaves.
  for (const auto& [level, entry] : orphan_entries) {
    InsertEntryAtLevel(entry, level);
  }
  for (LeafEntry& e : orphan_points) {
    InsertLeafEntry(std::move(e));
  }
}

void XTree::ShrinkRoot() {
  for (;;) {
    Node root = PeekNode(root_id_);
    if (root.is_leaf()) return;
    if (root.children.empty()) {
      FreeNodePages(root);
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
    FreeNodePages(root);
    root_id_ = child;
    --root_level_;
  }
}

// --------------------------------------------------------------------------
// Search
// --------------------------------------------------------------------------

// The X-tree's bound policy for the shared traversals
// (src/index/traversal.h): squared rect MINDIST.
struct XTree::SearchBound {
  static constexpr BoundSpace kSpace = BoundSpace::kSquared;
  const XTree& tree;
  const PageFile::Snapshot& snap;

  TraversalRoot root() const { return CommittedRoot(snap); }
  void Prefetch(PageId id) const { snap.Prefetch(id); }

  template <typename Offer, typename Child>
  void Expand(PageId id, int level, PointView query, double leaf_bound_sq,
              KernelScratch& scratch, IoStatsDelta* io, Offer&& offer,
              Child&& child) const {
    Node node;
    node.id = id;
    for (PageId page = id; page != kInvalidPageId;) {
      page = tree.DecodePage(snap.ReadInPlace(page, level, io), page, node);
    }
    DCHECK_EQ(node.level, level);
    if (node.is_leaf()) {
      ScanLeafEntries(node.points, query, leaf_bound_sq, scratch, offer);
      return;
    }
    const std::vector<double>& m2 = BatchRectMinDistSq(
        scratch, query, node.children.size(),
        [&](size_t i) -> const Rect& { return node.children[i].rect; });
    for (size_t i = 0; i < node.children.size(); ++i) {
      child(m2[i], node.children[i].child);
    }
  }
};

std::vector<Neighbor> XTree::SearchSnapshot(
    const PageFile::Snapshot& snap, PointView query, const QuerySpec& spec,
    IoStatsDelta* io) const {
  return Traverse(SearchBound{*this, snap}, query, spec, io);
}

// --------------------------------------------------------------------------
// Stats & validation
// --------------------------------------------------------------------------

TreeStats XTree::GetTreeStats() const {
  TreeStats stats;
  stats.height = root_level_ + 1;
  CollectStats(PeekNode(root_id_), stats);
  return stats;
}

void XTree::CollectStats(const Node& node, TreeStats& stats) const {
  if (node.is_leaf()) {
    ++stats.leaf_count;
    stats.entry_count += node.points.size();
    return;
  }
  stats.node_count += node.num_pages;  // supernodes occupy several pages
  for (const NodeEntry& e : node.children) {
    CollectStats(PeekNode(e.child), stats);
  }
}

XTree::SupernodeStats XTree::GetSupernodeStats() const {
  SupernodeStats stats;
  CollectSupernodes(PeekNode(root_id_), stats);
  return stats;
}

void XTree::CollectSupernodes(const Node& node, SupernodeStats& stats) const {
  if (node.is_leaf()) return;
  ++stats.directory_nodes;
  if (node.num_pages > 1) {
    ++stats.supernodes;
    stats.supernode_pages += node.num_pages;
  }
  for (const NodeEntry& e : node.children) {
    CollectSupernodes(PeekNode(e.child), stats);
  }
}

RegionSummary XTree::LeafRegionSummary() const {
  RegionStatsCollector collector;
  CollectRegions(PeekNode(root_id_), collector);
  return collector.Finish();
}

void XTree::CollectRegions(const Node& node,
                           RegionStatsCollector& collector) const {
  if (node.is_leaf()) {
    if (node.points.empty()) return;
    collector.CountLeaf();
    collector.AddRect(NodeBoundingRect(node));
    return;
  }
  for (const NodeEntry& e : node.children) {
    CollectRegions(PeekNode(e.child), collector);
  }
}

Status XTree::CheckInvariants() const { return debug::AuditIndex(*this); }

void XTree::VisitNodes(const NodeVisitor& visitor) const {
  std::vector<int> path;
  VisitSubtree(PeekNode(root_id_), path, visitor);
}

void XTree::VisitSubtree(const Node& node, std::vector<int>& path,
                         const NodeVisitor& visitor) const {
  NodeView view;
  view.level = node.level;
  view.capacity = Capacity(node);  // supernode-aware multi-page capacity
  view.min_entries = MinEntries(node);
  view.page_count = node.num_pages;
  view.per_page_capacity = PerPageCapacity(node);
  view.entries.reserve(node.children.size());
  for (const NodeEntry& e : node.children) {
    view.entries.push_back(EntryView{&e.rect, /*sphere=*/nullptr,
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

AuditSpec XTree::GetAuditSpec() const {
  AuditSpec spec;
  spec.dim = options_.dim;
  spec.rect_semantics = RectSemantics::kExactMbr;
  spec.internal_root_min2 = true;
  return spec;
}

}  // namespace srtree
