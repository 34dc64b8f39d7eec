#include "src/vamsplit/vam_split_r_tree.h"

#include <algorithm>
#include <numeric>

#include "src/common/check.h"
#include "src/debug/structural_auditor.h"
#include "src/geometry/kernel.h"
#include "src/index/traversal.h"
#include "src/storage/image_io.h"

namespace srtree {
namespace {

constexpr size_t kHeaderBytes = 8;

}  // namespace

VamSplitRTree::VamSplitRTree(const Options& options)
    : PagedIndex(options.page_size), options_(options) {
  CHECK_GT(options_.dim, 0);
  const size_t dim = static_cast<size_t>(options_.dim);
  const size_t leaf_entry =
      dim * sizeof(double) + sizeof(uint32_t) + options_.leaf_data_size;
  const size_t node_entry = 2 * dim * sizeof(double) + sizeof(uint32_t);
  leaf_cap_ = (options_.page_size - kHeaderBytes) / leaf_entry;
  node_cap_ = (options_.page_size - kHeaderBytes) / node_entry;
  CHECK_GE(leaf_cap_, 2u);
  CHECK_GE(node_cap_, 2u);

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
struct VamImageHeader {
  int32_t dim;
  uint32_t pad0;
  uint64_t page_size;
  uint64_t leaf_data_size;
  uint32_t root_id;
  int32_t root_level;
  uint64_t size;
};

// True iff `o` would pass every constructor CHECK, so Open() can reject a
// forged header with Corruption instead of crashing the process.
bool PlausibleOptions(const VamSplitRTree::Options& o) {
  if (o.dim <= 0 || o.dim > (1 << 16)) return false;
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

Status VamSplitRTree::Save(const std::string& path) const {
  VamImageHeader header = {};
  header.dim = options_.dim;
  header.page_size = options_.page_size;
  header.leaf_data_size = options_.leaf_data_size;
  header.root_id = root_id_;
  header.root_level = root_level_;
  header.size = size_;
  return AtomicWriteFile(path, [&](std::ostream& out) {
    RETURN_IF_ERROR(
        WriteIndexImageTo(out, kImageTag, &header, sizeof(header)));
    return file_.SaveTo(out);
  });
}

StatusOr<std::unique_ptr<VamSplitRTree>> VamSplitRTree::Open(
    const std::string& path) {
  VamImageHeader header = {};
  IndexImageFile image;
  RETURN_IF_ERROR(image.Open(path, kImageTag, &header, sizeof(header)));

  Options options;
  options.dim = header.dim;
  options.page_size = header.page_size;
  options.leaf_data_size = header.leaf_data_size;
  if (!PlausibleOptions(options) || header.root_level < 0 ||
      header.root_level > 64) {
    return Status::Corruption("implausible VAMSplit R-tree header");
  }
  auto tree = std::make_unique<VamSplitRTree>(options);
  RETURN_IF_ERROR(tree->LoadFullPages(image.stream()));
  if (!tree->file_.is_live(header.root_id)) {
    return Status::Corruption(
        "VAMSplit R-tree root page is not live in the image");
  }
  tree->root_id_ = header.root_id;
  tree->root_level_ = header.root_level;
  tree->size_ = header.size;
  tree->PublishBuilt(tree->root_id_, tree->root_level_, tree->size_);
  RETURN_IF_ERROR(tree->CheckInvariants());
  return tree;
}

// --------------------------------------------------------------------------
// Page I/O
// --------------------------------------------------------------------------

void VamSplitRTree::SerializeNode(const Node& node, char* buf) const {
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

VamSplitRTree::Node VamSplitRTree::DeserializeNode(const char* buf,
                                                   PageId id) const {
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
      e.rect = Rect(std::move(lo), std::move(hi));
      e.child = r.GetU32();
    }
  }
  return node;
}

VamSplitRTree::Node VamSplitRTree::PeekNode(PageId id) const {
  return DeserializeNode(file_.PeekPage(id), id);
}

void VamSplitRTree::WriteNode(const Node& node) {
  // Copy-on-write staging keeps snapshots on the committed buffer.
  SerializeNode(node, file_.StageWrite(node.id));
}

// --------------------------------------------------------------------------
// Construction
// --------------------------------------------------------------------------

Status VamSplitRTree::InsertLocked(PointView, uint32_t) {
  return Status::Unimplemented(
      "VAMSplit R-tree is static; rebuild with BulkLoad");
}

Status VamSplitRTree::DeleteLocked(PointView, uint32_t) {
  return Status::Unimplemented(
      "VAMSplit R-tree is static; rebuild with BulkLoad");
}

uint64_t VamSplitRTree::SubtreeCapacity(int height) const {
  uint64_t cap = leaf_cap_;
  for (int h = 0; h < height; ++h) cap *= node_cap_;
  return cap;
}

Status VamSplitRTree::BulkLoad(const std::vector<Point>& points,
                               const std::vector<uint32_t>& oids) {
  RETURN_IF_ERROR(ValidateBulkLoad(points, oids, options_.dim));
  if (size_ != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty index");
  }
  if (points.size() > 0xffffffffull) {
    return Status::InvalidArgument("too many points for 32-bit object slots");
  }
  if (points.empty()) return Status::OK();

  int height = 0;
  while (SubtreeCapacity(height) < points.size()) ++height;

  std::vector<uint32_t> items(points.size());
  std::iota(items.begin(), items.end(), 0);

  file_.Free(root_id_);  // replace the empty placeholder root
  Rect mbr = Rect::Empty(options_.dim);
  root_id_ = Build(points, oids, items, height, mbr);
  root_level_ = height;
  size_ = points.size();
  PublishBuilt(root_id_, root_level_, size_);
  return Status::OK();
}

int VamSplitRTree::MaxVarianceDim(const std::vector<Point>& points,
                                  ItemSpan items) const {
  int best_dim = 0;
  double best_var = -1.0;
  for (int d = 0; d < options_.dim; ++d) {
    double sum = 0.0, sum_sq = 0.0;
    for (const uint32_t i : items) {
      const double x = points[i][d];
      sum += x;
      sum_sq += x * x;
    }
    const double n = static_cast<double>(items.size());
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    if (var > best_var) {
      best_var = var;
      best_dim = d;
    }
  }
  return best_dim;
}

void VamSplitRTree::SplitIntoPieces(const std::vector<Point>& points,
                                    ItemSpan items, uint64_t piece_cap,
                                    std::vector<ItemSpan>& pieces) const {
  if (items.size() <= piece_cap) {
    pieces.push_back(items);
    return;
  }
  const int dim = MaxVarianceDim(points, items);
  // The VAM split point: the multiple of the maximal-subtree capacity
  // closest to the median, so that the left side packs full subtrees and
  // the total number of blocks is minimal.
  const uint64_t n = items.size();
  uint64_t mult = static_cast<uint64_t>(
      std::llround(static_cast<double>(n) / 2.0 / static_cast<double>(piece_cap)));
  mult = std::max<uint64_t>(mult, 1);
  uint64_t left = mult * piece_cap;
  if (left >= n) left = ((n - 1) / piece_cap) * piece_cap;
  CHECK_GT(left, 0u);
  CHECK_LT(left, n);

  std::nth_element(items.begin(),
                   items.begin() + static_cast<ptrdiff_t>(left), items.end(),
                   [&](uint32_t a, uint32_t b) {
                     return points[a][dim] < points[b][dim];
                   });
  SplitIntoPieces(points, items.subspan(0, left), piece_cap, pieces);
  SplitIntoPieces(points, items.subspan(left), piece_cap, pieces);
}

PageId VamSplitRTree::Build(const std::vector<Point>& points,
                            const std::vector<uint32_t>& oids, ItemSpan items,
                            int height, Rect& mbr) {
  mbr = Rect::Empty(options_.dim);
  if (height == 0) {
    CHECK_LE(items.size(), leaf_cap_);
    Node leaf;
    leaf.id = file_.Allocate();
    leaf.level = 0;
    for (const uint32_t i : items) {
      leaf.points.push_back(LeafEntry{points[i], oids[i]});
      mbr.Expand(points[i]);
    }
    WriteNode(leaf);
    return leaf.id;
  }

  std::vector<ItemSpan> pieces;
  SplitIntoPieces(points, items, SubtreeCapacity(height - 1), pieces);
  CHECK_LE(pieces.size(), node_cap_);

  Node node;
  node.id = file_.Allocate();
  node.level = height;
  for (const ItemSpan piece : pieces) {
    Rect child_mbr = Rect::Empty(options_.dim);
    const PageId child = Build(points, oids, piece, height - 1, child_mbr);
    node.children.push_back(NodeEntry{child_mbr, child});
    mbr.Expand(child_mbr);
  }
  WriteNode(node);
  return node.id;
}

// --------------------------------------------------------------------------
// Search
// --------------------------------------------------------------------------

// The VAMSplit R-tree's bound policy for the shared traversals
// (src/index/traversal.h): squared rect MINDIST.
struct VamSplitRTree::SearchBound {
  static constexpr BoundSpace kSpace = BoundSpace::kSquared;
  const VamSplitRTree& tree;
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
        [&](size_t i) -> const Rect& { return node.children[i].rect; });
    for (size_t i = 0; i < node.children.size(); ++i) {
      child(m2[i], node.children[i].child);
    }
  }
};

std::vector<Neighbor> VamSplitRTree::SearchSnapshot(
    const PageFile::Snapshot& snap, PointView query, const QuerySpec& spec,
    IoStatsDelta* io) const {
  return Traverse(SearchBound{*this, snap}, query, spec, io);
}

// --------------------------------------------------------------------------
// Stats & validation
// --------------------------------------------------------------------------

TreeStats VamSplitRTree::GetTreeStats() const {
  TreeStats stats;
  stats.height = root_level_ + 1;
  CollectStats(PeekNode(root_id_), stats);
  return stats;
}

void VamSplitRTree::CollectStats(const Node& node, TreeStats& stats) const {
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

RegionSummary VamSplitRTree::LeafRegionSummary() const {
  RegionStatsCollector collector;
  CollectRegions(PeekNode(root_id_), collector);
  return collector.Finish();
}

void VamSplitRTree::CollectRegions(const Node& node,
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

Status VamSplitRTree::CheckInvariants() const { return debug::AuditIndex(*this); }

void VamSplitRTree::VisitNodes(const NodeVisitor& visitor) const {
  std::vector<int> path;
  VisitSubtree(PeekNode(root_id_), path, visitor);
}

void VamSplitRTree::VisitSubtree(const Node& node, std::vector<int>& path,
                                 const NodeVisitor& visitor) const {
  NodeView view;
  view.level = node.level;
  view.capacity = Capacity(node);
  view.min_entries = 0;  // bulk-loaded: no minimum is enforced
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

AuditSpec VamSplitRTree::GetAuditSpec() const {
  AuditSpec spec;
  spec.dim = options_.dim;
  spec.rect_semantics = RectSemantics::kExactMbr;
  return spec;
}

}  // namespace srtree
