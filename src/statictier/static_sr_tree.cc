#include "src/statictier/static_sr_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>

#include "src/common/check.h"
#include "src/debug/structural_auditor.h"
#include "src/index/traversal.h"
#include "src/index/vam_partition.h"
#include "src/storage/image_io.h"

namespace srtree {
namespace {

// Pages are SoA (src/index/soa_page.h); the header word of an inner page
// is its first child's id.
constexpr size_t kHeaderBytes = kSoaPageHeaderBytes;

size_t LeafEntryBytes(int dim) {
  return static_cast<size_t>(dim) * sizeof(double) + sizeof(uint32_t);
}

size_t InnerEntryBytes(int dim) {
  // center (dim) + radius + lo (dim) + hi (dim) doubles, weight u32.
  return (3 * static_cast<size_t>(dim) + 1) * sizeof(double) +
         sizeof(uint32_t);
}

}  // namespace

void TombstoneBitmap::Set(uint64_t slot) {
  const uint64_t c = slot / kSlotsPerChunk;
  if (c >= chunks_.size()) chunks_.resize(c + 1);
  // Value-initialized when new: a fresh chunk has no dead slot.
  auto copy = chunks_[c] == nullptr ? std::make_shared<Chunk>()
                                    : std::make_shared<Chunk>(*chunks_[c]);
  uint64_t& word = (*copy)[(slot % kSlotsPerChunk) / 64];
  const uint64_t bit = uint64_t{1} << (slot % 64);
  CHECK_EQ(word & bit, 0u);
  word |= bit;
  chunks_[c] = std::move(copy);
  ++count_;
}

StaticSRTree::StaticSRTree(const Options& options)
    : PagedIndex(options.page_size), options_(options) {
  CHECK_GT(options_.dim, 0);
  leaf_cap_ = (options_.page_size - kHeaderBytes) / LeafEntryBytes(options_.dim);
  node_cap_ = (options_.page_size - kHeaderBytes) / InnerEntryBytes(options_.dim);
  CHECK_GE(leaf_cap_, 2u);
  CHECK_GE(node_cap_, 2u);
  // Publish the empty tree so a snapshot acquired before BulkLoad sees
  // coherent metadata (root = invalid, size = 0).
  PublishBuilt(root_id_, root_level_, size_);
}

// --------------------------------------------------------------------------
// Persistence
// --------------------------------------------------------------------------

namespace {

// v2 header record embedded in the SRIX container (src/storage/image_io.h).
struct StaticImageHeader {
  int32_t dim;
  uint32_t pad0;
  uint64_t page_size;
  uint32_t root_id;
  int32_t root_level;
  uint64_t size;
};

// True iff `o` would pass every constructor CHECK, so Open() can reject a
// forged header with Corruption instead of crashing the process.
bool PlausibleOptions(const StaticSRTree::Options& o) {
  if (o.dim <= 0 || o.dim > (1 << 16)) return false;
  if (o.page_size <= kHeaderBytes || o.page_size > (1u << 28)) return false;
  return (o.page_size - kHeaderBytes) / LeafEntryBytes(o.dim) >= 2 &&
         (o.page_size - kHeaderBytes) / InnerEntryBytes(o.dim) >= 2;
}

}  // namespace

Status StaticSRTree::Save(const std::string& path) const {
  StaticImageHeader header = {};
  header.dim = options_.dim;
  header.page_size = options_.page_size;
  header.root_id = root_id_;
  header.root_level = root_level_;
  header.size = size_;
  return AtomicWriteFile(path, [&](std::ostream& out) {
    RETURN_IF_ERROR(WriteIndexImageTo(out, kImageTag, &header, sizeof(header)));
    return file_.SaveTo(out);
  });
}

StatusOr<std::unique_ptr<StaticSRTree>> StaticSRTree::Open(
    const std::string& path) {
  StaticImageHeader header = {};
  IndexImageFile image;
  RETURN_IF_ERROR(image.Open(path, kImageTag, &header, sizeof(header)));

  Options options;
  options.dim = header.dim;
  options.page_size = header.page_size;
  if (!PlausibleOptions(options) || header.root_level < 0 ||
      header.root_level > 64) {
    return Status::Corruption("implausible static SR-tree header");
  }
  auto tree = std::make_unique<StaticSRTree>(options);
  RETURN_IF_ERROR(tree->LoadPages(image.stream(), header.root_id,
                                  header.root_level, header.size));
  return tree;
}

Status StaticSRTree::SavePagesTo(std::ostream& out) const {
  return file_.SaveTo(out);
}

Status StaticSRTree::LoadPages(std::istream& in, PageId root_id,
                               int root_level, uint64_t size) {
  if (root_level < 0 || root_level > 64) {
    return Status::Corruption("implausible static SR-tree root level");
  }
  RETURN_IF_ERROR(LoadFullPages(in));
  if (size == 0) {
    if (root_id != kInvalidPageId) {
      return Status::Corruption("empty static SR-tree image names a root");
    }
    root_id_ = kInvalidPageId;
    root_level_ = 0;
    size_ = 0;
    first_leaf_ = kInvalidPageId;
    leaf_count_ = 0;
    PublishBuilt(root_id_, root_level_, size_);
    return Status::OK();
  }
  if (!file_.is_live(root_id)) {
    return Status::Corruption("static SR-tree root page is not live");
  }
  root_id_ = root_id;
  root_level_ = root_level;
  size_ = size;
  RETURN_IF_ERROR(ValidateStructure(&first_leaf_, &leaf_count_));
  PublishBuilt(root_id_, root_level_, size_);
  return CheckInvariants();
}

Status StaticSRTree::ValidateStructure(PageId* first_leaf,
                                       size_t* leaf_count) const {
  // BFS from the root: every reachable page must be live, carry the level
  // its parent implies, and keep its count within capacity — so the
  // PeekPage-based audit/stats walks can never chase a wild child id. BFS
  // reaches the leaves last and in id order, so the k-th leaf it meets
  // must be page first_leaf + k for slots to be well defined.
  struct Item {
    PageId id;
    int level;
  };
  std::queue<Item> queue;
  queue.push({root_id_, root_level_});
  uint64_t points = 0;
  uint64_t visited = 0;
  *first_leaf = kInvalidPageId;
  *leaf_count = 0;
  while (!queue.empty()) {
    const Item item = queue.front();
    queue.pop();
    if (++visited > file_.live_pages()) {
      return Status::Corruption("static SR-tree structure is not a tree");
    }
    const char* buf = file_.PeekPage(item.id);
    if (SoaPageLevel(buf) != item.level) {
      return Status::Corruption("static SR-tree page level mismatch");
    }
    if (item.level == 0) {
      const SoaLeafView leaf = ParseSoaLeaf(buf, options_.dim);
      if (leaf.count == 0 || leaf.count > leaf_cap_) {
        return Status::Corruption("static SR-tree leaf count out of range");
      }
      if (*leaf_count == 0) *first_leaf = item.id;
      if (item.id != *first_leaf + *leaf_count) {
        return Status::Corruption(
            "static SR-tree leaves are not one contiguous run of pages");
      }
      ++*leaf_count;
      points += leaf.count;
      continue;
    }
    const SoaInnerView inner = ParseSoaInner(buf, options_.dim);
    if (inner.count == 0 || inner.count > node_cap_) {
      return Status::Corruption("static SR-tree node count out of range");
    }
    for (size_t i = 0; i < inner.count; ++i) {
      const PageId child = FirstChild(inner) + static_cast<PageId>(i);
      if (child < FirstChild(inner) || !file_.is_live(child)) {
        return Status::Corruption("static SR-tree child page is not live");
      }
      queue.push({child, item.level - 1});
    }
  }
  if (points != size_) {
    return Status::Corruption("static SR-tree leaf total != stored size");
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// Construction
// --------------------------------------------------------------------------

Status StaticSRTree::InsertLocked(PointView, uint32_t) {
  return Status::Unimplemented(
      "Static SR-tree is immutable; mutate through a TieredIndex");
}

Status StaticSRTree::DeleteLocked(PointView, uint32_t) {
  return Status::Unimplemented(
      "Static SR-tree is immutable; mutate through a TieredIndex");
}

// A node's output of the build: the aggregates over its subtree (its
// parent's entry for it) and its page.
struct StaticSRTree::BuildNode {
  Point center;
  double radius = 0.0;
  Rect rect;
  PageId page = kInvalidPageId;
};

void StaticSRTree::SerializeTree(const std::vector<Point>& points,
                                 const std::vector<uint32_t>& oids,
                                 const VamLayout& layout,
                                 std::span<const uint32_t> slots,
                                 std::vector<BuildNode>& pool) {
  // The node list is breadth-first, so numbering pages in its order puts
  // a node's children on consecutive pages, which is what makes the
  // single first_child id sufficient. The tree is balanced, so the leaves
  // come last, on consecutive pages.
  first_leaf_ = kInvalidPageId;
  leaf_count_ = 0;
  for (size_t index = 0; index < layout.nodes.size(); ++index) {
    pool[index].page = file_.Allocate();
    if (layout.nodes[index].level == 0) {
      if (leaf_count_ == 0) first_leaf_ = pool[index].page;
      CHECK_EQ(pool[index].page,
               first_leaf_ + static_cast<PageId>(leaf_count_));
      ++leaf_count_;
    }
  }

  const int dim = options_.dim;
  for (size_t index = 0; index < layout.nodes.size(); ++index) {
    const VamNode& node = layout.nodes[index];
    // Serialized straight into the staged page, zeroed first so the unused
    // tail is defined.
    char* const page = file_.StageWrite(pool[index].page);
    std::memset(page, 0, options_.page_size);
    const size_t count =
        node.level == 0 ? node.range.size() : node.child_count;
    CHECK_GT(count, 0u);
    CHECK_LE(count, node.level == 0 ? leaf_cap_ : node_cap_);
    char* cursor = page + kHeaderBytes;
    if (node.level == 0) {
      const std::span<const uint32_t> items =
          slots.subspan(node.range.begin, count);
      PutSoaHeader(page, 0, count, 0);
      cursor = PutSoaColumn(cursor, dim, count, [&](size_t i) {
        return PointView(points[items[i]]);
      });
      PutSoaArray<uint32_t>(cursor, count,
                            [&](size_t i) { return oids[items[i]]; });
    } else {
      const auto child = [&](size_t i) -> const BuildNode& {
        return pool[node.first_child + i];
      };
      const PageId first_child = child(0).page;
      for (size_t i = 0; i < count; ++i) {
        CHECK_EQ(child(i).page, first_child + static_cast<PageId>(i));
      }
      PutSoaHeader(page, node.level, count, first_child);
      cursor = PutSoaColumn(cursor, dim, count, [&](size_t i) {
        return PointView(child(i).center);
      });
      cursor = PutSoaArray<double>(cursor, count,
                                   [&](size_t i) { return child(i).radius; });
      cursor = PutSoaColumn(cursor, dim, count, [&](size_t i) {
        return PointView(child(i).rect.lo());
      });
      cursor = PutSoaColumn(cursor, dim, count, [&](size_t i) {
        return PointView(child(i).rect.hi());
      });
      PutSoaArray<uint32_t>(cursor, count, [&](size_t i) {
        return static_cast<uint32_t>(
            layout.nodes[node.first_child + i].range.size());
      });
    }
  }
}

Status StaticSRTree::BulkLoad(const std::vector<Point>& points,
                              const std::vector<uint32_t>& oids) {
  RETURN_IF_ERROR(ValidateBulkLoad(points, oids, options_.dim));
  if (size_ != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty index");
  }
  if (points.size() > 0xffffffffull) {
    return Status::InvalidArgument("too many points for 32-bit object slots");
  }
  if (points.empty()) return Status::OK();

  const VamLayout layout(points.size(), leaf_cap_, node_cap_);
  const size_t dim = static_cast<size_t>(options_.dim);
  std::vector<BuildNode> pool(layout.nodes.size());
  for (BuildNode& node : pool) {
    node.center.assign(dim, 0.0);
    node.rect = Rect::Empty(options_.dim);
  }
  // Subtree aggregates from the actual point set: centroid center, exact
  // MBR, and the Section 4.2 radius rule min(d_s, d_r). Every subtree point
  // is inside the MBR, so d_r also bounds all of them — the sphere stays a
  // valid cover even when d_r < d_s. Each runs on one worker, over the
  // node's rows in row order, into the node's own slot of the pool.
  const DistanceKernel& kernel = GetDistanceKernel();
  const auto aggregate = [&](size_t index, const VamLoader::Rows& rows) {
    const VamRange range = layout.nodes[index].range;
    BuildNode& node = pool[index];
    rows.ForEach(range, [&](size_t, PointView p) {
      for (size_t d = 0; d < dim; ++d) node.center[d] += p[d];
      node.rect.Expand(p);
    });
    for (size_t d = 0; d < dim; ++d) {
      node.center[d] /= static_cast<double>(range.size());
    }
    double max_d2 = 0.0;
    rows.ForEach(range, [&](size_t, PointView p) {
      max_d2 = std::max(max_d2, kernel.SquaredL2(node.center, p));
    });
    const double d_s = std::sqrt(max_d2);
    const double d_r = std::sqrt(node.rect.MaxDistSq(node.center));
    node.radius = std::min(d_s, d_r);
  };
  // The loader's memory goes before SerializeTree allocates the pages.
  const std::vector<uint32_t> slots =
      VamLoader::Walk(points, layout, aggregate);
  SerializeTree(points, oids, layout, slots, pool);
  root_id_ = pool[0].page;
  root_level_ = layout.nodes[0].level;
  size_ = points.size();
  PublishBuilt(root_id_, root_level_, size_);
  return Status::OK();
}

Status StaticSRTree::ExportEntries(
    const std::function<void(PointView, uint32_t)>& fn) const {
  return ExportLiveEntries(TombstoneBitmap(), fn);
}

Status StaticSRTree::ExportLiveEntries(
    const TombstoneBitmap& dead,
    const std::function<void(PointView, uint32_t)>& fn) const {
  std::vector<Point> points;
  std::vector<uint32_t> oids;
  for (size_t l = 0; l < leaf_count_; ++l) {
    const PageId id = first_leaf_ + static_cast<PageId>(l);
    DecodeLeaf(file_.PeekPage(id), points, oids);
    for (size_t i = 0; i < points.size(); ++i) {
      if (!dead.Test(SlotOf(id, i))) fn(points[i], oids[i]);
    }
  }
  return Status::OK();
}

Status StaticSRTree::CheckSlot(uint64_t slot) const {
  if (slot / leaf_cap_ >= leaf_count_) {
    return Status::Corruption("tombstone slot names no static-tier leaf");
  }
  const PageId id = first_leaf_ + static_cast<PageId>(slot / leaf_cap_);
  const SoaLeafView leaf = ParseSoaLeaf(file_.PeekPage(id), options_.dim);
  if (slot % leaf_cap_ >= leaf.count) {
    return Status::Corruption("tombstone slot lies past its leaf's count");
  }
  return Status::OK();
}

std::optional<uint64_t> StaticSRTree::FindLiveSlot(
    PointView point, uint32_t oid, const TombstoneBitmap& dead) const {
  if (size_ == 0 || static_cast<int>(point.size()) != options_.dim) {
    return std::nullopt;
  }
  // Rect-guided descent: MBRs are exact over the stored coordinates, so the
  // containment test is exact too (no epsilon). Overlapping siblings mean
  // several children may need probing.
  std::queue<std::pair<PageId, int>> queue;
  queue.push({root_id_, root_level_});
  Point scratch;
  while (!queue.empty()) {
    const auto [id, level] = queue.front();
    queue.pop();
    const char* buf = file_.PeekPage(id);
    if (level == 0) {
      const SoaLeafView leaf = ParseSoaLeaf(buf, options_.dim);
      for (size_t i = 0; i < leaf.count; ++i) {
        if (leaf.oids[i] != oid || dead.Test(SlotOf(id, i))) continue;
        GatherSoaElement(leaf.points, i, scratch);
        if (std::equal(point.begin(), point.end(), scratch.begin())) {
          return SlotOf(id, i);
        }
      }
      continue;
    }
    const SoaInnerView inner = ParseSoaInner(buf, options_.dim);
    for (size_t i = 0; i < inner.count; ++i) {
      bool inside = true;
      for (size_t d = 0; d < point.size() && inside; ++d) {
        const double lo = inner.lo.coords[d * inner.count + i];
        const double hi = inner.hi.coords[d * inner.count + i];
        inside = point[d] >= lo && point[d] <= hi;
      }
      if (inside) {
        queue.push({FirstChild(inner) + static_cast<PageId>(i), level - 1});
      }
    }
  }
  return std::nullopt;
}

// --------------------------------------------------------------------------
// Search
// --------------------------------------------------------------------------

// The static tier's bound policy for the shared traversals
// (src/index/traversal.h) over one pinned version: pages are read in place
// (snap.ReadInPlace) and bounded by the SR MINDIST, max(sphere, rect), in
// distance space; the leaf scan skips entries whose slot is dead (one bit
// test per in-range candidate), so a masked entry can never displace a live
// one from a k-NN result.
struct StaticSRTree::SearchBound {
  static constexpr BoundSpace kSpace = BoundSpace::kDistance;
  const StaticSRTree& tree;
  const PageFile::Snapshot& snap;
  const TombstoneBitmap* dead;  // null when no slot is dead

  // An unbuilt tree's root id is kInvalidPageId, which is empty() too.
  TraversalRoot root() const { return CommittedRoot(snap); }
  void Prefetch(PageId id) const { snap.Prefetch(id); }

  template <typename Offer, typename Child>
  void Expand(PageId id, int level, PointView query, double leaf_bound_sq,
              KernelScratch& scratch, IoStatsDelta* io, Offer&& offer,
              Child&& child) const {
    const char* page = snap.ReadInPlace(id, level, io);
    const int dim = tree.options_.dim;
    if (level == 0) {
      const SoaLeafView leaf = ParseSoaLeaf(page, dim);
      const uint64_t first_slot = tree.SlotOf(id, 0);
      ScanSoaLeaf(leaf, query, leaf_bound_sq, scratch,
                  [&](double d2, size_t i) {
                    if (dead != nullptr && dead->Test(first_slot + i)) return;
                    offer(d2, leaf.oids[i]);
                  });
      return;
    }
    const SoaInnerView inner = ParseSoaInner(page, dim);
    const std::vector<double>& md =
        SrEntryMinDists(inner, query, /*use_rect=*/true, scratch);
    for (size_t i = 0; i < inner.count; ++i) {
      child(md[i], FirstChild(inner) + static_cast<PageId>(i));
    }
  }
};

std::vector<Neighbor> StaticSRTree::SearchSnapshot(
    const PageFile::Snapshot& snap, PointView query, const QuerySpec& spec,
    IoStatsDelta* io, const TombstoneBitmap* dead) const {
  if (dead != nullptr && dead->empty()) dead = nullptr;
  return Traverse(SearchBound{*this, snap, dead}, query, spec, io);
}

void StaticSRTree::KnnSnapshotInto(const PageFile::Snapshot& snap,
                                   PointView query, QueryKind kind,
                                   KnnCandidates& candidates, IoStatsDelta* io,
                                   const TombstoneBitmap* dead) const {
  if (dead != nullptr && dead->empty()) dead = nullptr;
  TraverseKnn(SearchBound{*this, snap, dead}, query, kind, candidates, io);
}

// --------------------------------------------------------------------------
// Stats & validation
// --------------------------------------------------------------------------

std::vector<StaticSRTree::DecodedEntry> StaticSRTree::DecodeInner(
    const char* buf) const {
  const SoaInnerView inner = ParseSoaInner(buf, options_.dim);
  const size_t dim = static_cast<size_t>(options_.dim);
  std::vector<DecodedEntry> entries(inner.count);
  for (size_t i = 0; i < inner.count; ++i) {
    Point center(dim), lo(dim), hi(dim);
    for (size_t d = 0; d < dim; ++d) {
      center[d] = inner.centers.coords[d * inner.count + i];
      lo[d] = inner.lo.coords[d * inner.count + i];
      hi[d] = inner.hi.coords[d * inner.count + i];
    }
    entries[i].sphere = Sphere(std::move(center), inner.radii[i]);
    entries[i].rect = Rect(std::move(lo), std::move(hi));
    entries[i].weight = inner.weights[i];
    entries[i].child = FirstChild(inner) + static_cast<PageId>(i);
  }
  return entries;
}

void StaticSRTree::DecodeLeaf(const char* buf, std::vector<Point>& points,
                              std::vector<uint32_t>& oids) const {
  const SoaLeafView leaf = ParseSoaLeaf(buf, options_.dim);
  points.resize(leaf.count);
  oids.resize(leaf.count);
  for (size_t i = 0; i < leaf.count; ++i) {
    GatherSoaElement(leaf.points, i, points[i]);
    oids[i] = leaf.oids[i];
  }
}

TreeStats StaticSRTree::GetTreeStats() const {
  TreeStats stats;
  if (size_ == 0) return stats;
  stats.height = root_level_ + 1;
  std::queue<std::pair<PageId, int>> queue;
  queue.push({root_id_, root_level_});
  while (!queue.empty()) {
    const auto [id, level] = queue.front();
    queue.pop();
    const char* buf = file_.PeekPage(id);
    if (level == 0) {
      ++stats.leaf_count;
      stats.entry_count += ParseSoaLeaf(buf, options_.dim).count;
      continue;
    }
    ++stats.node_count;
    const SoaInnerView inner = ParseSoaInner(buf, options_.dim);
    for (size_t i = 0; i < inner.count; ++i) {
      queue.push({FirstChild(inner) + static_cast<PageId>(i), level - 1});
    }
  }
  return stats;
}

RegionSummary StaticSRTree::LeafRegionSummary() const {
  RegionStatsCollector collector;
  std::vector<Point> points;
  std::vector<uint32_t> oids;
  for (size_t l = 0; l < leaf_count_; ++l) {
    DecodeLeaf(file_.PeekPage(first_leaf_ + static_cast<PageId>(l)), points,
               oids);
    if (points.empty()) continue;
    collector.CountLeaf();
    Rect bound = Rect::Empty(options_.dim);
    for (const Point& p : points) bound.Expand(p);
    collector.AddRect(bound);
  }
  return collector.Finish();
}

Status StaticSRTree::CheckInvariants() const {
  if (size_ > 0) {
    PageId first_leaf = kInvalidPageId;
    size_t leaf_count = 0;
    RETURN_IF_ERROR(ValidateStructure(&first_leaf, &leaf_count));
    if (first_leaf != first_leaf_ || leaf_count != leaf_count_) {
      return Status::Corruption("static SR-tree leaf run does not match");
    }
  }
  return debug::AuditIndex(*this);
}

void StaticSRTree::VisitNodes(const NodeVisitor& visitor) const {
  if (size_ == 0) return;
  std::vector<int> path;
  VisitSubtree(root_id_, path, visitor);
}

void StaticSRTree::VisitSubtree(PageId id, std::vector<int>& path,
                                const NodeVisitor& visitor) const {
  const char* buf = file_.PeekPage(id);
  const int level = SoaPageLevel(buf);
  NodeView view;
  view.level = level;
  view.min_entries = 0;  // bulk-loaded: no minimum is enforced
  if (level == 0) {
    view.capacity = leaf_cap_;
    std::vector<Point> points;
    std::vector<uint32_t> oids;
    DecodeLeaf(buf, points, oids);
    view.points.reserve(points.size());
    for (const Point& p : points) view.points.push_back(p);
    visitor(path, view);
    return;
  }
  view.capacity = node_cap_;
  const std::vector<DecodedEntry> entries = DecodeInner(buf);
  view.entries.reserve(entries.size());
  for (const DecodedEntry& e : entries) {
    view.entries.push_back(
        EntryView{&e.rect, &e.sphere, e.weight, /*has_weight=*/true});
  }
  visitor(path, view);
  for (size_t i = 0; i < entries.size(); ++i) {
    path.push_back(static_cast<int>(i));
    VisitSubtree(entries[i].child, path, visitor);
    path.pop_back();
  }
}

AuditSpec StaticSRTree::GetAuditSpec() const {
  AuditSpec spec;
  spec.dim = options_.dim;
  spec.rect_semantics = RectSemantics::kExactMbr;
  spec.has_spheres = true;
  spec.sphere_bounded_by_rect = true;
  spec.has_weights = true;
  spec.internal_root_min2 = true;
  return spec;
}

}  // namespace srtree
