#include "src/statictier/static_sr_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <queue>

#include "src/common/check.h"
#include "src/debug/structural_auditor.h"
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

StaticSRTree::StaticSRTree(const Options& options)
    : options_(options), file_(options.page_size) {
  CHECK_GT(options_.dim, 0);
  leaf_cap_ = (options_.page_size - kHeaderBytes) / LeafEntryBytes(options_.dim);
  node_cap_ = (options_.page_size - kHeaderBytes) / InnerEntryBytes(options_.dim);
  CHECK_GE(leaf_cap_, 2u);
  CHECK_GE(node_cap_, 2u);
  // Publish the empty tree so a snapshot acquired before BulkLoad sees
  // coherent metadata (root = invalid, size = 0).
  CommitState();
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
  RETURN_IF_ERROR(file_.LoadFrom(in));
  if (size == 0) {
    if (root_id != kInvalidPageId) {
      return Status::Corruption("empty static SR-tree image names a root");
    }
    root_id_ = kInvalidPageId;
    root_level_ = 0;
    size_ = 0;
    CommitState();
    return Status::OK();
  }
  if (!file_.is_live(root_id)) {
    return Status::Corruption("static SR-tree root page is not live");
  }
  root_id_ = root_id;
  root_level_ = root_level;
  size_ = size;
  RETURN_IF_ERROR(ValidateStructure());
  CommitState();
  return CheckInvariants();
}

Status StaticSRTree::ValidateStructure() const {
  // BFS from the root: every reachable page must be live, carry the level
  // its parent implies, and keep its count within capacity — so the
  // PeekPage-based audit/stats walks can never chase a wild child id.
  struct Item {
    PageId id;
    int level;
  };
  std::queue<Item> queue;
  queue.push({root_id_, root_level_});
  uint64_t points = 0;
  uint64_t visited = 0;
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
// Page views
// --------------------------------------------------------------------------

bool StaticSRTree::Tombstoned(const TombstoneSet* tombstones,
                              const SoaBlock& points, size_t i, uint32_t oid,
                              Point& scratch) const {
  if (tombstones == nullptr || tombstones->empty()) return false;
  GatherSoaElement(points, i, scratch);
  return tombstones->find({scratch, oid}) != tombstones->end();
}

// --------------------------------------------------------------------------
// Construction
// --------------------------------------------------------------------------

Status StaticSRTree::Insert(PointView, uint32_t) {
  return Status::Unimplemented(
      "Static SR-tree is immutable; mutate through a TieredIndex");
}

Status StaticSRTree::Delete(PointView, uint32_t) {
  return Status::Unimplemented(
      "Static SR-tree is immutable; mutate through a TieredIndex");
}

uint64_t StaticSRTree::SubtreeCapacity(int height) const {
  uint64_t cap = leaf_cap_;
  for (int h = 0; h < height; ++h) cap *= node_cap_;
  return cap;
}

// In-memory build node; page ids are assigned by a BFS pass afterwards so
// sibling subtrees land on contiguous pages.
struct StaticSRTree::BuildNode {
  int level = 0;
  std::vector<uint32_t> items;    // leaf: indices into the bulk-load arrays
  std::vector<size_t> children;   // inner: indices into the build pool
  // Aggregates over the node's whole subtree (the parent's entry for it).
  Point center;
  double radius = 0.0;
  Rect rect;
  uint64_t weight = 0;
  PageId page = kInvalidPageId;
};

int StaticSRTree::MaxVarianceDim(const std::vector<Point>& points,
                                 std::span<uint32_t> items) const {
  int best_dim = 0;
  double best_var = -1.0;
  for (int d = 0; d < options_.dim; ++d) {
    double sum = 0.0, sum_sq = 0.0;
    for (const uint32_t i : items) {
      const double x = points[i][static_cast<size_t>(d)];
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

void StaticSRTree::SplitIntoPieces(
    const std::vector<Point>& points, std::span<uint32_t> items,
    uint64_t piece_cap, std::vector<std::span<uint32_t>>& pieces) const {
  if (items.size() <= piece_cap) {
    pieces.push_back(items);
    return;
  }
  const int dim = MaxVarianceDim(points, items);
  // The VAM split point: the multiple of the maximal-subtree capacity
  // closest to the median, so the left side packs full subtrees and the
  // total number of blocks is minimal (White & Jain).
  const uint64_t n = items.size();
  uint64_t mult = static_cast<uint64_t>(std::llround(
      static_cast<double>(n) / 2.0 / static_cast<double>(piece_cap)));
  mult = std::max<uint64_t>(mult, 1);
  uint64_t left = mult * piece_cap;
  if (left >= n) left = ((n - 1) / piece_cap) * piece_cap;
  CHECK_GT(left, 0u);
  CHECK_LT(left, n);

  std::nth_element(items.begin(), items.begin() + static_cast<ptrdiff_t>(left),
                   items.end(), [&](uint32_t a, uint32_t b) {
                     return points[a][static_cast<size_t>(dim)] <
                            points[b][static_cast<size_t>(dim)];
                   });
  SplitIntoPieces(points, items.subspan(0, left), piece_cap, pieces);
  SplitIntoPieces(points, items.subspan(left), piece_cap, pieces);
}

size_t StaticSRTree::BuildSubtree(const std::vector<Point>& points,
                                  std::span<uint32_t> items, int height,
                                  std::vector<BuildNode>& pool) const {
  const DistanceKernel& kernel = GetDistanceKernel();
  BuildNode node;
  node.level = height;
  node.weight = items.size();

  // Subtree aggregates from the actual point set: centroid center, exact
  // MBR, and the Section 4.2 radius rule min(d_s, d_r). Every subtree point
  // is inside the MBR, so d_r also bounds all of them — the sphere stays a
  // valid cover even when d_r < d_s.
  const size_t dim = static_cast<size_t>(options_.dim);
  node.center.assign(dim, 0.0);
  node.rect = Rect::Empty(options_.dim);
  for (const uint32_t i : items) {
    for (size_t d = 0; d < dim; ++d) node.center[d] += points[i][d];
    node.rect.Expand(points[i]);
  }
  for (size_t d = 0; d < dim; ++d) {
    node.center[d] /= static_cast<double>(items.size());
  }
  double max_d2 = 0.0;
  for (const uint32_t i : items) {
    max_d2 = std::max(max_d2, kernel.SquaredL2(node.center, points[i]));
  }
  const double d_s = std::sqrt(max_d2);
  const double d_r = std::sqrt(node.rect.MaxDistSq(node.center));
  node.radius = std::min(d_s, d_r);

  if (height == 0) {
    CHECK_LE(items.size(), leaf_cap_);
    node.items.assign(items.begin(), items.end());
    pool.push_back(std::move(node));
    return pool.size() - 1;
  }

  std::vector<std::span<uint32_t>> pieces;
  SplitIntoPieces(points, items, SubtreeCapacity(height - 1), pieces);
  CHECK_LE(pieces.size(), node_cap_);
  for (const std::span<uint32_t> piece : pieces) {
    node.children.push_back(BuildSubtree(points, piece, height - 1, pool));
  }
  pool.push_back(std::move(node));
  return pool.size() - 1;
}

void StaticSRTree::SerializeTree(const std::vector<Point>& points,
                                 const std::vector<uint32_t>& oids,
                                 std::vector<BuildNode>& pool,
                                 size_t root_index) {
  // BFS numbering: a node's children are enqueued (and therefore allocated)
  // consecutively, which is what makes the single first_child id sufficient.
  std::vector<size_t> order;
  order.reserve(pool.size());
  std::queue<size_t> queue;
  queue.push(root_index);
  while (!queue.empty()) {
    const size_t index = queue.front();
    queue.pop();
    pool[index].page = file_.Allocate();
    order.push_back(index);
    for (const size_t child : pool[index].children) queue.push(child);
  }

  const int dim = options_.dim;
  for (const size_t index : order) {
    const BuildNode& node = pool[index];
    // Serialized straight into the staged page, zeroed first so the unused
    // tail is defined.
    char* const page = file_.StageWrite(node.page);
    std::memset(page, 0, options_.page_size);
    const size_t count =
        node.level == 0 ? node.items.size() : node.children.size();
    CHECK_GT(count, 0u);
    CHECK_LE(count, node.level == 0 ? leaf_cap_ : node_cap_);
    char* cursor = page + kHeaderBytes;
    if (node.level == 0) {
      PutSoaHeader(page, 0, count, 0);
      cursor = PutSoaColumn(cursor, dim, count, [&](size_t i) {
        return PointView(points[node.items[i]]);
      });
      PutSoaArray<uint32_t>(cursor, count,
                            [&](size_t i) { return oids[node.items[i]]; });
    } else {
      const auto child = [&](size_t i) -> const BuildNode& {
        return pool[node.children[i]];
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
        return static_cast<uint32_t>(child(i).weight);
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

  int height = 0;
  while (SubtreeCapacity(height) < points.size()) ++height;

  std::vector<uint32_t> items(points.size());
  std::iota(items.begin(), items.end(), 0);

  std::vector<BuildNode> pool;
  const size_t root_index = BuildSubtree(points, items, height, pool);
  SerializeTree(points, oids, pool, root_index);
  root_id_ = pool[root_index].page;
  root_level_ = height;
  size_ = points.size();
  CommitState();
  return Status::OK();
}

Status StaticSRTree::ExportEntries(
    const std::function<void(PointView, uint32_t)>& fn) const {
  if (size_ == 0) return Status::OK();
  std::vector<Point> points;
  std::vector<uint32_t> oids;
  std::queue<std::pair<PageId, int>> queue;
  queue.push({root_id_, root_level_});
  while (!queue.empty()) {
    const auto [id, level] = queue.front();
    queue.pop();
    const char* buf = file_.PeekPage(id);
    if (level == 0) {
      DecodeLeaf(buf, points, oids);
      for (size_t i = 0; i < points.size(); ++i) fn(points[i], oids[i]);
      continue;
    }
    const SoaInnerView inner = ParseSoaInner(buf, options_.dim);
    for (size_t i = 0; i < inner.count; ++i) {
      queue.push({FirstChild(inner) + static_cast<PageId>(i), level - 1});
    }
  }
  return Status::OK();
}

bool StaticSRTree::Contains(PointView point, uint32_t oid) const {
  if (size_ == 0 || static_cast<int>(point.size()) != options_.dim) {
    return false;
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
        if (leaf.oids[i] != oid) continue;
        GatherSoaElement(leaf.points, i, scratch);
        if (std::equal(point.begin(), point.end(), scratch.begin())) {
          return true;
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
  return false;
}

// --------------------------------------------------------------------------
// Search
// --------------------------------------------------------------------------

template <typename Offer>
void StaticSRTree::ScanLeaf(const SoaLeafView& leaf, PointView query,
                            double bound_sq, KernelScratch& scratch,
                            const TombstoneSet* tombstones,
                            Offer&& offer) const {
  Point gather;
  ScanSoaLeaf(leaf, query, bound_sq, scratch, [&](double d2, size_t i) {
    if (Tombstoned(tombstones, leaf.points, i, leaf.oids[i], gather)) return;
    offer(d2, leaf.oids[i]);
  });
}

void StaticSRTree::SearchKnnDfs(const PageFile::Snapshot& snap, PageId id,
                                int level, PointView query,
                                KnnCandidates& cand, KernelScratch& scratch,
                                IoStatsDelta* io,
                                const TombstoneSet* tombstones) const {
  std::vector<std::pair<double, PageId>> order;
  {
    const QueryPage page = ReadQueryPage(pool_.get(), snap, id, level, io);
    if (level == 0) {
      ScanLeaf(ParseSoaLeaf(page.data, options_.dim), query,
               cand.PruneDistanceSquared(), scratch, tombstones,
               [&](double d2, uint32_t oid) { cand.OfferSquared(d2, oid); });
      return;
    }
    const SoaInnerView inner = ParseSoaInner(page.data, options_.dim);
    const std::vector<double>& mindist =
        SrEntryMinDists(inner, query, /*use_rect=*/true, scratch);
    order.resize(inner.count);
    for (size_t i = 0; i < inner.count; ++i) {
      order[i] = {mindist[i], FirstChild(inner) + static_cast<PageId>(i)};
    }
    std::sort(order.begin(), order.end());
    // The page (pin or snapshot buffer) is released here; everything the
    // recursion needs has been copied into `order`.
  }
  for (const auto& [mindist, child] : order) {
    if (mindist > cand.PruneDistance()) break;
    SearchKnnDfs(snap, child, level - 1, query, cand, scratch, io,
                 tombstones);
  }
}

std::vector<Neighbor> StaticSRTree::KnnDfsSnapshot(
    const PageFile::Snapshot& snap, PointView query, int k, IoStatsDelta* io,
    const TombstoneSet* tombstones) const {
  CHECK_EQ(static_cast<int>(query.size()), options_.dim);
  KnnCandidates candidates(k);
  const PageId root = static_cast<PageId>(snap.meta(0));
  if (snap.meta(2) > 0 && root != kInvalidPageId) {
    KernelScratch scratch;
    SearchKnnDfs(snap, root, static_cast<int>(snap.meta(1)), query,
                 candidates, scratch, io, tombstones);
  }
  return candidates.TakeSorted();
}

std::vector<Neighbor> StaticSRTree::KnnBestFirstSnapshot(
    const PageFile::Snapshot& snap, PointView query, int k, IoStatsDelta* io,
    const TombstoneSet* tombstones) const {
  CHECK_EQ(static_cast<int>(query.size()), options_.dim);
  KnnCandidates candidates(k);
  const PageId root = static_cast<PageId>(snap.meta(0));
  if (snap.meta(2) == 0 || root == kInvalidPageId) {
    return candidates.TakeSorted();
  }

  struct Pending {
    double mindist;
    PageId id;
    int level;
    bool operator>(const Pending& other) const {
      return mindist > other.mindist;
    }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
      frontier;
  KernelScratch scratch;
  frontier.push(Pending{0.0, root, static_cast<int>(snap.meta(1))});
  while (!frontier.empty()) {
    const Pending next = frontier.top();
    frontier.pop();
    if (next.mindist > candidates.PruneDistance()) break;
    const QueryPage page =
        ReadQueryPage(pool_.get(), snap, next.id, next.level, io);
    if (next.level == 0) {
      ScanLeaf(ParseSoaLeaf(page.data, options_.dim), query,
               candidates.PruneDistanceSquared(), scratch, tombstones,
               [&](double d2, uint32_t oid) {
                 candidates.OfferSquared(d2, oid);
               });
      continue;
    }
    const SoaInnerView inner = ParseSoaInner(page.data, options_.dim);
    const std::vector<double>& mindist =
        SrEntryMinDists(inner, query, /*use_rect=*/true, scratch);
    for (size_t i = 0; i < inner.count; ++i) {
      if (mindist[i] <= candidates.PruneDistance()) {
        frontier.push(Pending{mindist[i],
                              FirstChild(inner) + static_cast<PageId>(i),
                              next.level - 1});
      }
    }
  }
  return candidates.TakeSorted();
}

void StaticSRTree::SearchRange(const PageFile::Snapshot& snap, PageId id,
                               int level, PointView query, double radius,
                               std::vector<Neighbor>& out,
                               KernelScratch& scratch, IoStatsDelta* io,
                               const TombstoneSet* tombstones) const {
  std::vector<PageId> hits;
  {
    const QueryPage page = ReadQueryPage(pool_.get(), snap, id, level, io);
    if (level == 0) {
      ScanLeaf(ParseSoaLeaf(page.data, options_.dim), query, radius * radius,
               scratch, tombstones, [&](double d2, uint32_t oid) {
                 out.push_back(Neighbor{std::sqrt(d2), oid});
               });
      return;
    }
    const SoaInnerView inner = ParseSoaInner(page.data, options_.dim);
    const std::vector<double>& mindist =
        SrEntryMinDists(inner, query, /*use_rect=*/true, scratch);
    for (size_t i = 0; i < inner.count; ++i) {
      if (mindist[i] <= radius) {
        hits.push_back(FirstChild(inner) + static_cast<PageId>(i));
      }
    }
  }
  for (const PageId child : hits) {
    SearchRange(snap, child, level - 1, query, radius, out, scratch, io,
                tombstones);
  }
}

std::vector<Neighbor> StaticSRTree::RangeSnapshot(
    const PageFile::Snapshot& snap, PointView query, double radius,
    IoStatsDelta* io, const TombstoneSet* tombstones) const {
  CHECK_EQ(static_cast<int>(query.size()), options_.dim);
  std::vector<Neighbor> result;
  const PageId root = static_cast<PageId>(snap.meta(0));
  if (snap.meta(2) > 0 && root != kInvalidPageId) {
    KernelScratch scratch;
    SearchRange(snap, root, static_cast<int>(snap.meta(1)), query, radius,
                result, scratch, io, tombstones);
  }
  std::sort(result.begin(), result.end());  // canonical (distance, oid)
  return result;
}

std::vector<Neighbor> StaticSRTree::KnnDfsImpl(PointView query, int k,
                                               IoStatsDelta* io) const {
  EpochGuard guard(file_.epochs());
  return KnnDfsSnapshot(file_.AcquireSnapshot(guard), query, k, io, nullptr);
}

std::vector<Neighbor> StaticSRTree::KnnBestFirstImpl(PointView query, int k,
                                                     IoStatsDelta* io) const {
  EpochGuard guard(file_.epochs());
  return KnnBestFirstSnapshot(file_.AcquireSnapshot(guard), query, k, io,
                              nullptr);
}

std::vector<Neighbor> StaticSRTree::RangeImpl(PointView query, double radius,
                                              IoStatsDelta* io) const {
  EpochGuard guard(file_.epochs());
  return RangeSnapshot(file_.AcquireSnapshot(guard), query, radius, io,
                       nullptr);
}

// --------------------------------------------------------------------------
// Snapshot
// --------------------------------------------------------------------------

namespace {

// Snapshot-isolated read view: pins the committed version at acquisition.
// The tree is immutable, so this is mostly about giving composing indexes
// (and the engine) the same snapshot surface the dynamic SR-tree has.
class StaticSnapshot : public IndexSnapshot, public SearchDispatch {
 public:
  explicit StaticSnapshot(const StaticSRTree* tree)
      : IndexSnapshot(tree),
        tree_(tree),
        guard_(tree->epoch_domain()),
        snap_(tree->AcquirePageSnapshot(guard_)) {}

  [[nodiscard]] QueryResult Search(PointView query,
                                   const QuerySpec& spec) const override {
    return RunValidatedSearch(*this, tree_->dim(), query, spec);
  }

  uint64_t version() const override { return snap_.version(); }
  size_t size() const override { return snap_.meta(2); }

  std::vector<Neighbor> KnnDfsImpl(PointView query, int k,
                                   IoStatsDelta* io) const override {
    return tree_->KnnDfsSnapshot(snap_, query, k, io, nullptr);
  }
  std::vector<Neighbor> KnnBestFirstImpl(PointView query, int k,
                                         IoStatsDelta* io) const override {
    return tree_->KnnBestFirstSnapshot(snap_, query, k, io, nullptr);
  }
  std::vector<Neighbor> RangeImpl(PointView query, double radius,
                                  IoStatsDelta* io) const override {
    return tree_->RangeSnapshot(snap_, query, radius, io, nullptr);
  }

 private:
  const StaticSRTree* tree_;
  EpochGuard guard_;  // declared before snap_: released after it
  PageFile::Snapshot snap_;
};

}  // namespace

std::unique_ptr<IndexSnapshot> StaticSRTree::AcquireSnapshot() const {
  return std::make_unique<StaticSnapshot>(this);
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
  if (size_ == 0) return collector.Finish();
  std::queue<std::pair<PageId, int>> queue;
  queue.push({root_id_, root_level_});
  std::vector<Point> points;
  std::vector<uint32_t> oids;
  while (!queue.empty()) {
    const auto [id, level] = queue.front();
    queue.pop();
    const char* buf = file_.PeekPage(id);
    if (level == 0) {
      DecodeLeaf(buf, points, oids);
      if (points.empty()) continue;
      collector.CountLeaf();
      Rect bound = Rect::Empty(options_.dim);
      for (const Point& p : points) bound.Expand(p);
      collector.AddRect(bound);
      continue;
    }
    const SoaInnerView inner = ParseSoaInner(buf, options_.dim);
    for (size_t i = 0; i < inner.count; ++i) {
      queue.push({FirstChild(inner) + static_cast<PageId>(i), level - 1});
    }
  }
  return collector.Finish();
}

Status StaticSRTree::CheckInvariants() const {
  if (size_ > 0) RETURN_IF_ERROR(ValidateStructure());
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
