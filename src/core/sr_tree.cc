#include "src/core/sr_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>

#include "src/common/check.h"
#include "src/debug/structural_auditor.h"
#include "src/geometry/kernel.h"
#include "src/index/soa_page.h"
#include "src/index/traversal.h"
#include "src/storage/image_io.h"

namespace srtree {
namespace {

constexpr size_t kHeaderBytes = kSoaPageHeaderBytes;

// Relative slack for floating-point containment checks: radii are computed
// by the same arithmetic as the distances they bound, but triangle-
// inequality chains can be off by a few ulps.
constexpr double kEps = 1e-9;

// Stored bytes of one leaf entry: the point and its oid. A leaf entry also
// reserves leaf_data_size bytes of attribute data, which count toward the
// leaf capacity (Table 1) but are never stored.
size_t LeafEntryBytes(size_t dim) {
  return dim * sizeof(double) + sizeof(uint32_t);
}

// center + radius + rect(lo,hi) + weight + child: the SR entry is three
// times the SS-tree's (no rect) and one and a half times the R*-tree's
// (Section 5.3).
size_t InnerEntryBytes(size_t dim, SRTree::Region region) {
  const size_t rect = region == SRTree::Region::kSphereAndRect
                          ? 2 * dim * sizeof(double)
                          : 0;
  return dim * sizeof(double) + sizeof(double) + rect + 2 * sizeof(uint32_t);
}

// Element `i` of a dim-major block equals `p`, coordinate for coordinate.
bool SoaElementEquals(const SoaBlock& block, size_t i, PointView p) {
  for (size_t d = 0; d < p.size(); ++d) {
    if (block.coords[d * block.count + i] != p[d]) return false;
  }
  return true;
}

// Rect::Contains on entry `i`'s rectangle, read from the page.
bool SoaRectContains(const SoaInnerView& inner, size_t i, PointView p) {
  for (size_t d = 0; d < p.size(); ++d) {
    const size_t at = d * inner.count + i;
    if (p[d] < inner.lo.coords[at] || p[d] > inner.hi.coords[at]) return false;
  }
  return true;
}

}  // namespace

SRTree::Options SRTree::Validated(const Options& options) {
  CHECK_GT(options.dim, 0);
  CHECK_GT(options.min_utilization, 0.0);
  CHECK_LE(options.min_utilization, 0.5);
  CHECK_GT(options.reinsert_fraction, 0.0);
  CHECK_LT(options.reinsert_fraction, 1.0);
  // A sphere-only region stores no rectangle for either rule to use.
  CHECK(options.region == Region::kSphereAndRect ||
        (!options.use_rect_in_radius && !options.use_rect_in_mindist));
  return options;
}

size_t SRTree::LeafCapacityFor(const Options& options) {
  const size_t dim = static_cast<size_t>(options.dim);
  return (options.page_size - kHeaderBytes) /
         (LeafEntryBytes(dim) + options.leaf_data_size);
}

size_t SRTree::NodeCapacityFor(const Options& options) {
  const size_t dim = static_cast<size_t>(options.dim);
  return (options.page_size - kHeaderBytes) /
         InnerEntryBytes(dim, options.region);
}

SRTree::SRTree(const Options& options)
    : PagedIndex(options.page_size),
      options_(Validated(options)),
      leaf_cap_(LeafCapacityFor(options_)),
      node_cap_(NodeCapacityFor(options_)),
      leaf_min_(std::max<size_t>(
          1, static_cast<size_t>(options_.min_utilization * leaf_cap_))),
      node_min_(std::max<size_t>(
          1, static_cast<size_t>(options_.min_utilization * node_cap_))),
      dist_(std::max(leaf_cap_, node_cap_)) {
  CHECK_GE(leaf_cap_, 2u);
  CHECK_GE(node_cap_, 2u);

  // No other thread can hold a reference yet, but the analysis (correctly)
  // demands the lock for the guarded members and the REQUIRES helpers.
  MutexLock lock(writer_mu_);
  Node root;
  root.id = file_.Allocate();
  root.level = 0;
  WriteNode(root);
  root_id_ = root.id;
  CommitState();  // publish the empty tree as the first real version
}


// --------------------------------------------------------------------------
// Persistence
// --------------------------------------------------------------------------

namespace {

// v2 header record embedded in the SRIX container (src/storage/image_io.h);
// the container carries the magic, tag, and a CRC32C over these bytes.
struct SrImageHeader {
  int32_t dim;
  uint64_t page_size;
  uint64_t leaf_data_size;
  double min_utilization;
  double reinsert_fraction;
  uint8_t use_rect_in_radius;
  uint8_t use_rect_in_mindist;
  // kSoaPageLayout. Images written before pages went dimension-major carry
  // 0 here (the byte was padding, always zeroed).
  uint8_t page_layout;
  // SRTree::Region; images written before the SS-tree shared this header
  // carry 0 (the byte was padding), the sphere-and-rect region.
  uint8_t region;
  uint8_t pad[4];
  uint32_t root_id;
  int32_t root_level;
  uint64_t size;
};

constexpr uint8_t kRowMajorPageLayout = 0;
constexpr uint8_t kSoaPageLayout = 1;

// Size of the header record the SS-tree wrote before it shared this one,
// when its pages were row-major.
constexpr size_t kRowMajorSsHeaderBytes = 56;

// True iff `o` would pass every constructor CHECK, so Open() can reject a
// forged header with Corruption instead of crashing the process. The
// negated-range form also rejects NaN utilization/fraction values.
bool PlausibleOptions(const SRTree::Options& o) {
  if (o.dim <= 0 || o.dim > (1 << 16)) return false;
  if (!(o.min_utilization > 0.0 && o.min_utilization <= 0.5)) return false;
  if (!(o.reinsert_fraction > 0.0 && o.reinsert_fraction < 1.0)) return false;
  if (o.page_size <= kHeaderBytes || o.page_size > (1u << 28)) return false;
  if (o.leaf_data_size > o.page_size) return false;
  if (o.region == SRTree::Region::kSphere &&
      (o.use_rect_in_radius || o.use_rect_in_mindist)) {
    return false;
  }
  const size_t dim = static_cast<size_t>(o.dim);
  const size_t usable = o.page_size - kHeaderBytes;
  return usable / (LeafEntryBytes(dim) + o.leaf_data_size) >= 2 &&
         usable / InnerEntryBytes(dim, o.region) >= 2;
}

}  // namespace

Status SRTree::Save(const std::string& path) const {
  MutexLock lock(writer_mu_);
  SrImageHeader header = {};
  header.dim = options_.dim;
  header.page_size = options_.page_size;
  header.leaf_data_size = options_.leaf_data_size;
  header.min_utilization = options_.min_utilization;
  header.reinsert_fraction = options_.reinsert_fraction;
  header.use_rect_in_radius = options_.use_rect_in_radius ? 1 : 0;
  header.use_rect_in_mindist = options_.use_rect_in_mindist ? 1 : 0;
  header.page_layout = kSoaPageLayout;
  header.region = static_cast<uint8_t>(options_.region);
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
StatusOr<std::unique_ptr<Tree>> SRTree::OpenImage(const std::string& path) {
  StatusOr<std::string> tag = PeekIndexImageTag(path);
  if (!tag.ok()) return tag.status();

  SrImageHeader header = {};
  IndexImageFile image;
  if (*tag == "legacy-sr-v1") {
    // The pre-v2 compatibility window ("one release") has closed; the
    // host-endian unvalidated v1 header was the last unchecksummed load
    // path. Fail loudly instead of misreading the bytes.
    return Status::InvalidArgument(
        "pre-v2 SR-tree image is no longer readable; re-save with v2 "
        "(PointIndex::Save) using a release that still reads it");
  }
  const Status opened =
      image.Open(path, Tree::kImageTag, &header, sizeof(header));
  if (!opened.ok()) {
    if (*tag == SSTree::kImageTag &&
        image.stored_header_size() == kRowMajorSsHeaderBytes) {
      return Status::InvalidArgument(
          "SS-tree image uses the retired row-major page layout, which this "
          "release cannot read; rebuild the index from its points and re-save "
          "it");
    }
    return opened;
  }
  if (header.page_layout == kRowMajorPageLayout) {
    return Status::InvalidArgument(
        "SR-tree image uses the retired row-major page layout, which this "
        "release cannot read; rebuild the index from its points and re-save "
        "it");
  }
  if (header.page_layout != kSoaPageLayout) {
    return Status::Corruption("unknown SR-tree page layout");
  }

  Options options;
  options.dim = header.dim;
  options.page_size = header.page_size;
  options.leaf_data_size = header.leaf_data_size;
  options.min_utilization = header.min_utilization;
  options.reinsert_fraction = header.reinsert_fraction;
  options.region = static_cast<Region>(header.region);
  options.use_rect_in_radius = header.use_rect_in_radius != 0;
  options.use_rect_in_mindist = header.use_rect_in_mindist != 0;
  if (header.region > static_cast<uint8_t>(Region::kSphere) ||
      !PlausibleOptions(options) || header.root_level < 0 ||
      header.root_level > 64) {
    return Status::Corruption("implausible SR-tree header");
  }
  auto tree = std::make_unique<Tree>(options);
  if (tree->options_.region != options.region) {
    return Status::Corruption("SR-tree image region does not match its tag");
  }
  RETURN_IF_ERROR(tree->file_.LoadFrom(image.stream()));
  {
    // LoadFrom leaves the restored contents unpublished; once the page
    // structure checks out, commit them under the restored metadata so
    // snapshots serve the reopened tree.
    MutexLock lock(tree->writer_mu_);
    tree->root_id_ = header.root_id;
    tree->root_level_ = header.root_level;
    tree->size_ = header.size;
    tree->maintenance_ = MaintenanceStats{};
    const size_t dim = static_cast<size_t>(options.dim);
    RETURN_IF_ERROR(tree->ValidatePageTree(
        tree->name(), tree->root_id_, tree->root_level_, tree->size_,
        {.leaf_capacity = tree->leaf_cap_,
         .node_capacity = tree->node_cap_,
         .leaf_entry_bytes = LeafEntryBytes(dim),
         .node_entry_bytes = InnerEntryBytes(dim, options.region),
         .soa = true}));
    tree->CommitState();
  }
  RETURN_IF_ERROR(tree->CheckInvariants());
  return tree;
}

StatusOr<std::unique_ptr<SRTree>> SRTree::Open(const std::string& path) {
  return OpenImage<SRTree>(path);
}

StatusOr<std::unique_ptr<SSTree>> SSTree::Open(const std::string& path) {
  return OpenImage<SSTree>(path);
}

// --------------------------------------------------------------------------
// Page I/O
// --------------------------------------------------------------------------

size_t SRTree::NodeBytes(int level, size_t count) const {
  const size_t dim = static_cast<size_t>(options_.dim);
  return kHeaderBytes +
         count * (level == 0 ? LeafEntryBytes(dim)
                             : InnerEntryBytes(dim, options_.region));
}

void SRTree::SerializeNode(const Node& node, char* buf) const {
  // Entry by entry through the same slot writers that edit pages in place,
  // so there is one encoding of the layout.
  const size_t count = node.count();
  CHECK_LE(count, Capacity(node));
  PutSoaHeader(buf, node.level, count, 0);
  for (size_t i = 0; i < count; ++i) {
    if (node.is_leaf()) {
      PutLeafEntry(buf, count, i, node.points[i]);
    } else {
      PutInnerEntry(buf, count, i, node.children[i]);
    }
  }
}

void SRTree::DecodeNode(const char* buf, PageId id, Node& node) const {
  node.id = id;
  node.level = SoaPageLevel(buf);
  if (node.level == 0) {
    const SoaLeafView leaf = ParseSoaLeaf(buf, options_.dim);
    node.children.clear();
    node.points.resize(leaf.count);
    for (size_t i = 0; i < leaf.count; ++i) {
      GatherSoaElement(leaf.points, i, node.points[i].point);
      node.points[i].oid = leaf.oids[i];
    }
    return;
  }
  const SoaInnerView inner = ParseSoaInner(buf, options_.dim, has_rects());
  node.points.clear();
  node.children.resize(inner.count);
  for (size_t i = 0; i < inner.count; ++i) {
    NodeEntry& e = node.children[i];
    GatherSoaElement(inner.centers, i, e.sphere.mutable_center());
    e.sphere.set_radius(inner.radii[i]);
    e.weight = inner.weights[i];
    e.child = inner.tail[i];
  }
  if (!has_rects()) return;
  for (size_t i = 0; i < inner.count; ++i) {
    NodeEntry& e = node.children[i];
    GatherSoaElement(inner.lo, i, e.rect.mutable_lo());
    GatherSoaElement(inner.hi, i, e.rect.mutable_hi());
  }
}

SRTree::Node SRTree::DeserializeNode(const char* buf, PageId id) const {
  Node node;
  DecodeNode(buf, id, node);
  return node;
}

SRTree::Node SRTree::PeekNode(PageId id) const {
  return DeserializeNode(file_.PeekPage(id), id);
}

void SRTree::WriteNode(const Node& node) {
  // Serialized straight into the staged buffer, sized to exactly the bytes
  // the node uses, which SerializeNode fills completely. Copy-on-write
  // staging keeps snapshots on the committed buffer: staging a shared page
  // moves this id to a fresh one.
  SerializeNode(node, file_.StageWrite(node.id,
                                       NodeBytes(node.level, node.count())));
}

void SRTree::CommitState() {
  CommitRoot(root_id_, root_level_, size_);
}

// --------------------------------------------------------------------------
// Page edits
// --------------------------------------------------------------------------

size_t SRTree::DoubleRows(int level) const {
  const size_t dim = static_cast<size_t>(options_.dim);
  if (level == 0) return dim;  // the coordinates
  // centers, radii and, in the sphere-and-rect region, rect lo and hi
  return dim + 1 + (has_rects() ? 2 * dim : 0);
}

size_t SRTree::PageCount(const char* page, int level) const {
  return level == 0 ? ParseSoaLeaf(page, options_.dim).count
                    : ParseSoaInner(page, options_.dim, has_rects()).count;
}

void SRTree::PutLeafEntry(char* page, size_t count, size_t slot,
                          const LeafEntry& e) const {
  double* coords = reinterpret_cast<double*>(page + kHeaderBytes);
  const size_t dim = static_cast<size_t>(options_.dim);
  for (size_t d = 0; d < dim; ++d) coords[d * count + slot] = e.point[d];
  reinterpret_cast<uint32_t*>(coords + dim * count)[slot] = e.oid;
}

void SRTree::PutInnerEntry(char* page, size_t count, size_t slot,
                           const NodeEntry& e) const {
  double* row = reinterpret_cast<double*>(page + kHeaderBytes);
  const size_t dim = static_cast<size_t>(options_.dim);
  const auto put_column = [&](PointView p) {
    for (size_t d = 0; d < dim; ++d) row[d * count + slot] = p[d];
    row += dim * count;
  };
  put_column(e.sphere.center());
  row[slot] = e.sphere.radius();
  row += count;
  if (has_rects()) {
    put_column(e.rect.lo());
    put_column(e.rect.hi());
  }
  uint32_t* words = reinterpret_cast<uint32_t*>(row);
  words[slot] = e.weight;
  words[count + slot] = e.child;
}

template <typename Fill>
void SRTree::StageGrown(PageId id, int level, Fill&& fill) {
  // The old bytes go to scratch first: when this mutation already wrote the
  // page, staging it at another extent frees its buffer.
  const char* old = file_.PeekPage(id);
  const size_t count = PageCount(old, level);
  page_copy_.assign(old, old + NodeBytes(level, count));
  char* page = file_.StageWrite(id, NodeBytes(level, count + 1));
  PutSoaHeader(page, level, count + 1, 0);
  const char* from = page_copy_.data() + kHeaderBytes;
  char* to = page + kHeaderBytes;
  const auto relay = [&](size_t rows, size_t bytes) {
    for (; rows > 0; --rows) {
      std::memcpy(to, from, count * bytes);
      to += (count + 1) * bytes;
      from += count * bytes;
    }
  };
  relay(DoubleRows(level), sizeof(double));
  relay(WordRows(level), sizeof(uint32_t));
  fill(page, count + 1);
}

// --------------------------------------------------------------------------
// Region helpers
// --------------------------------------------------------------------------

namespace {

// The centroid of `count` entries into `out`: per dimension, each entry's
// coordinate coord_of(i, d) times its weight weight_of(i), summed in entry
// order, then divided by the total weight, which it returns. A leaf point
// weighs 1 (and 1.0 * x is x, so its sum is the plain one).
template <typename CoordOf, typename WeightOf>
uint32_t WeightedCentroid(size_t dim, size_t count, CoordOf&& coord_of,
                          WeightOf&& weight_of, Point& out) {
  uint64_t total = 0;
  for (size_t i = 0; i < count; ++i) total += weight_of(i);
  CHECK_GT(total, 0u);
  out.assign(dim, 0.0);
  for (size_t d = 0; d < dim; ++d) {
    double sum = 0.0;
    for (size_t i = 0; i < count; ++i) {
      sum += static_cast<double>(weight_of(i)) * coord_of(i, d);
    }
    out[d] = sum / static_cast<double>(total);
  }
  return static_cast<uint32_t>(total);
}

// The exact MBR of the boxes [lo_i, hi_i] (points when lo and hi are the
// same block), folded in entry order as Rect::Expand does.
void SoaBounds(const SoaBlock& lo, const SoaBlock& hi, Rect& out) {
  const size_t dim = static_cast<size_t>(lo.dim);
  Point& out_lo = out.mutable_lo();
  Point& out_hi = out.mutable_hi();
  out_lo.assign(dim, std::numeric_limits<double>::infinity());
  out_hi.assign(dim, -std::numeric_limits<double>::infinity());
  for (size_t d = 0; d < dim; ++d) {
    const double* lo_row = lo.coords + d * lo.count;
    const double* hi_row = hi.coords + d * hi.count;
    for (size_t i = 0; i < lo.count; ++i) {
      out_lo[d] = std::min(out_lo[d], lo_row[i]);
      out_hi[d] = std::max(out_hi[d], hi_row[i]);
    }
  }
}

// out[i] = Rect::MaxDistSq from `q` to the box [lo_i, hi_i]: the squared
// distance to its farthest corner, summed over ascending dimensions.
void MaxDistSqToMany(PointView q, const SoaBlock& lo, const SoaBlock& hi,
                     double* out) {
  std::fill_n(out, lo.count, 0.0);
  for (size_t d = 0; d < q.size(); ++d) {
    const double qd = q[d];
    const double* lo_row = lo.coords + d * lo.count;
    const double* hi_row = hi.coords + d * hi.count;
    for (size_t i = 0; i < lo.count; ++i) {
      const double diff =
          std::max(std::abs(qd - lo_row[i]), std::abs(hi_row[i] - qd));
      out[i] += diff * diff;
    }
  }
}

}  // namespace

void SRTree::ComputeEntry(PageId id, NodeEntry& entry) const {
  const char* page = file_.PeekPage(id);
  const DistanceKernel& kernel = GetDistanceKernel();
  const size_t dim = static_cast<size_t>(options_.dim);
  // A sphere-only region keeps no rectangle, so it skips the MBR and d_r.
  const bool rects = has_rects();
  Point& center = entry.sphere.mutable_center();
  double d_s = 0.0;  // reach of the child spheres from the new center
  double d_r = 0.0;  // reach of the child rectangles from the new center
  if (SoaPageLevel(page) == 0) {
    const SoaLeafView leaf = ParseSoaLeaf(page, options_.dim);
    DCHECK_LE(leaf.count, dist_.size());
    const double* coords = leaf.points.coords;
    entry.weight = WeightedCentroid(
        dim, leaf.count,
        [&](size_t i, size_t d) { return coords[d * leaf.count + i]; },
        [](size_t) { return 1u; }, center);
    kernel.SquaredL2ToMany(center, leaf.points, dist_.data());
    for (size_t i = 0; i < leaf.count; ++i) {
      d_s = std::max(d_s, std::sqrt(dist_[i]));
    }
    d_r = d_s;  // a point is its own rectangle
    if (rects) SoaBounds(leaf.points, leaf.points, entry.rect);
  } else {
    const SoaInnerView inner = ParseSoaInner(page, options_.dim, rects);
    DCHECK_LE(inner.count, dist_.size());
    const double* centers = inner.centers.coords;
    entry.weight = WeightedCentroid(
        dim, inner.count,
        [&](size_t i, size_t d) { return centers[d * inner.count + i]; },
        [&](size_t i) { return inner.weights[i]; }, center);
    kernel.SquaredL2ToMany(center, inner.centers, dist_.data());
    for (size_t i = 0; i < inner.count; ++i) {
      d_s = std::max(d_s, std::sqrt(dist_[i]) + inner.radii[i]);
    }
    if (rects) {
      SoaBounds(inner.lo, inner.hi, entry.rect);
      MaxDistSqToMany(center, inner.lo, inner.hi, dist_.data());
      for (size_t i = 0; i < inner.count; ++i) {
        d_r = std::max(d_r, std::sqrt(dist_[i]));
      }
    }
  }
  // Section 4.2: the radius is min(d_s, d_r). Both bound every point of the
  // subtree, so the smaller one still covers them while shrinking the
  // sphere below what the SS-tree would use.
  entry.sphere.set_radius(options_.use_rect_in_radius ? std::min(d_s, d_r)
                                                      : d_s);
  entry.child = id;
}

PointView SRTree::EntryCentroid(const Node& node, size_t i) const {
  return node.is_leaf() ? PointView(node.points[i].point)
                        : PointView(node.children[i].sphere.center());
}

// --------------------------------------------------------------------------
// Insertion
// --------------------------------------------------------------------------

Status SRTree::InsertLocked(PointView point, uint32_t oid) {
  reinserted_nodes_.clear();
  std::deque<Pending> pending;
  Pending item;
  item.level = 0;
  item.leaf = LeafEntry{Point(point.begin(), point.end()), oid};
  pending.push_back(std::move(item));
  ProcessPending(pending);
  ++size_;
  // One atomic publish per insert: concurrent snapshots see the whole
  // mutation (splits, reinserts, root growth included) or none of it.
  CommitState();
  return Status::OK();
}

void SRTree::ProcessPending(std::deque<Pending>& pending) {
  while (!pending.empty()) {
    Pending item = std::move(pending.front());
    pending.pop_front();
    InsertPending(item, pending);
  }
}

void SRTree::InsertPending(const Pending& item, std::deque<Pending>& pending) {
  const PointView centroid =
      item.level == 0 ? PointView(item.leaf.point)
                      : PointView(item.node.sphere.center());
  CHECK_LE(item.level, root_level_);

  // The descent reads each page on the path in place, one counted read per
  // page, and keeps only its id and the entry taken.
  path_ids_.clear();
  path_idx_.clear();
  PageId id = root_id_;
  const char* page = file_.ReadInPlace(id, root_level_);
  for (int level = root_level_; level > item.level; --level) {
    DCHECK_EQ(SoaPageLevel(page), level);
    path_ids_.push_back(id);
    const SoaInnerView inner = ParseSoaInner(page, options_.dim, has_rects());
    const int i = ChooseSubtree(inner, centroid);
    path_idx_.push_back(i);
    id = inner.tail[i];
    page = file_.ReadInPlace(id, level - 1);
  }
  path_ids_.push_back(id);
  const int last = root_level_ - item.level;
  const size_t capacity = item.level == 0 ? leaf_cap_ : node_cap_;
  if (PageCount(page, item.level) < capacity) {
    StageGrown(id, item.level, [&](char* grown, size_t count) {
      if (item.level == 0) {
        PutLeafEntry(grown, count, count - 1, item.leaf);
      } else {
        PutInnerEntry(grown, count, count - 1, item.node);
      }
    });
    RefreshPath(last);
    return;
  }
  // Only an overflowing node is decoded: its capacity + 1 entries fit no
  // page.
  DecodeNode(page, id, overflow_);
  if (item.level == 0) {
    overflow_.points.push_back(item.leaf);
  } else {
    overflow_.children.push_back(item.node);
  }
  ResolveOverflow(last, pending);
}

int SRTree::ChooseSubtree(const SoaInnerView& inner,
                          PointView centroid) const {
  // One batched pass over the center column. The kernel sums each entry in
  // ascending dimensions with one accumulator, as SquaredL2 does, so the
  // distances are bit-identical to pairwise ones.
  DCHECK_LE(inner.count, dist_.size());
  GetDistanceKernel().SquaredL2ToMany(centroid, inner.centers, dist_.data());
  int best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < inner.count; ++i) {
    if (dist_[i] < best_dist) {
      best_dist = dist_[i];
      best = static_cast<int>(i);
    }
  }
  return best;
}

void SRTree::RefreshPath(int from) {
  for (int j = from - 1; j >= 0; --j) {
    ComputeEntry(path_ids_[j + 1], entry_);
    char* page = file_.StagePatch(path_ids_[j]);
    PutInnerEntry(page, PageCount(page, root_level_ - j),
                  static_cast<size_t>(path_idx_[j]), entry_);
  }
}

void SRTree::ResolveOverflow(int from, std::deque<Pending>& pending) {
  Node& n = overflow_;
  for (int i = from;; --i) {
    const bool is_root = (i == 0);
    if (!is_root && reinserted_nodes_.insert(n.id).second) {
      std::vector<Pending> removed = RemoveForReinsert(n);
      WriteNode(n);
      RefreshPath(i);
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
    NodeEntry right_entry;
    ComputeEntry(n.id, entry_);
    ComputeEntry(right.id, right_entry);
    const PageId parent = path_ids_[i - 1];
    const int level = n.level + 1;
    const size_t slot = static_cast<size_t>(path_idx_[i - 1]);
    if (PageCount(file_.PeekPage(parent), level) < node_cap_) {
      StageGrown(parent, level, [&](char* grown, size_t count) {
        PutInnerEntry(grown, count, slot, entry_);
        PutInnerEntry(grown, count, count - 1, right_entry);
      });
      RefreshPath(i - 1);
      return;
    }
    // The parent overflows in turn.
    DecodeNode(file_.PeekPage(parent), parent, n);
    n.children[slot] = entry_;
    n.children.push_back(std::move(right_entry));
  }
}

std::vector<SRTree::Pending> SRTree::RemoveForReinsert(Node& node) {
  ++maintenance_.reinsertions;
  const size_t total = node.count();
  size_t evict = static_cast<size_t>(
      std::lround(options_.reinsert_fraction * static_cast<double>(total)));
  evict = std::clamp<size_t>(evict, 1, total - MinEntries(node));

  Point centroid;
  if (node.is_leaf()) {
    WeightedCentroid(
        static_cast<size_t>(options_.dim), total,
        [&](size_t i, size_t d) { return node.points[i].point[d]; },
        [](size_t) { return 1u; }, centroid);
  } else {
    WeightedCentroid(
        static_cast<size_t>(options_.dim), total,
        [&](size_t i, size_t d) { return node.children[i].sphere.center()[d]; },
        [&](size_t i) { return node.children[i].weight; }, centroid);
  }
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

SRTree::Node SRTree::SplitNode(Node& node) {
  ++maintenance_.splits;
  const size_t total = node.count();
  const size_t m = MinEntries(node);
  CHECK_GE(total, 2 * m);

  // The SR-tree inherits the SS-tree split: dimension of highest centroid
  // variance, position of least summed variance (Section 4.2).
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

void SRTree::GrowRoot(Node& left, Node& right) {
  WriteNode(left);
  WriteNode(right);
  Node root;
  root.id = file_.Allocate();
  root.level = left.level + 1;
  root.children.resize(2);
  ComputeEntry(left.id, root.children[0]);
  ComputeEntry(right.id, root.children[1]);
  WriteNode(root);
  root_id_ = root.id;
  root_level_ = root.level;
}

// --------------------------------------------------------------------------
// Deletion
// --------------------------------------------------------------------------

Status SRTree::DeleteLocked(PointView point, uint32_t oid) {
  std::vector<PageId> ids;
  std::vector<int> idx;
  Point center;
  if (!FindLeafPath(root_id_, root_level_, point, oid, ids, idx, center)) {
    // Nothing staged, nothing committed: the version number advances only
    // on successful mutations.
    return Status::NotFound("point not present");
  }
  // Only the nodes on the returned path are decoded (the search already
  // counted their reads).
  std::vector<Node> path(ids.size());
  for (size_t j = 0; j < ids.size(); ++j) {
    DecodeNode(file_.PeekPage(ids[j]), ids[j], path[j]);
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
  CommitState();
  return Status::OK();
}

bool SRTree::FindLeafPath(PageId id, int level, PointView point, uint32_t oid,
                          std::vector<PageId>& ids, std::vector<int>& idx,
                          Point& center) {
  const char* page = file_.ReadInPlace(id, level);
  DCHECK_EQ(SoaPageLevel(page), level);
  ids.push_back(id);
  if (level == 0) {
    const SoaLeafView leaf = ParseSoaLeaf(page, options_.dim);
    for (size_t i = 0; i < leaf.count; ++i) {
      if (leaf.oids[i] == oid && SoaElementEquals(leaf.points, i, point)) {
        return true;
      }
    }
  } else {
    // The page stays valid across the recursion: the search stages nothing.
    const bool rects = has_rects();
    const SoaInnerView inner = ParseSoaInner(page, options_.dim, rects);
    for (size_t i = 0; i < inner.count; ++i) {
      if (rects && !SoaRectContains(inner, i, point)) continue;
      GatherSoaElement(inner.centers, i, center);
      if (GetDistanceKernel().L2(center, point) >
          inner.radii[i] * (1.0 + kEps) + kEps) {
        continue;
      }
      idx.push_back(static_cast<int>(i));
      if (FindLeafPath(inner.tail[i], level - 1, point, oid, ids, idx,
                       center)) {
        return true;
      }
      idx.pop_back();
    }
  }
  ids.pop_back();
  return false;
}

void SRTree::CondenseTree(std::vector<Node>& path, std::vector<int>& idx) {
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
      ComputeEntry(n.id, parent.children[idx[i - 1]]);
    }
  }
  WriteNode(path[0]);

  reinserted_nodes_.clear();
  ProcessPending(orphans);
}

void SRTree::ShrinkRoot() {
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

// The SR-tree's bound policy for the shared traversals
// (src/index/traversal.h) over one pinned version: every page is read in
// place (snap.ReadInPlace) and bounded by the Section 4.4 MINDIST,
// max(sphere, rect), in distance space (SrEntryMinDists).
struct SRTree::SearchBound {
  static constexpr BoundSpace kSpace = BoundSpace::kDistance;
  const SRTree& tree;
  const PageFile::Snapshot& snap;

  TraversalRoot root() const { return CommittedRoot(snap); }
  void Prefetch(PageId id) const { snap.Prefetch(id); }

  template <typename Offer, typename Child>
  void Expand(PageId id, int level, PointView query, double leaf_bound_sq,
              KernelScratch& scratch, IoStatsDelta* io, Offer&& offer,
              Child&& child) const {
    const char* page = snap.ReadInPlace(id, level, io);
    DCHECK_EQ(SoaPageLevel(page), level);
    if (level == 0) {
      const SoaLeafView leaf = ParseSoaLeaf(page, tree.options_.dim);
      ScanSoaLeaf(leaf, query, leaf_bound_sq, scratch,
                  [&](double d2, size_t i) { offer(d2, leaf.oids[i]); });
      return;
    }
    const SoaInnerView inner =
        ParseSoaInner(page, tree.options_.dim, tree.has_rects());
    const std::vector<double>& md = SrEntryMinDists(
        inner, query, tree.options_.use_rect_in_mindist, scratch);
    for (size_t i = 0; i < inner.count; ++i) child(md[i], inner.tail[i]);
  }
};

std::vector<Neighbor> SRTree::SearchSnapshot(const PageFile::Snapshot& snap,
                                             PointView query,
                                             const QuerySpec& spec,
                                             IoStatsDelta* io) const {
  return Traverse(SearchBound{*this, snap}, query, spec, io);
}

void SRTree::KnnSnapshotInto(const PageFile::Snapshot& snap, PointView query,
                             QueryKind kind, KnnCandidates& candidates,
                             IoStatsDelta* io) const {
  TraverseKnn(SearchBound{*this, snap}, query, kind, candidates, io);
}

// --------------------------------------------------------------------------
// Stats & validation
// --------------------------------------------------------------------------

TreeStats SRTree::GetTreeStats() const {
  MutexLock lock(writer_mu_);
  TreeStats stats;
  stats.height = root_level_ + 1;
  CollectStats(PeekNode(root_id_), stats);
  return stats;
}

void SRTree::CollectStats(const Node& node, TreeStats& stats) const {
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

RegionSummary SRTree::LeafRegionSummary() const {
  MutexLock lock(writer_mu_);
  RegionStatsCollector collector;
  CollectRegions(PeekNode(root_id_), collector);
  return collector.Finish();
}

void SRTree::CollectRegions(const Node& node,
                            RegionStatsCollector& collector) const {
  if (node.is_leaf()) {
    if (node.points.empty()) return;
    collector.CountLeaf();
    NodeEntry entry;
    ComputeEntry(node.id, entry);
    collector.AddSphere(entry.sphere);
    // The exact MBR, which a sphere-only tree measures without storing.
    Rect bound = Rect::Empty(options_.dim);
    for (const LeafEntry& e : node.points) bound.Expand(e.point);
    collector.AddRect(bound);
    return;
  }
  for (const NodeEntry& e : node.children) {
    CollectRegions(PeekNode(e.child), collector);
  }
}

Status SRTree::ExportEntries(
    const std::function<void(PointView, uint32_t)>& fn) const {
  MutexLock lock(writer_mu_);
  std::vector<PageId> stack = {root_id_};
  while (!stack.empty()) {
    const Node node = PeekNode(stack.back());
    stack.pop_back();
    if (node.is_leaf()) {
      for (const LeafEntry& e : node.points) fn(e.point, e.oid);
      continue;
    }
    for (const NodeEntry& e : node.children) stack.push_back(e.child);
  }
  return Status::OK();
}

Status SRTree::CheckInvariants() const { return debug::AuditIndex(*this); }

void SRTree::VisitNodes(const NodeVisitor& visitor) const {
  MutexLock lock(writer_mu_);
  std::vector<int> path;
  VisitSubtree(PeekNode(root_id_), path, visitor);
}

void SRTree::VisitSubtree(const Node& node, std::vector<int>& path,
                          const NodeVisitor& visitor) const {
  NodeView view;
  view.level = node.level;
  view.capacity = Capacity(node);
  view.min_entries = MinEntries(node);
  view.entries.reserve(node.children.size());
  for (const NodeEntry& e : node.children) {
    view.entries.push_back(EntryView{has_rects() ? &e.rect : nullptr,
                                     &e.sphere, e.weight,
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

AuditSpec SRTree::GetAuditSpec() const {
  AuditSpec spec;
  spec.dim = options_.dim;
  spec.rect_semantics =
      has_rects() ? RectSemantics::kExactMbr : RectSemantics::kNone;
  spec.has_spheres = true;
  // With the Section 4.2 rule enabled the radius is min(d_s, d_r), so it
  // can never exceed the farthest corner of the entry's exact MBR; the
  // SS-style ablation (d_s only) carries no such bound.
  spec.sphere_bounded_by_rect = options_.use_rect_in_radius;
  spec.has_weights = true;
  spec.internal_root_min2 = true;
  return spec;
}

}  // namespace srtree
