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
      dist_(std::max(leaf_cap_, node_cap_) + 1) {
  CHECK_GE(leaf_cap_, 2u);
  CHECK_GE(node_cap_, 2u);

  // No other thread can hold a reference yet, but the analysis (correctly)
  // demands the lock for the guarded members and the REQUIRES helpers.
  MutexLock lock(writer_mu_);
  image_.resize(
      std::max(NodeBytes(0, leaf_cap_ + 1), NodeBytes(1, node_cap_ + 1)));
  root_id_ = NewEmptyLeaf();
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
// Page images
// --------------------------------------------------------------------------

size_t SRTree::NodeBytes(int level, size_t count) const {
  const size_t dim = static_cast<size_t>(options_.dim);
  return kHeaderBytes +
         count * (level == 0 ? LeafEntryBytes(dim)
                             : InnerEntryBytes(dim, options_.region));
}

void SRTree::CommitState() {
  CommitRoot(root_id_, root_level_, size_);
}

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

void SRTree::ReadSlot(const char* page, size_t count, int level, size_t slot,
                      Pending& out) const {
  const double* row = reinterpret_cast<const double*>(page + kHeaderBytes);
  const size_t dim = static_cast<size_t>(options_.dim);
  const auto get_column = [&](Point& p) {
    p.resize(dim);
    for (size_t d = 0; d < dim; ++d) p[d] = row[d * count + slot];
    row += dim * count;
  };
  out.level = level;
  if (level == 0) {
    get_column(out.leaf.point);
    out.leaf.oid = reinterpret_cast<const uint32_t*>(row)[slot];
    return;
  }
  NodeEntry& e = out.node;
  get_column(e.sphere.mutable_center());
  e.sphere.set_radius(row[slot]);
  row += count;
  if (has_rects()) {
    get_column(e.rect.mutable_lo());
    get_column(e.rect.mutable_hi());
  }
  const uint32_t* words = reinterpret_cast<const uint32_t*>(row);
  e.weight = words[slot];
  e.child = words[count + slot];
}

namespace {

// Copies `rows` rows of `count` T's at `from` into rows of `to_count` T's
// at `to`, element slots[j] of each row to element j, and advances both
// past them. A run of consecutive slots is found once and moves as one
// block per row, so a relay that keeps the entries in order costs one copy
// per row.
template <typename T>
void RelayRows(const char*& from, size_t count, char*& to, size_t to_count,
               size_t rows, std::span<const uint32_t> slots) {
  const T* src = reinterpret_cast<const T*>(from);
  T* dst = reinterpret_cast<T*>(to);
  for (size_t j = 0; j < slots.size();) {
    size_t run = 1;
    while (j + run < slots.size() && slots[j + run] == slots[j] + run) ++run;
    for (size_t r = 0; r < rows; ++r) {
      std::copy_n(src + r * count + slots[j], run, dst + r * to_count + j);
    }
    j += run;
  }
  from = reinterpret_cast<const char*>(src + rows * count);
  to = reinterpret_cast<char*>(dst + rows * to_count);
}

}  // namespace

void SRTree::RelaySlots(const char* from, size_t count, int level,
                        std::span<const uint32_t> slots, char* to,
                        size_t to_count) const {
  DCHECK_LE(slots.size(), to_count);
  PutSoaHeader(to, level, to_count, 0);
  from += kHeaderBytes;
  to += kHeaderBytes;
  RelayRows<double>(from, count, to, to_count, DoubleRows(level), slots);
  RelayRows<uint32_t>(from, count, to, to_count, WordRows(level), slots);
}

template <typename Fill>
void SRTree::StageRelaid(PageId id, int level,
                         std::span<const uint32_t> slots, size_t to_count,
                         Fill&& fill) {
  const char* old = file_.PeekPage(id);
  const size_t count = PageCount(old, level);
  page_copy_.assign(old, old + NodeBytes(level, count));
  char* page = file_.StageWrite(id, NodeBytes(level, to_count));
  RelaySlots(page_copy_.data(), count, level, slots, page, to_count);
  fill(page);
}

template <typename Fill>
bool SRTree::Widen(PageId id, int level, size_t count, Fill&& fill) {
  // Every entry keeps its slot.
  slots_.resize(count);
  std::iota(slots_.begin(), slots_.end(), 0u);
  if (count < Capacity(level)) {
    StageRelaid(id, level, slots_, count + 1, fill);
    return true;
  }
  RelaySlots(file_.PeekPage(id), count, level, slots_, image_.data(),
             count + 1);
  fill(image_.data());
  return false;
}

PageId SRTree::NewEmptyLeaf() {
  const PageId id = file_.Allocate();
  PutSoaHeader(file_.StageWrite(id, NodeBytes(0, 0)), 0, 0, 0);
  return id;
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

// --------------------------------------------------------------------------
// Insertion
// --------------------------------------------------------------------------

Status SRTree::InsertLocked(PointView point, uint32_t oid) {
  reinserted_nodes_.clear();
  std::deque<Pending> pending;
  pending.push_back({0, LeafEntry{Point(point.begin(), point.end()), oid}, {}});
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
  const size_t count = PageCount(page, item.level);
  const bool fits = Widen(id, item.level, count, [&](char* grown) {
    if (item.level == 0) {
      PutLeafEntry(grown, count + 1, count, item.leaf);
    } else {
      PutInnerEntry(grown, count + 1, count, item.node);
    }
  });
  if (fits) {
    RefreshPath(last);
  } else {
    ResolveOverflow(last, pending);
  }
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
  for (int i = from;; --i) {
    const PageId id = path_ids_[i];
    const int level = root_level_ - i;
    const bool is_root = (i == 0);
    if (!is_root && reinserted_nodes_.insert(id).second) {
      RemoveForReinsert(id, level, pending);
      RefreshPath(i);
      return;
    }
    const PageId right = SplitNode(id, level);
    NodeEntry right_entry;
    ComputeEntry(id, entry_);
    ComputeEntry(right, right_entry);
    if (is_root) {
      // The root splits: a new root holds the two halves.
      root_id_ = file_.Allocate();
      root_level_ = level + 1;
      char* root = file_.StageWrite(root_id_, NodeBytes(root_level_, 2));
      PutSoaHeader(root, root_level_, 2, 0);
      PutInnerEntry(root, 2, 0, entry_);
      PutInnerEntry(root, 2, 1, right_entry);
      return;
    }
    // The parent takes the right half's entry last; when it is full too, it
    // overflows in turn, into the image.
    const PageId parent = path_ids_[i - 1];
    const size_t slot = static_cast<size_t>(path_idx_[i - 1]);
    const size_t count = PageCount(file_.PeekPage(parent), level + 1);
    if (Widen(parent, level + 1, count, [&](char* grown) {
          PutInnerEntry(grown, count + 1, slot, entry_);
          PutInnerEntry(grown, count + 1, count, right_entry);
        })) {
      RefreshPath(i - 1);
      return;
    }
  }
}

void SRTree::RemoveForReinsert(PageId id, int level,
                               std::deque<Pending>& pending) {
  ++maintenance_.reinsertions;
  const size_t total = Capacity(level) + 1;
  size_t evict = static_cast<size_t>(
      std::lround(options_.reinsert_fraction * static_cast<double>(total)));
  evict = std::clamp<size_t>(evict, 1, total - MinEntries(level));

  // The entries' centroids are the image's first column: a leaf's points,
  // an inner page's sphere centers.
  const char* image = image_.data();
  const size_t dim = static_cast<size_t>(options_.dim);
  const SoaBlock centroids{
      reinterpret_cast<const double*>(image + kHeaderBytes), total,
      options_.dim};
  const auto coord_of = [&](size_t i, size_t d) {
    return centroids.coords[d * total + i];
  };
  Point centroid;
  if (level == 0) {
    WeightedCentroid(dim, total, coord_of, [](size_t) { return 1u; },
                     centroid);
  } else {
    const uint32_t* weights =
        ParseSoaInner(image, options_.dim, has_rects()).weights;
    WeightedCentroid(dim, total, coord_of,
                     [&](size_t i) { return weights[i]; }, centroid);
  }
  DCHECK_LE(total, dist_.size());
  GetDistanceKernel().SquaredL2ToMany(centroid, centroids, dist_.data());
  std::vector<std::pair<double, size_t>> by_distance(total);
  for (size_t i = 0; i < total; ++i) by_distance[i] = {dist_[i], i};
  std::sort(by_distance.begin(), by_distance.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  // Closest-first reinsertion: the evicted entries queue from the nearest.
  std::vector<bool> evicted(total, false);
  for (size_t k = evict; k-- > 0;) {
    const size_t slot = by_distance[k].second;
    evicted[slot] = true;
    ReadSlot(image, total, level, slot, pending.emplace_back());
  }
  // The rest stay, in slot order.
  slots_.clear();
  for (uint32_t slot = 0; slot < total; ++slot) {
    if (!evicted[slot]) slots_.push_back(slot);
  }
  RelaySlots(image, total, level, slots_,
             file_.StageWrite(id, NodeBytes(level, slots_.size())),
             slots_.size());
}

PageId SRTree::SplitNode(PageId id, int level) {
  ++maintenance_.splits;
  const size_t total = Capacity(level) + 1;
  const size_t m = MinEntries(level);
  CHECK_GE(total, 2 * m);
  // Entry i's centroid coordinate d, from the image's first column.
  const double* centroids =
      reinterpret_cast<const double*>(image_.data() + kHeaderBytes);
  const auto x = [&](size_t i, int d) {
    return centroids[static_cast<size_t>(d) * total + i];
  };

  // The SR-tree inherits the SS-tree split: dimension of highest centroid
  // variance, position of least summed variance (Section 4.2).
  int best_dim = 0;
  double best_var = -1.0;
  for (int d = 0; d < options_.dim; ++d) {
    double sum = 0.0, sum_sq = 0.0;
    for (size_t i = 0; i < total; ++i) {
      sum += x(i, d);
      sum_sq += x(i, d) * x(i, d);
    }
    const double mean = sum / static_cast<double>(total);
    const double var = sum_sq / static_cast<double>(total) - mean * mean;
    if (var > best_var) {
      best_var = var;
      best_dim = d;
    }
  }

  slots_.resize(total);
  std::iota(slots_.begin(), slots_.end(), 0u);
  std::sort(slots_.begin(), slots_.end(), [&](uint32_t a, uint32_t b) {
    return x(a, best_dim) < x(b, best_dim);
  });

  std::vector<double> prefix_sum(total + 1, 0.0), prefix_sq(total + 1, 0.0);
  for (size_t i = 0; i < total; ++i) {
    const double v = x(slots_[i], best_dim);
    prefix_sum[i + 1] = prefix_sum[i] + v;
    prefix_sq[i + 1] = prefix_sq[i] + v * v;
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

  // The entries before the split point stay on `id`, the rest go right.
  const PageId right = file_.Allocate();
  const std::span<const uint32_t> order(slots_);
  const size_t rest = total - best_split;
  RelaySlots(image_.data(), total, level, order.first(best_split),
             file_.StageWrite(id, NodeBytes(level, best_split)), best_split);
  RelaySlots(image_.data(), total, level, order.subspan(best_split),
             file_.StageWrite(right, NodeBytes(level, rest)), rest);
  return right;
}

// --------------------------------------------------------------------------
// Deletion
// --------------------------------------------------------------------------

Status SRTree::DeleteLocked(PointView point, uint32_t oid) {
  path_ids_.clear();
  path_idx_.clear();
  find_dist_.resize(static_cast<size_t>(root_level_) * node_cap_);
  if (!FindLeafPath(root_id_, root_level_, point, oid)) {
    // Nothing staged, nothing committed: the version number advances only
    // on successful mutations.
    return Status::NotFound("point not present");
  }
  CondenseTree();
  ShrinkRoot();
  --size_;
  CommitState();
  return Status::OK();
}

bool SRTree::FindLeafPath(PageId id, int level, PointView point,
                          uint32_t oid) {
  const char* page = file_.ReadInPlace(id, level);
  DCHECK_EQ(SoaPageLevel(page), level);
  path_ids_.push_back(id);
  if (level == 0) {
    const SoaLeafView leaf = ParseSoaLeaf(page, options_.dim);
    for (size_t i = 0; i < leaf.count; ++i) {
      if (leaf.oids[i] == oid && SoaElementEquals(leaf.points, i, point)) {
        path_idx_.push_back(static_cast<int>(i));
        return true;
      }
    }
  } else {
    // The page stays valid across the recursion: the search stages nothing.
    // One batched pass over the center column: L2 is sqrt(SquaredL2), which
    // the batch matches bit for bit. Each inner level has its own row of
    // find_dist_, since the recursion below fills the rows under it.
    const bool rects = has_rects();
    const SoaInnerView inner = ParseSoaInner(page, options_.dim, rects);
    DCHECK_LE(inner.count, node_cap_);
    double* dist =
        find_dist_.data() + static_cast<size_t>(level - 1) * node_cap_;
    GetDistanceKernel().SquaredL2ToMany(point, inner.centers, dist);
    for (size_t i = 0; i < inner.count; ++i) {
      if (rects && !SoaRectContains(inner, i, point)) continue;
      if (std::sqrt(dist[i]) > inner.radii[i] * (1.0 + kEps) + kEps) continue;
      path_idx_.push_back(static_cast<int>(i));
      if (FindLeafPath(inner.tail[i], level - 1, point, oid)) return true;
      path_idx_.pop_back();
    }
  }
  path_ids_.pop_back();
  return false;
}

void SRTree::CondenseTree() {
  std::deque<Pending> orphans;
  // Bottom-up, the entry each page took on the path is either removed (the
  // point itself, or the entry of a child that underflowed) or patched from
  // its child's page, which entry_ then holds.
  bool removed = true;
  for (int i = static_cast<int>(path_ids_.size()) - 1; i >= 0; --i) {
    const PageId id = path_ids_[i];
    const int level = root_level_ - i;
    const size_t slot = static_cast<size_t>(path_idx_[i]);
    const char* page = file_.PeekPage(id);
    const size_t count = PageCount(page, level);
    const size_t left = removed ? count - 1 : count;
    if (i > 0 && left < MinEntries(level)) {
      // An underflowing node is never staged: its other entries become
      // orphans, read from the page in slot order, and the page is freed.
      for (size_t s = 0; s < count; ++s) {
        if (removed && s == slot) continue;
        ReadSlot(page, count, level, s, orphans.emplace_back());
        if (s == slot) orphans.back().node = entry_;  // patched, not stored
      }
      file_.Free(id);
      removed = true;
      continue;
    }
    // Every other page on the path, the root included, takes one write.
    if (removed) {
      slots_.clear();
      for (uint32_t s = 0; s < count; ++s) {
        if (s != slot) slots_.push_back(s);
      }
      StageRelaid(id, level, slots_, left, [](char*) {});
    } else {
      PutInnerEntry(file_.StagePatch(id), count, slot, entry_);
    }
    if (i > 0) ComputeEntry(id, entry_);
    removed = false;
  }

  reinserted_nodes_.clear();
  ProcessPending(orphans);
}

void SRTree::ShrinkRoot() {
  while (root_level_ > 0) {
    const SoaInnerView root =
        ParseSoaInner(file_.PeekPage(root_id_), options_.dim, has_rects());
    if (root.count > 1) return;
    // Read the only child before Free releases the page.
    const PageId old_root = root_id_;
    const bool empty = root.count == 0;
    if (!empty) {
      root_id_ = root.tail[0];
      --root_level_;
    }
    file_.Free(old_root);
    if (empty) {
      root_id_ = NewEmptyLeaf();
      root_level_ = 0;
    }
  }
}

// --------------------------------------------------------------------------
// Stats & validation
// --------------------------------------------------------------------------

TreeStats SRTree::GetTreeStats() const {
  MutexLock lock(writer_mu_);
  TreeStats stats;
  stats.height = root_level_ + 1;
  CollectStats(root_id_, stats);
  return stats;
}

void SRTree::CollectStats(PageId id, TreeStats& stats) const {
  const char* page = file_.PeekPage(id);
  if (SoaPageLevel(page) == 0) {
    ++stats.leaf_count;
    stats.entry_count += PageCount(page, 0);
    return;
  }
  ++stats.node_count;
  const SoaInnerView inner = ParseSoaInner(page, options_.dim, has_rects());
  for (size_t i = 0; i < inner.count; ++i) CollectStats(inner.tail[i], stats);
}

RegionSummary SRTree::LeafRegionSummary() const {
  MutexLock lock(writer_mu_);
  RegionStatsCollector collector;
  CollectRegions(root_id_, collector);
  return collector.Finish();
}

void SRTree::CollectRegions(PageId id,
                            RegionStatsCollector& collector) const {
  const char* page = file_.PeekPage(id);
  if (SoaPageLevel(page) == 0) {
    const SoaLeafView leaf = ParseSoaLeaf(page, options_.dim);
    if (leaf.count == 0) return;
    collector.CountLeaf();
    NodeEntry entry;
    ComputeEntry(id, entry);
    collector.AddSphere(entry.sphere);
    // The exact MBR, which a sphere-only tree measures without storing.
    Rect bound;
    SoaBounds(leaf.points, leaf.points, bound);
    collector.AddRect(bound);
    return;
  }
  const SoaInnerView inner = ParseSoaInner(page, options_.dim, has_rects());
  for (size_t i = 0; i < inner.count; ++i) {
    CollectRegions(inner.tail[i], collector);
  }
}

Status SRTree::ExportEntries(
    const std::function<void(PointView, uint32_t)>& fn) const {
  MutexLock lock(writer_mu_);
  std::vector<PageId> stack = {root_id_};
  Pending e;
  while (!stack.empty()) {
    const char* page = file_.PeekPage(stack.back());
    stack.pop_back();
    if (SoaPageLevel(page) == 0) {
      const size_t count = PageCount(page, 0);
      for (size_t i = 0; i < count; ++i) {
        ReadSlot(page, count, 0, i, e);
        fn(e.leaf.point, e.leaf.oid);
      }
      continue;
    }
    const SoaInnerView inner = ParseSoaInner(page, options_.dim, has_rects());
    stack.insert(stack.end(), inner.tail, inner.tail + inner.count);
  }
  return Status::OK();
}

Status SRTree::CheckInvariants() const { return debug::AuditIndex(*this); }

void SRTree::VisitNodes(const NodeVisitor& visitor) const {
  MutexLock lock(writer_mu_);
  std::vector<int> path;
  VisitSubtree(root_id_, path, visitor);
}

void SRTree::VisitSubtree(PageId id, std::vector<int>& path,
                          const NodeVisitor& visitor) const {
  const char* page = file_.PeekPage(id);
  NodeView view;
  view.level = SoaPageLevel(page);
  view.capacity = Capacity(view.level);
  view.min_entries = MinEntries(view.level);
  const size_t count = PageCount(page, view.level);
  // The views point into these, which outlive the callback.
  std::vector<Pending> entries(count);
  for (size_t i = 0; i < count; ++i) {
    Pending& e = entries[i];
    ReadSlot(page, count, view.level, i, e);
    if (view.level == 0) {
      view.points.push_back(e.leaf.point);
    } else {
      view.entries.push_back(EntryView{has_rects() ? &e.node.rect : nullptr,
                                       &e.node.sphere, e.node.weight,
                                       /*has_weight=*/true});
    }
  }
  visitor(path, view);
  for (size_t i = 0; view.level > 0 && i < count; ++i) {
    path.push_back(static_cast<int>(i));
    VisitSubtree(entries[i].node.child, path, visitor);
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
