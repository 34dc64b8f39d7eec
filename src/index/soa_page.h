// Dimension-major (SoA) node pages, shared by the dynamic SR-tree
// (src/core/) and the static tier (src/statictier/).
//
// Both serialize a node into one page with the same 8-byte header,
//
//   [u8 level] [u8 flags = 0] [u16 count] [u32 header word]
//
// followed by count-strided blocks, so coordinate d of entry i sits at
// block[d * count + i] — exactly the SoaBlock the DistanceKernel batch API
// consumes. A query overlays views on the page bytes and hands them to the
// kernels: no copy, no per-entry decode, no allocation.
//
//   leaf:  coords (dim x count doubles) | oids (count u32)
//   inner: centers (dim x count doubles) | radii (count doubles) |
//          rect lo | rect hi (dim x count doubles each) | weights (count
//          u32) | per-structure tail (the SR-tree's child ids)
//
// A sphere-only inner page (the SS-tree's region, see src/core/sr_tree.h)
// has no rect lo / hi blocks: centers | radii | weights | tail.
//
// A view reads nothing past its entries, so a page need hold no more than
// the header and entries: the SR-tree stores exactly that (its leaf-data
// area counts toward capacity but is never stored), while the static tier
// stages full pages. The 8-byte header keeps every double block 8-byte
// aligned. The header word is the static tier's first child id (its
// children are contiguous) and unused by the SR-tree.

#ifndef SRTREE_INDEX_SOA_PAGE_H_
#define SRTREE_INDEX_SOA_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/geometry/kernel.h"
#include "src/geometry/point.h"

namespace srtree {

inline constexpr size_t kSoaPageHeaderBytes = 8;

// Views alias the page bytes: valid only while the page is — for a query,
// while its EpochGuard pins the snapshot the page was read from
// (src/index/paged_index.h).
struct SoaLeafView {
  size_t count = 0;
  SoaBlock points;  // dim-major coordinates
  const uint32_t* oids = nullptr;
};

struct SoaInnerView {
  size_t count = 0;
  uint32_t header_word = 0;
  SoaBlock centers, lo, hi;  // dim-major blocks; lo/hi empty without rects
  const double* radii = nullptr;
  const uint32_t* weights = nullptr;
  const uint32_t* tail = nullptr;  // first word after the weight array
};

int SoaPageLevel(const char* page);
SoaLeafView ParseSoaLeaf(const char* page, int dim);
// `has_rects` is false for a sphere-only page.
SoaInnerView ParseSoaInner(const char* page, int dim, bool has_rects = true);

// Writes the 8-byte page header; the rest of the page is the caller's.
void PutSoaHeader(char* page, int level, size_t count, uint32_t header_word);

// Writers store through typed pointers, as the views load through them:
// page buffers come from operator new, which implicitly creates the double
// and u32 objects accessed. (Byte-wise copies would also make the compiler
// reload every source pointer after each store, since a char store may
// alias anything.)

// Writes one count-strided column at `out` — coordinate d of element i
// (point_of(i), a PointView) goes to double slot d * count + i — and
// returns the first byte after it.
template <typename PointOf>
char* PutSoaColumn(char* out, int dim, size_t count, PointOf&& point_of) {
  double* column = reinterpret_cast<double*>(out);
  // Dimension-outer, so the stores run sequentially through the block.
  for (size_t d = 0; d < static_cast<size_t>(dim); ++d) {
    for (size_t i = 0; i < count; ++i) *column++ = point_of(i)[d];
  }
  return reinterpret_cast<char*>(column);
}

// Writes value_of(0..count) as a packed T array at `out` and returns the
// first byte after it.
template <typename T, typename ValueOf>
char* PutSoaArray(char* out, size_t count, ValueOf&& value_of) {
  T* array = reinterpret_cast<T*>(out);
  for (size_t i = 0; i < count; ++i) array[i] = value_of(i);
  return reinterpret_cast<char*>(array + count);
}

// Copies element `i` of a dim-major block into `out` (dim doubles).
inline void GatherSoaElement(const SoaBlock& block, size_t i, Point& out) {
  out.resize(static_cast<size_t>(block.dim));
  for (size_t d = 0; d < out.size(); ++d) {
    out[d] = block.coords[d * block.count + i];
  }
}

// The SR MINDIST of every inner entry (distance space), in scratch.dist2:
// the region is the intersection of sphere and rectangle, so with
// `use_rect` the bound is max(sphere MINDIST, rect MINDIST) (Section 4.4);
// without it, the sphere MINDIST alone. Clobbers scratch.dist.
const std::vector<double>& SrEntryMinDists(const SoaInnerView& inner,
                                           PointView query, bool use_rect,
                                           KernelScratch& scratch);

// Squared distances from `query` to every leaf point, read straight from
// the page; calls offer(d2, i) for each entry i with d2 <= bound_sq.
template <typename Offer>
void ScanSoaLeaf(const SoaLeafView& leaf, PointView query, double bound_sq,
                 KernelScratch& scratch, Offer&& offer) {
  const std::vector<double>& d2 =
      BatchSquaredL2FromBlock(scratch, query, leaf.points, bound_sq);
  for (size_t i = 0; i < leaf.count; ++i) {
    if (d2[i] <= bound_sq) offer(d2[i], i);
  }
}

}  // namespace srtree

#endif  // SRTREE_INDEX_SOA_PAGE_H_
