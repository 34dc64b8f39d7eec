#include "src/index/soa_page.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace srtree {

int SoaPageLevel(const char* page) {
  return static_cast<int>(static_cast<unsigned char>(page[0]));
}

namespace {

size_t SoaPageCount(const char* page) {
  uint16_t count = 0;
  std::memcpy(&count, page + 2, sizeof(count));
  return count;
}

}  // namespace

SoaLeafView ParseSoaLeaf(const char* page, int dim) {
  SoaLeafView leaf;
  leaf.count = SoaPageCount(page);
  const double* coords =
      reinterpret_cast<const double*>(page + kSoaPageHeaderBytes);
  leaf.points = SoaBlock{coords, leaf.count, dim};
  leaf.oids = reinterpret_cast<const uint32_t*>(
      coords + static_cast<size_t>(dim) * leaf.count);
  return leaf;
}

SoaInnerView ParseSoaInner(const char* page, int dim, bool has_rects) {
  SoaInnerView inner;
  inner.count = SoaPageCount(page);
  std::memcpy(&inner.header_word, page + 4, sizeof(inner.header_word));
  const size_t block = static_cast<size_t>(dim) * inner.count;
  const double* cursor =
      reinterpret_cast<const double*>(page + kSoaPageHeaderBytes);
  inner.centers = SoaBlock{cursor, inner.count, dim};
  cursor += block;
  inner.radii = cursor;
  cursor += inner.count;
  if (has_rects) {
    inner.lo = SoaBlock{cursor, inner.count, dim};
    cursor += block;
    inner.hi = SoaBlock{cursor, inner.count, dim};
    cursor += block;
  }
  inner.weights = reinterpret_cast<const uint32_t*>(cursor);
  inner.tail = inner.weights + inner.count;
  return inner;
}

void PutSoaHeader(char* page, int level, size_t count, uint32_t header_word) {
  const uint8_t level_and_flags[2] = {static_cast<uint8_t>(level), 0};
  const uint16_t count_word = static_cast<uint16_t>(count);
  std::memcpy(page, level_and_flags, sizeof(level_and_flags));
  std::memcpy(page + 2, &count_word, sizeof(count_word));
  std::memcpy(page + 4, &header_word, sizeof(header_word));
}

const std::vector<double>& SrEntryMinDists(const SoaInnerView& inner,
                                           PointView query, bool use_rect,
                                           KernelScratch& scratch) {
  // Sphere MINDISTs land in scratch.dist2, rect MINDIST^2 in scratch.dist.
  BatchSphereMinDistFromBlock(scratch, query, inner.centers, inner.radii);
  if (!use_rect) return scratch.dist2;
  BatchRectMinDistSqFromBlocks(scratch, query, inner.lo, inner.hi);
  for (size_t i = 0; i < inner.count; ++i) {
    scratch.dist2[i] = std::max(scratch.dist2[i], std::sqrt(scratch.dist[i]));
  }
  return scratch.dist2;
}

}  // namespace srtree
