// The VAMSplit partition (White & Jain, SPIE 1996) that the top-down bulk
// loads share: the VAMSplit R-tree (VamSplitRTree, src/rstar/) and the
// static SR-tree tier (src/statictier/).
//
// A bulk load builds a tree of the minimal height over the whole data set,
// splitting each subtree's points into pieces with planes orthogonal to the
// dimension of highest variance. Each split point is the "variance
// approximate median" rounded to a multiple of the capacity of a maximal
// subtree one level down, so every piece but the last packs full subtrees
// and the tree uses the minimum number of leaves, ceil(n / leaf capacity).
//
// Items are indices into the bulk-load point array; SplitIntoPieces
// permutes them in place and returns its pieces as subspans of them.

#ifndef SRTREE_INDEX_VAM_PARTITION_H_
#define SRTREE_INDEX_VAM_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/geometry/point.h"

namespace srtree {

using VamItems = std::span<uint32_t>;

// Points a full subtree of the given height holds (0 = one leaf).
uint64_t VamSubtreeCapacity(size_t leaf_cap, size_t node_cap, int height);

// The smallest height whose full subtree holds `n` points.
int VamHeight(size_t leaf_cap, size_t node_cap, uint64_t n);

// The dimension along which `items` (non-empty) spread most.
int MaxVarianceDim(const std::vector<Point>& points, VamItems items);

// Partitions `items` into pieces of at most `piece_cap` points by
// recursive variance-approximate-median binary splits, appending them to
// `pieces` left to right.
void SplitIntoPieces(const std::vector<Point>& points, VamItems items,
                     uint64_t piece_cap, std::vector<VamItems>& pieces);

}  // namespace srtree

#endif  // SRTREE_INDEX_VAM_PARTITION_H_
