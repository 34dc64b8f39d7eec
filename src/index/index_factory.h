// Index factory: the one place that names every concrete index structure.
//
// Everything downstream of the PointIndex interface — the experiment
// harness, the benches, the CLI, the query engine — constructs indexes
// through MakeIndex() so it never includes a tree header itself. srlint
// rule R3 holds src/engine/ and src/benchlib/ to that layering.

#ifndef SRTREE_INDEX_INDEX_FACTORY_H_
#define SRTREE_INDEX_INDEX_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/index/point_index.h"

namespace srtree {

enum class IndexType {
  kSRTree,
  kSSTree,
  kRStarTree,
  kKdbTree,
  kVamSplitRTree,
  // 5 belonged to the retired X-tree. The values after it stay put because
  // gtest prints them in the names of tests parametrized on IndexType.
  kTvTree = 6,  // extension: Section 2.5 related work (fixed-telescope TV-tree)
  kScan,
  // Tiered serving arrangement (src/statictier/): an immutable bulk tier
  // plus the dynamic SR-tree delta, and the bulk tier on its own.
  kStaticSRTree,
  kTieredSRTree,
};

const char* IndexTypeName(IndexType type);

// The five index structures of the paper's evaluation.
std::vector<IndexType> AllTreeTypes();
// The dynamic trees whose insertion cost Figure 9 compares.
std::vector<IndexType> DynamicTreeTypes();

struct IndexConfig {
  int dim = 16;
  size_t page_size = 8192;
  size_t leaf_data_size = 512;
  double min_utilization = 0.4;
  double reinsert_fraction = 0.3;
};

std::unique_ptr<PointIndex> MakeIndex(IndexType type,
                                      const IndexConfig& config);

// Opens an index image written by PointIndex::Save(), dispatching on the
// type tag embedded in the file. Images of retired formats (the pre-v2
// SR-tree, the X-tree) are refused with InvalidArgument. The returned index
// is fully validated: a corrupt, truncated, or foreign file yields a non-OK
// status, never a crash or a silently broken tree.
StatusOr<std::unique_ptr<PointIndex>> OpenIndex(const std::string& path);

}  // namespace srtree

#endif  // SRTREE_INDEX_INDEX_FACTORY_H_
