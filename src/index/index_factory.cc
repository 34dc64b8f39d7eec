#include "src/index/index_factory.h"

#include <utility>

#include "src/common/check.h"
#include "src/storage/image_io.h"
#include "src/core/sr_tree.h"
#include "src/index/brute_force.h"
#include "src/statictier/static_sr_tree.h"
#include "src/statictier/tiered_index.h"
#include "src/rstar/rstar_tree.h"

namespace srtree {

const char* IndexTypeName(IndexType type) {
  switch (type) {
    case IndexType::kSRTree:
      return "SR-tree";
    case IndexType::kSSTree:
      return "SS-tree";
    case IndexType::kRStarTree:
      return "R*-tree";
    case IndexType::kKdbTree:
      return "K-D-B-tree";
    case IndexType::kVamSplitRTree:
      return "VAMSplit R-tree";
    case IndexType::kTvTree:
      return "TV-tree";
    case IndexType::kScan:
      return "scan";
    case IndexType::kStaticSRTree:
      return "Static SR-tree";
    case IndexType::kTieredSRTree:
      return "Tiered SR-tree";
  }
  return "unknown";
}

std::vector<IndexType> AllTreeTypes() {
  return {IndexType::kKdbTree, IndexType::kRStarTree, IndexType::kSSTree,
          IndexType::kVamSplitRTree, IndexType::kSRTree};
}

std::vector<IndexType> DynamicTreeTypes() {
  return {IndexType::kRStarTree, IndexType::kSSTree, IndexType::kSRTree};
}

std::unique_ptr<PointIndex> MakeIndex(IndexType type,
                                      const IndexConfig& config) {
  switch (type) {
    case IndexType::kSRTree:
    case IndexType::kSSTree: {
      SRTree::Options options;
      options.dim = config.dim;
      options.page_size = config.page_size;
      options.leaf_data_size = config.leaf_data_size;
      options.min_utilization = config.min_utilization;
      options.reinsert_fraction = config.reinsert_fraction;
      if (type == IndexType::kSSTree) return std::make_unique<SSTree>(options);
      return std::make_unique<SRTree>(options);
    }
    case IndexType::kRStarTree: {
      RStarTree::Options options;
      options.dim = config.dim;
      options.page_size = config.page_size;
      options.leaf_data_size = config.leaf_data_size;
      options.min_utilization = config.min_utilization;
      options.reinsert_fraction = config.reinsert_fraction;
      return std::make_unique<RStarTree>(options);
    }
    case IndexType::kKdbTree: {
      KdbTree::Options options;
      options.dim = config.dim;
      options.page_size = config.page_size;
      options.leaf_data_size = config.leaf_data_size;
      return std::make_unique<KdbTree>(options);
    }
    case IndexType::kVamSplitRTree: {
      VamSplitRTree::Options options;
      options.dim = config.dim;
      options.page_size = config.page_size;
      options.leaf_data_size = config.leaf_data_size;
      return std::make_unique<VamSplitRTree>(options);
    }
    case IndexType::kTvTree: {
      TvRTree::Options options;
      options.dim = config.dim;
      options.page_size = config.page_size;
      options.leaf_data_size = config.leaf_data_size;
      options.min_utilization = config.min_utilization;
      options.reinsert_fraction = config.reinsert_fraction;
      return std::make_unique<TvRTree>(options);
    }
    case IndexType::kScan: {
      BruteForceIndex::Options options;
      options.dim = config.dim;
      options.page_size = config.page_size;
      options.leaf_data_size = config.leaf_data_size;
      return std::make_unique<BruteForceIndex>(options);
    }
    case IndexType::kStaticSRTree: {
      StaticSRTree::Options options;
      options.dim = config.dim;
      options.page_size = config.page_size;
      return std::make_unique<StaticSRTree>(options);
    }
    case IndexType::kTieredSRTree: {
      TieredIndex::Options options;
      options.dim = config.dim;
      options.page_size = config.page_size;
      options.leaf_data_size = config.leaf_data_size;
      options.min_utilization = config.min_utilization;
      options.reinsert_fraction = config.reinsert_fraction;
      return std::make_unique<TieredIndex>(options);
    }
  }
  CHECK(false);
  return nullptr;
}

namespace {

// Adapts a concrete tree's static Open() to the PointIndex result type.
template <typename Tree>
StatusOr<std::unique_ptr<PointIndex>> OpenAs(const std::string& path) {
  StatusOr<std::unique_ptr<Tree>> tree = Tree::Open(path);
  if (!tree.ok()) return tree.status();
  return StatusOr<std::unique_ptr<PointIndex>>(std::move(*tree));
}

}  // namespace

StatusOr<std::unique_ptr<PointIndex>> OpenIndex(const std::string& path) {
  StatusOr<std::string> tag = PeekIndexImageTag(path);
  if (!tag.ok()) return tag.status();
  if (*tag == SRTree::kImageTag) return OpenAs<SRTree>(path);
  if (*tag == "legacy-sr-v1") {
    return Status::InvalidArgument(
        "pre-v2 SR-tree image is no longer readable; re-save with v2 "
        "(PointIndex::Save) using a release that still reads it");
  }
  if (*tag == StaticSRTree::kImageTag) return OpenAs<StaticSRTree>(path);
  if (*tag == TieredIndex::kImageTag) return OpenAs<TieredIndex>(path);
  if (*tag == SSTree::kImageTag) return OpenAs<SSTree>(path);
  if (*tag == RStarTree::kImageTag) return OpenAs<RStarTree>(path);
  if (*tag == KdbTree::kImageTag) return OpenAs<KdbTree>(path);
  if (*tag == VamSplitRTree::kImageTag) return OpenAs<VamSplitRTree>(path);
  if (*tag == "xtree") {
    return Status::InvalidArgument(
        "X-tree image is no longer readable: the X-tree is retired; commit "
        "dd71630 is the last release that reads it, so rebuild its points "
        "into another index type there");
  }
  if (*tag == TvRTree::kImageTag) return OpenAs<TvRTree>(path);
  return Status::Corruption("unknown index image type tag: " + *tag);
}

}  // namespace srtree
