// The VAMSplit R-tree's own code: its top-down bulk load. It sits apart
// from rstar_tree.cc so that file, and with it the R*-tree's query path,
// compiles as it does without the VAMSplit R-tree (GCC's inlining budget
// grows with the size of a translation unit).

#include "src/common/check.h"
#include "src/index/vam_partition.h"
#include "src/rstar/rstar_tree.h"

namespace srtree {

Status VamSplitRTree::InsertLocked(PointView, uint32_t) {
  return Status::Unimplemented(
      "VAMSplit R-tree is static; rebuild with BulkLoad");
}

Status VamSplitRTree::DeleteLocked(PointView, uint32_t) {
  return Status::Unimplemented(
      "VAMSplit R-tree is static; rebuild with BulkLoad");
}

Status VamSplitRTree::BulkLoad(const std::vector<Point>& points,
                               const std::vector<uint32_t>& oids) {
  RETURN_IF_ERROR(ValidateBulkLoad(points, oids, dim()));
  if (size_ != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty index");
  }
  if (points.size() > 0xffffffffull) {
    return Status::InvalidArgument("too many points for 32-bit object slots");
  }
  if (points.empty()) return Status::OK();

  const VamLayout layout(points.size(), leaf_capacity(), node_capacity());
  const std::vector<uint32_t> slots =
      VamLoader::Walk(points, layout, /*hook=*/nullptr);
  file_.Free(root_id_);  // replace the empty placeholder root
  root_id_ = Build(points, oids, layout, slots, 0).child;
  root_level_ = layout.nodes[0].level;
  size_ = points.size();
  PublishBuilt(root_id_, root_level_, size_);
  return Status::OK();
}

RStarTree::NodeEntry VamSplitRTree::Build(const std::vector<Point>& points,
                                          const std::vector<uint32_t>& oids,
                                          const VamLayout& layout,
                                          std::span<const uint32_t> slots,
                                          size_t index) {
  const VamNode& layout_node = layout.nodes[index];
  Node node;
  node.id = file_.Allocate();
  node.level = layout_node.level;
  if (node.level == 0) {
    for (const uint32_t slot : slots.subspan(layout_node.range.begin,
                                             layout_node.range.size())) {
      node.points.push_back(LeafEntry{points[slot], oids[slot]});
    }
  } else {
    for (size_t c = 0; c < layout_node.child_count; ++c) {
      node.children.push_back(
          Build(points, oids, layout, slots, layout_node.first_child + c));
    }
  }
  WriteNode(node);
  return NodeEntry{NodeBoundingRect(node), node.id};
}

}  // namespace srtree
