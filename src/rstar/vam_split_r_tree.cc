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

  const int height = VamHeight(leaf_capacity(), node_capacity(), points.size());
  VamLoader loader(points);
  file_.Free(root_id_);  // replace the empty placeholder root
  root_id_ = Build(loader, oids, loader.all(), height).child;
  root_level_ = height;
  size_ = points.size();
  PublishBuilt(root_id_, root_level_, size_);
  return Status::OK();
}

RStarTree::NodeEntry VamSplitRTree::Build(VamLoader& loader,
                                          const std::vector<uint32_t>& oids,
                                          VamRange range, int height) {
  loader.Gather(range);
  Node node;
  node.id = file_.Allocate();
  node.level = height;
  if (height == 0) {
    CHECK_LE(range.size(), leaf_capacity());
    for (size_t r = range.begin; r < range.end; ++r) {
      const PointView p = loader.row(r);
      node.points.push_back(
          LeafEntry{Point(p.begin(), p.end()), oids[loader.slot(r)]});
    }
  } else {
    std::vector<VamRange> pieces;
    loader.SplitIntoPieces(
        range, VamSubtreeCapacity(leaf_capacity(), node_capacity(), height - 1),
        pieces);
    CHECK_LE(pieces.size(), node_capacity());
    for (const VamRange piece : pieces) {
      node.children.push_back(Build(loader, oids, piece, height - 1));
    }
  }
  WriteNode(node);
  return NodeEntry{NodeBoundingRect(node), node.id};
}

}  // namespace srtree
