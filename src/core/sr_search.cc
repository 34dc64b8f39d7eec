// The SR-tree's query path: its bound policy and the entry points that run
// the shared traversals with it. It sits apart from sr_tree.cc so that
// writer changes cannot move its machine code through GCC's inlining
// budget, which grows with the size of a translation unit.

#include "src/common/check.h"
#include "src/core/sr_tree.h"
#include "src/index/soa_page.h"
#include "src/index/traversal.h"

namespace srtree {

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

}  // namespace srtree
