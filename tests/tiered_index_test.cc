// TieredIndex: static tier + dynamic delta + tombstones. These tests cover
// delete-masking of static points (the tombstone path), re-insert after a
// tombstone, Compact() semantics (contents/version preserved, delta and
// tombstones drained, snapshot readers undisturbed), the Save/Open round
// trip through the factory, slot tombstones (one delete masks one stored
// copy, dead bits must name entries, a delete copies one bitmap chunk and
// pinned snapshots keep the old one), the one k-NN candidate set across
// both tiers (the delta prunes from the static tier's k-th distance; ties,
// a short or empty static tier and k above the size match the scan), and
// full mutation fuzz with a compaction schedule folded in.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/debug/fuzzer.h"
#include "src/debug/structural_auditor.h"
#include "src/index/brute_force.h"
#include "src/index/index_factory.h"
#include "src/statictier/tiered_index.h"
#include "src/storage/image_io.h"
#include "src/workload/queries.h"
#include "src/workload/uniform.h"

namespace srtree {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TieredIndex::Options SmallOptions(int dim) {
  TieredIndex::Options options;
  options.dim = dim;
  options.page_size = 1024;
  return options;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].oid, want[i].oid) << "rank " << i;
    EXPECT_NEAR(got[i].distance, want[i].distance, 1e-9) << "rank " << i;
  }
}

// Bulk-loads `n` points into the tiered index (→ static tier) and a
// brute-force oracle; returns the points for later targeting.
std::vector<Point> LoadBoth(TieredIndex& index, BruteForceIndex& oracle,
                            size_t n, int dim, uint64_t seed) {
  const Dataset data = MakeUniformDataset(n, dim, seed);
  std::vector<Point> points;
  std::vector<uint32_t> oids;
  for (size_t i = 0; i < data.size(); ++i) {
    points.emplace_back(data.point(i).begin(), data.point(i).end());
    oids.push_back(static_cast<uint32_t>(i));
  }
  EXPECT_TRUE(index.BulkLoad(points, oids).ok());
  EXPECT_TRUE(oracle.BulkLoad(points, oids).ok());
  return points;
}

TEST(TieredIndexTest, DeletesMaskStaticPointsInAllQueryKinds) {
  constexpr int kDim = 4;
  TieredIndex index(SmallOptions(kDim));
  BruteForceIndex::Options bf;
  bf.dim = kDim;
  BruteForceIndex oracle(bf);
  const std::vector<Point> points = LoadBoth(index, oracle, 1000, kDim, 43);

  // Delete every third static point: these become tombstones (the static
  // tier is immutable), and a few fresh inserts land in the delta.
  for (size_t i = 0; i < points.size(); i += 3) {
    ASSERT_TRUE(index.Delete(points[i], static_cast<uint32_t>(i)).ok());
    ASSERT_TRUE(oracle.Delete(points[i], static_cast<uint32_t>(i)).ok());
  }
  EXPECT_GT(index.tombstone_count_for_test(), 0u);
  for (size_t i = 0; i < 50; ++i) {
    Point p = points[i];
    p[0] += 0.37;
    const uint32_t oid = static_cast<uint32_t>(10000 + i);
    ASSERT_TRUE(index.Insert(p, oid).ok());
    ASSERT_TRUE(oracle.Insert(p, oid).ok());
  }
  EXPECT_EQ(index.size(), oracle.size());
  EXPECT_TRUE(index.CheckInvariants().ok());

  for (size_t qi = 0; qi < 20; ++qi) {
    const Point& q = points[qi * 7 % points.size()];
    ExpectSameNeighbors(index.Search(q, QuerySpec::Knn(10)).neighbors,
                        oracle.Search(q, QuerySpec::Knn(10)).neighbors);
    ExpectSameNeighbors(index.Search(q, QuerySpec::KnnBestFirst(10)).neighbors,
                        oracle.Search(q, QuerySpec::KnnBestFirst(10)).neighbors);
    const double radius =
        oracle.Search(q, QuerySpec::Knn(8)).neighbors.back().distance;
    ExpectSameNeighbors(index.Search(q, QuerySpec::Range(radius)).neighbors,
                        oracle.Search(q, QuerySpec::Range(radius)).neighbors);
  }
}

TEST(TieredIndexTest, ReinsertAfterTombstoneServesFromDelta) {
  constexpr int kDim = 3;
  TieredIndex index(SmallOptions(kDim));
  BruteForceIndex::Options bf;
  bf.dim = kDim;
  BruteForceIndex oracle(bf);
  const std::vector<Point> points = LoadBoth(index, oracle, 200, kDim, 47);

  // Delete a static pair, then insert the exact same (point, oid) again:
  // the delta copy must serve queries even though the tombstone persists.
  ASSERT_TRUE(index.Delete(points[5], 5).ok());
  ASSERT_TRUE(oracle.Delete(points[5], 5).ok());
  ASSERT_TRUE(index.Insert(points[5], 5).ok());
  ASSERT_TRUE(oracle.Insert(points[5], 5).ok());
  EXPECT_EQ(index.size(), oracle.size());

  const auto got = index.Search(points[5], QuerySpec::Knn(1)).neighbors;
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].oid, 5u);
  EXPECT_EQ(got[0].distance, 0.0);
  EXPECT_TRUE(index.CheckInvariants().ok());

  // Compacting afterwards folds everything back into one clean static tier.
  ASSERT_TRUE(index.Compact().ok());
  const auto after = index.Search(points[5], QuerySpec::Knn(1)).neighbors;
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].oid, 5u);
}

TEST(TieredIndexTest, CompactPreservesContentsVersionAndDrainsDelta) {
  constexpr int kDim = 4;
  TieredIndex index(SmallOptions(kDim));
  BruteForceIndex::Options bf;
  bf.dim = kDim;
  BruteForceIndex oracle(bf);
  const std::vector<Point> points = LoadBoth(index, oracle, 600, kDim, 53);

  for (size_t i = 0; i < points.size(); i += 5) {
    ASSERT_TRUE(index.Delete(points[i], static_cast<uint32_t>(i)).ok());
    ASSERT_TRUE(oracle.Delete(points[i], static_cast<uint32_t>(i)).ok());
  }
  for (size_t i = 0; i < 80; ++i) {
    Point p = points[i];
    p[1] += 0.21;
    ASSERT_TRUE(index.Insert(p, static_cast<uint32_t>(5000 + i)).ok());
    ASSERT_TRUE(oracle.Insert(p, static_cast<uint32_t>(5000 + i)).ok());
  }
  EXPECT_GT(index.delta_size_for_test(), 0u);
  EXPECT_GT(index.tombstone_count_for_test(), 0u);

  const uint64_t version_before = index.AcquireSnapshot()->version();
  const size_t size_before = index.size();
  ASSERT_TRUE(index.Compact().ok());

  // Representation changed, contents did not: delta and tombstones are
  // drained, size and version are untouched, queries still match.
  EXPECT_EQ(index.delta_size_for_test(), 0u);
  EXPECT_EQ(index.tombstone_count_for_test(), 0u);
  EXPECT_EQ(index.size(), size_before);
  EXPECT_EQ(index.AcquireSnapshot()->version(), version_before);
  EXPECT_TRUE(index.CheckInvariants().ok());
  EXPECT_TRUE(debug::StructuralAuditor().Audit(index).empty());
  for (size_t qi = 0; qi < 15; ++qi) {
    const Point& q = points[qi * 11 % points.size()];
    ExpectSameNeighbors(index.Search(q, QuerySpec::Knn(10)).neighbors,
                        oracle.Search(q, QuerySpec::Knn(10)).neighbors);
  }
}

TEST(TieredIndexTest, SnapshotPinnedBeforeCompactSeesOldContents) {
  constexpr int kDim = 3;
  TieredIndex index(SmallOptions(kDim));
  BruteForceIndex::Options bf;
  bf.dim = kDim;
  BruteForceIndex oracle(bf);
  const std::vector<Point> points = LoadBoth(index, oracle, 300, kDim, 59);

  const std::unique_ptr<IndexSnapshot> snap = index.AcquireSnapshot();
  const size_t snap_size = snap->size();

  // Mutate and compact AFTER the snapshot was pinned: the snapshot must
  // keep answering from the pre-mutation tiers.
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(index.Delete(points[i], static_cast<uint32_t>(i)).ok());
  }
  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.size(), points.size() - 100);

  EXPECT_EQ(snap->size(), snap_size);
  for (size_t qi = 0; qi < 10; ++qi) {
    const Point& q = points[qi];  // deleted from the live index, not the snap
    const auto got = snap->Search(q, QuerySpec::Knn(1)).neighbors;
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].oid, static_cast<uint32_t>(qi));
    EXPECT_EQ(got[0].distance, 0.0);
    // The live index must NOT return the deleted point at distance 0.
    const auto live = index.Search(q, QuerySpec::Knn(1)).neighbors;
    ASSERT_EQ(live.size(), 1u);
    EXPECT_NE(live[0].oid, static_cast<uint32_t>(qi));
  }
}

TEST(TieredIndexTest, SaveOpenRoundTripThroughFactory) {
  constexpr int kDim = 5;
  TieredIndex index(SmallOptions(kDim));
  BruteForceIndex::Options bf;
  bf.dim = kDim;
  BruteForceIndex oracle(bf);
  const std::vector<Point> points = LoadBoth(index, oracle, 800, kDim, 61);
  for (size_t i = 0; i < points.size(); i += 6) {
    ASSERT_TRUE(index.Delete(points[i], static_cast<uint32_t>(i)).ok());
    ASSERT_TRUE(oracle.Delete(points[i], static_cast<uint32_t>(i)).ok());
  }
  for (size_t i = 0; i < 40; ++i) {
    Point p = points[i];
    p[2] += 0.13;
    ASSERT_TRUE(index.Insert(p, static_cast<uint32_t>(7000 + i)).ok());
    ASSERT_TRUE(oracle.Insert(p, static_cast<uint32_t>(7000 + i)).ok());
  }

  const std::string path = TempPath("tiered.idx");
  ASSERT_TRUE(index.Save(path).ok());
  StatusOr<std::string> tag = PeekIndexImageTag(path);
  ASSERT_TRUE(tag.ok()) << tag.status().ToString();
  EXPECT_EQ(*tag, TieredIndex::kImageTag);

  auto reopened = OpenIndex(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), oracle.size());
  EXPECT_TRUE((*reopened)->CheckInvariants().ok());
  // The image holds one merged static tier; the restored delta is empty.
  auto* tiered = dynamic_cast<TieredIndex*>(reopened->get());
  ASSERT_NE(tiered, nullptr);
  EXPECT_EQ(tiered->delta_size_for_test(), 0u);
  EXPECT_EQ(tiered->tombstone_count_for_test(), 0u);

  for (size_t qi = 0; qi < 15; ++qi) {
    const Point& q = points[qi * 13 % points.size()];
    ExpectSameNeighbors((*reopened)->Search(q, QuerySpec::Knn(10)).neighbors,
                        oracle.Search(q, QuerySpec::Knn(10)).neighbors);
    const double radius =
        oracle.Search(q, QuerySpec::Knn(5)).neighbors.back().distance;
    ExpectSameNeighbors(
        (*reopened)->Search(q, QuerySpec::Range(radius)).neighbors,
        oracle.Search(q, QuerySpec::Range(radius)).neighbors);
  }

  // The reopened index stays fully mutable.
  ASSERT_TRUE(tiered->Insert(Point(kDim, 0.5), 99999).ok());
  ASSERT_TRUE(tiered->Delete(points[1], 1).ok());
  EXPECT_TRUE(tiered->CheckInvariants().ok());
}

// Two stored copies of one (point, oid) pair occupy two slots, and each
// Delete masks exactly one of them.
TEST(TieredIndexTest, DeleteMasksOneCopyOfARepeatedStaticPair) {
  TieredIndex index(SmallOptions(2));
  const Point repeated = {0.5, 0.5};
  ASSERT_TRUE(index.BulkLoad({repeated, {0.1, 0.9}, repeated}, {7, 8, 7}).ok());
  const auto hits = [&](const PointIndex& idx) {
    return idx.Search(repeated, QuerySpec::Range(0)).neighbors.size();
  };
  ASSERT_EQ(hits(index), 2u);

  ASSERT_TRUE(index.Delete(repeated, 7).ok());
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(hits(index), 1u);
  EXPECT_TRUE(index.CheckInvariants().ok());

  const std::string mid_path = TempPath("tiered_repeat_mid.idx");
  ASSERT_TRUE(index.Save(mid_path).ok());
  auto mid = OpenIndex(mid_path);
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  EXPECT_EQ((*mid)->size(), 2u);
  EXPECT_EQ(hits(**mid), 1u);

  ASSERT_TRUE(index.Delete(repeated, 7).ok());
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(hits(index), 0u);
  EXPECT_TRUE(index.Delete(repeated, 7).IsNotFound());
  EXPECT_TRUE(index.CheckInvariants().ok());

  const Status compacted = index.Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.ToString();
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(hits(index), 0u);
  EXPECT_TRUE(index.CheckInvariants().ok());

  const std::string path = TempPath("tiered_repeat.idx");
  const Status saved = index.Save(path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  auto reopened = OpenIndex(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), 1u);
  EXPECT_EQ(hits(**reopened), 0u);
  EXPECT_TRUE((*reopened)->CheckInvariants().ok());
}

// A dead bit must name a stored entry: one past a leaf's count, or past
// every leaf, is Corruption even when the size bookkeeping agrees with it.
TEST(TieredIndexTest, CheckInvariantsRejectsDeadSlotsThatNameNoEntry) {
  constexpr int kDim = 3;
  // Five points fit one leaf: slots 0-4 hold entries, 5.. do not.
  const std::vector<Point> points = MakeUniformDataset(5, kDim, 71).ToPoints();
  const std::vector<uint32_t> oids = {0, 1, 2, 3, 4};

  TieredIndex past_count(SmallOptions(kDim));
  ASSERT_TRUE(past_count.BulkLoad(points, oids).ok());
  ASSERT_GT(past_count.leaf_capacity(), 6u);
  past_count.MarkSlotDeadForTest(5);
  EXPECT_EQ(past_count.size(), 4u);
  const Status status = past_count.CheckInvariants();
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("past its leaf's count"), std::string::npos)
      << status.ToString();

  TieredIndex past_leaves(SmallOptions(kDim));
  ASSERT_TRUE(past_leaves.BulkLoad(points, oids).ok());
  past_leaves.MarkSlotDeadForTest(past_leaves.leaf_capacity());
  const Status no_leaf = past_leaves.CheckInvariants();
  EXPECT_TRUE(no_leaf.IsCorruption()) << no_leaf.ToString();
  EXPECT_NE(no_leaf.ToString().find("no static-tier leaf"), std::string::npos)
      << no_leaf.ToString();

  // A real entry's slot passes, and an extra dead bit the size does not
  // account for fails the count check.
  TieredIndex valid(SmallOptions(kDim));
  ASSERT_TRUE(valid.BulkLoad(points, oids).ok());
  valid.MarkSlotDeadForTest(2);
  EXPECT_TRUE(valid.CheckInvariants().ok());
  ASSERT_TRUE(valid.Insert(points[0], 99).ok());
  ASSERT_TRUE(valid.Delete(points[0], 99).ok());
  EXPECT_TRUE(valid.CheckInvariants().ok());
}

// Bulk-loads enough points that the static tier spans several bitmap
// chunks, so deletes can land in different ones.
std::vector<Point> LoadMultiChunk(TieredIndex& index) {
  constexpr int kDim = 3;
  const size_t n = 3 * TombstoneBitmap::kSlotsPerChunk;
  std::vector<Point> points = MakeUniformDataset(n, kDim, 79).ToPoints();
  std::vector<uint32_t> oids(n);
  for (size_t i = 0; i < n; ++i) oids[i] = static_cast<uint32_t>(i);
  EXPECT_TRUE(index.BulkLoad(points, oids).ok());
  return points;
}

// The one chunk index where two bitmaps hold different chunks, or -1 when
// they differ in none or in several.
int OnlyChangedChunk(const TombstoneBitmap& before,
                     const TombstoneBitmap& after) {
  int changed = -1;
  const size_t n = std::max(before.chunk_count(), after.chunk_count());
  for (size_t c = 0; c < n; ++c) {
    if (before.chunk(c) == after.chunk(c)) continue;
    if (changed != -1) return -1;
    changed = static_cast<int>(c);
  }
  return changed;
}

TEST(TieredIndexTest, DeleteCopiesExactlyOneBitmapChunk) {
  TieredIndex index(SmallOptions(3));
  const std::vector<Point> points = LoadMultiChunk(index);
  std::set<int> chunks_touched;
  for (size_t i = 0; i < points.size(); i += 97) {
    const std::shared_ptr<const TombstoneBitmap> before =
        index.tombstones_for_test();
    ASSERT_TRUE(index.Delete(points[i], static_cast<uint32_t>(i)).ok());
    const std::shared_ptr<const TombstoneBitmap> after =
        index.tombstones_for_test();
    const int changed = OnlyChangedChunk(*before, *after);
    ASSERT_GE(changed, 0) << "delete " << i;
    chunks_touched.insert(changed);
    EXPECT_EQ(after->count(), before->count() + 1);
    // The old version still holds its own chunk, unmodified.
    size_t old_bits = 0;
    before->ForEachSet([&](uint64_t) { ++old_bits; });
    EXPECT_EQ(old_bits, before->count());
  }
  EXPECT_GE(chunks_touched.size(), 2u);
  EXPECT_TRUE(index.CheckInvariants().ok());
}

TEST(TieredIndexTest, SnapshotPinnedBeforeDeleteKeepsThePair) {
  TieredIndex index(SmallOptions(3));
  const std::vector<Point> points = LoadMultiChunk(index);
  // Delete points until two deletes have landed in different chunks; each
  // must be visible to a snapshot taken after it and to none taken before.
  std::set<int> chunks;
  std::vector<std::pair<size_t, std::unique_ptr<IndexSnapshot>>> pinned;
  for (size_t i = 0; i < points.size() && chunks.size() < 2; i += 131) {
    const uint32_t oid = static_cast<uint32_t>(i);
    const std::shared_ptr<const TombstoneBitmap> before =
        index.tombstones_for_test();
    std::unique_ptr<IndexSnapshot> earlier = index.AcquireSnapshot();
    ASSERT_TRUE(index.Delete(points[i], oid).ok());
    std::unique_ptr<IndexSnapshot> later = index.AcquireSnapshot();
    const int changed =
        OnlyChangedChunk(*before, *index.tombstones_for_test());
    ASSERT_GE(changed, 0);
    if (!chunks.insert(changed).second) continue;

    const auto nearest = [&](const IndexSnapshot& snap) {
      return snap.Search(points[i], QuerySpec::Knn(1)).neighbors;
    };
    ASSERT_EQ(nearest(*earlier).size(), 1u);
    EXPECT_EQ(nearest(*earlier)[0].oid, oid);
    EXPECT_EQ(nearest(*earlier)[0].distance, 0.0);
    EXPECT_EQ(earlier->size(), later->size() + 1);
    ASSERT_EQ(nearest(*later).size(), 1u);
    EXPECT_NE(nearest(*later)[0].oid, oid);
    pinned.emplace_back(i, std::move(earlier));
  }
  ASSERT_EQ(chunks.size(), 2u);
  // Still isolated after more deletes and a compaction.
  for (size_t i = 1; i < 400; i += 2) {
    if (i % 131 == 0) continue;  // deleted above
    ASSERT_TRUE(index.Delete(points[i], static_cast<uint32_t>(i)).ok());
  }
  ASSERT_TRUE(index.Compact().ok());
  for (const auto& [i, snap] : pinned) {
    const auto got = snap->Search(points[i], QuerySpec::Knn(1)).neighbors;
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].oid, static_cast<uint32_t>(i));
  }
}

// k-NN and best-first answers of `index` for `query` must equal the scan's
// neighbor for neighbor (oid and distance), and every read must be a leaf
// or an inner one.
void ExpectKnnMatchesScan(const PointIndex& index,
                          const BruteForceIndex& oracle, PointView query,
                          int k) {
  for (const QuerySpec& spec : {QuerySpec::Knn(k), QuerySpec::KnnBestFirst(k)}) {
    const QueryResult got = index.Search(query, spec);
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    const std::vector<Neighbor> want = oracle.Search(query, spec).neighbors;
    ASSERT_EQ(got.neighbors.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.neighbors[i].oid, want[i].oid) << "rank " << i;
      EXPECT_EQ(got.neighbors[i].distance, want[i].distance) << "rank " << i;
    }
    EXPECT_EQ(got.io.reads, got.io.leaf_reads + got.io.nonleaf_reads);
  }
}

// Inserts `n` uniform points into the delta of `index` and into `oracle`,
// with oids from `first_oid`.
void InsertBoth(TieredIndex& index, BruteForceIndex& oracle, size_t n,
                int dim, uint64_t seed, uint32_t first_oid) {
  const Dataset data = MakeUniformDataset(n, dim, seed);
  for (size_t i = 0; i < data.size(); ++i) {
    const uint32_t oid = first_oid + static_cast<uint32_t>(i);
    ASSERT_TRUE(index.Insert(data.point(i), oid).ok());
    ASSERT_TRUE(oracle.Insert(data.point(i), oid).ok());
  }
}

// The delta's k-NN starts from the static tier's candidates: with the
// query's neighborhood in the static tier and the delta a far cluster, the
// delta reads only its root, whose children all lie beyond the static
// tier's k-th distance. Searching the delta from an empty candidate set
// would descend to at least one of its leaves.
TEST(TieredIndexTest, DeltaSearchStartsFromStaticCandidates) {
  constexpr int kDim = 4;
  constexpr size_t kStatic = 1000;
  constexpr int kK = 21;
  TieredIndex index(SmallOptions(kDim));
  BruteForceIndex::Options bf;
  bf.dim = kDim;
  BruteForceIndex oracle(bf);
  const std::vector<Point> points = LoadBoth(index, oracle, kStatic, kDim, 67);

  IndexConfig config;
  config.dim = kDim;
  config.page_size = SmallOptions(kDim).page_size;
  const std::unique_ptr<PointIndex> standalone =
      MakeIndex(IndexType::kStaticSRTree, config);
  std::vector<uint32_t> oids(kStatic);
  for (size_t i = 0; i < kStatic; ++i) oids[i] = static_cast<uint32_t>(i);
  ASSERT_TRUE(standalone->BulkLoad(points, oids).ok());

  for (size_t i = 0; i < 300; ++i) {
    Point far = points[i];
    for (double& x : far) x += 10.0;
    ASSERT_TRUE(index.Insert(far, static_cast<uint32_t>(5000 + i)).ok());
  }
  // At least two delta pages: the root is an inner node.
  ASSERT_GE(index.GetTreeStats().node_count,
            standalone->GetTreeStats().node_count + 2);

  for (size_t qi = 0; qi < 20; ++qi) {
    const Point& q = points[qi * 37 % kStatic];
    for (const QuerySpec& spec :
         {QuerySpec::Knn(kK), QuerySpec::KnnBestFirst(kK)}) {
      const QueryResult got = index.Search(q, spec);
      const QueryResult want = standalone->Search(q, spec);
      ASSERT_TRUE(got.status.ok());
      ExpectSameNeighbors(got.neighbors, want.neighbors);
      EXPECT_EQ(got.io.reads, want.io.reads + 1) << "query " << qi;
      EXPECT_EQ(got.io.nonleaf_reads, want.io.nonleaf_reads + 1);
      EXPECT_EQ(got.io.leaf_reads, want.io.leaf_reads);
    }
  }
}

// A k-th rank tied at equal distance across the tiers goes to the smaller
// oid, whichever tier holds it: (3, 0) in the static tier and (0, 3) in the
// delta are both at distance 3 from the origin, behind (1, 0) and (0, 2).
TEST(TieredIndexTest, KnnTieAcrossTiersGoesToSmallerOid) {
  constexpr int kDim = 2;
  for (const bool static_smaller : {true, false}) {
    SCOPED_TRACE(static_smaller ? "static oid smaller" : "delta oid smaller");
    TieredIndex index(SmallOptions(kDim));
    BruteForceIndex::Options bf;
    bf.dim = kDim;
    BruteForceIndex oracle(bf);
    // Filler in [4, 5]^2 (oids 0..299), then the near points.
    const Dataset filler = MakeUniformDataset(300, kDim, 71);
    std::vector<Point> points;
    std::vector<uint32_t> oids;
    for (size_t i = 0; i < filler.size(); ++i) {
      Point p(filler.point(i).begin(), filler.point(i).end());
      for (double& x : p) x += 4.0;
      points.push_back(p);
      oids.push_back(static_cast<uint32_t>(i));
    }
    points.push_back({1.0, 0.0});
    oids.push_back(400);
    points.push_back({0.0, 2.0});
    oids.push_back(401);
    points.push_back({3.0, 0.0});
    oids.push_back(static_smaller ? 402 : 600);
    ASSERT_TRUE(index.BulkLoad(points, oids).ok());
    ASSERT_TRUE(oracle.BulkLoad(points, oids).ok());

    for (size_t i = 0; i < 100; ++i) {
      Point p(filler.point(i).begin(), filler.point(i).end());
      for (double& x : p) x += 4.5;
      const uint32_t oid = static_cast<uint32_t>(1000 + i);
      ASSERT_TRUE(index.Insert(p, oid).ok());
      ASSERT_TRUE(oracle.Insert(p, oid).ok());
    }
    const uint32_t delta_oid = static_smaller ? 600 : 402;
    ASSERT_TRUE(index.Insert(Point{0.0, 3.0}, delta_oid).ok());
    ASSERT_TRUE(oracle.Insert(Point{0.0, 3.0}, delta_oid).ok());

    const Point origin = {0.0, 0.0};
    ExpectKnnMatchesScan(index, oracle, origin, 3);
    const std::vector<Neighbor> got =
        index.Search(origin, QuerySpec::Knn(3)).neighbors;
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[2].oid, 402u);
    EXPECT_EQ(got[2].distance, 3.0);
    ExpectKnnMatchesScan(index, oracle, origin, 4);
  }
}

// The static tier holds fewer than k live points once tombstones mask most
// of it, so its candidate set is not full when the delta starts.
TEST(TieredIndexTest, KnnWithFewerThanKLiveStaticPointsMatchesScan) {
  constexpr int kDim = 3;
  TieredIndex index(SmallOptions(kDim));
  BruteForceIndex::Options bf;
  bf.dim = kDim;
  BruteForceIndex oracle(bf);
  const std::vector<Point> points = LoadBoth(index, oracle, 12, kDim, 73);
  for (size_t i = 0; i < 9; ++i) {
    ASSERT_TRUE(index.Delete(points[i], static_cast<uint32_t>(i)).ok());
    ASSERT_TRUE(oracle.Delete(points[i], static_cast<uint32_t>(i)).ok());
  }
  InsertBoth(index, oracle, 120, kDim, 79, 1000);
  for (const Point& q : points) ExpectKnnMatchesScan(index, oracle, q, 10);
}

// An empty static tier reads nothing and leaves the whole k-NN to the delta.
TEST(TieredIndexTest, KnnWithEmptyStaticTierMatchesScan) {
  constexpr int kDim = 3;
  TieredIndex index(SmallOptions(kDim));
  BruteForceIndex::Options bf;
  bf.dim = kDim;
  BruteForceIndex oracle(bf);
  InsertBoth(index, oracle, 150, kDim, 83, 0);
  const Dataset queries = MakeUniformDataset(10, kDim, 89);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectKnnMatchesScan(index, oracle, queries.point(i), 7);
  }
}

// k above the index size returns every live point of both tiers.
TEST(TieredIndexTest, KnnWithKAboveSizeReturnsEveryLivePoint) {
  constexpr int kDim = 3;
  TieredIndex index(SmallOptions(kDim));
  BruteForceIndex::Options bf;
  bf.dim = kDim;
  BruteForceIndex oracle(bf);
  const std::vector<Point> points = LoadBoth(index, oracle, 10, kDim, 97);
  ASSERT_TRUE(index.Delete(points[3], 3).ok());
  ASSERT_TRUE(oracle.Delete(points[3], 3).ok());
  InsertBoth(index, oracle, 6, kDim, 101, 1000);
  ASSERT_EQ(index.size(), 15u);
  for (const Point& q : points) {
    ExpectKnnMatchesScan(index, oracle, q, 50);
    EXPECT_EQ(index.Search(q, QuerySpec::Knn(50)).neighbors.size(), 15u);
  }
}

// Full mutation fuzz through the factory, with a compaction every other
// batch folded into the schedule: results must stay oracle-exact and the
// audit clean across insert/delete/compact interleavings.
TEST(TieredIndexTest, MutationFuzzWithCompactionSchedule) {
  IndexConfig config;
  config.dim = 4;
  config.page_size = 1024;
  config.leaf_data_size = 0;
  std::unique_ptr<PointIndex> index =
      MakeIndex(IndexType::kTieredSRTree, config);

  debug::FuzzOptions options;
  options.seed = 818;
  options.num_mutations = 3000;
  options.batch_size = 250;
  options.initial_points = 1500;
  options.compact_every_batches = 2;

  debug::MutationFuzzer fuzzer(options);
  const Status status = fuzzer.Run(index);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(fuzzer.stats().compacts, 5u);
}

// Save/Open round-trips interleaved with mutations AND compactions.
TEST(TieredIndexTest, MutationFuzzWithReopenAndCompaction) {
  IndexConfig config;
  config.dim = 4;
  config.page_size = 1024;
  config.leaf_data_size = 0;
  std::unique_ptr<PointIndex> index =
      MakeIndex(IndexType::kTieredSRTree, config);

  const std::string path = TempPath("tiered_fuzz_roundtrip.idx");
  debug::FuzzOptions options;
  options.seed = 919;
  options.num_mutations = 2000;
  options.batch_size = 250;
  options.initial_points = 1000;
  options.compact_every_batches = 3;
  options.reopen_every_batches = 4;

  debug::MutationFuzzer fuzzer(options);
  const Status status = fuzzer.Run(
      index,
      [&path](PointIndex& current) -> StatusOr<std::unique_ptr<PointIndex>> {
        RETURN_IF_ERROR(current.Save(path));
        return OpenIndex(path);
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(fuzzer.stats().reopens, 1u);
  EXPECT_GE(fuzzer.stats().compacts, 1u);
}

}  // namespace
}  // namespace srtree
