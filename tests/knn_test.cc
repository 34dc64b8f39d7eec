#include "src/index/knn.h"

#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/index/index_factory.h"

namespace srtree {
namespace {

TEST(KnnCandidatesTest, InfinitePruneDistanceUntilFull) {
  KnnCandidates cand(3);
  EXPECT_EQ(cand.PruneDistance(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(cand.PruneDistanceSquared(),
            std::numeric_limits<double>::infinity());
  cand.OfferSquared(1.0, 1);
  cand.OfferSquared(4.0, 2);
  EXPECT_FALSE(cand.full());
  EXPECT_EQ(cand.PruneDistance(), std::numeric_limits<double>::infinity());
  cand.OfferSquared(9.0, 3);
  EXPECT_TRUE(cand.full());
  EXPECT_DOUBLE_EQ(cand.PruneDistanceSquared(), 9.0);
  EXPECT_DOUBLE_EQ(cand.PruneDistance(), 3.0);
}

TEST(KnnCandidatesTest, KeepsKBest) {
  KnnCandidates cand(2);
  cand.OfferSquared(25.0, 1);
  cand.OfferSquared(1.0, 2);
  cand.OfferSquared(9.0, 3);
  cand.OfferSquared(0.25, 4);
  const std::vector<Neighbor> result = cand.TakeSorted();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].oid, 4u);
  EXPECT_DOUBLE_EQ(result[0].distance, 0.5);
  EXPECT_EQ(result[1].oid, 2u);
  EXPECT_DOUBLE_EQ(result[1].distance, 1.0);
}

TEST(KnnCandidatesTest, WorseCandidatesRejected) {
  KnnCandidates cand(1);
  cand.OfferSquared(1.0, 1);
  cand.OfferSquared(4.0, 2);
  EXPECT_DOUBLE_EQ(cand.PruneDistance(), 1.0);
  const std::vector<Neighbor> result = cand.TakeSorted();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].oid, 1u);
}

TEST(KnnCandidatesTest, TiesBrokenBySmallerOid) {
  KnnCandidates cand(2);
  cand.OfferSquared(1.0, 9);
  cand.OfferSquared(1.0, 3);
  cand.OfferSquared(1.0, 5);
  const std::vector<Neighbor> result = cand.TakeSorted();
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].oid, 3u);
  EXPECT_EQ(result[1].oid, 5u);
}

TEST(NeighborOrderTest, CanonicalOrderingByDistanceThenOid) {
  const Neighbor near{1.0, 9};
  const Neighbor far{2.0, 1};
  const Neighbor near_twin{1.0, 12};
  EXPECT_TRUE(near < far);
  EXPECT_TRUE(near < near_twin);
  EXPECT_FALSE(near_twin < near);
  EXPECT_FALSE(near < near);
}

// Regression for duplicate distances: four points equidistant from the
// query must come back in ascending oid order from every index structure,
// regardless of insertion order. Before Neighbor::operator< each tree
// carried its own tie-break.
TEST(NeighborOrderTest, DuplicateDistancesOrderedByOidInEveryIndex) {
  const Point query{0.5, 0.5};
  const double d = 0.125;
  // Insertion order deliberately scrambled relative to oid order.
  const std::vector<Point> points = {{0.5, 0.5 + d},
                                     {0.5 - d, 0.5},
                                     {0.5, 0.5 - d},
                                     {0.5 + d, 0.5}};
  const std::vector<uint32_t> oids = {7, 3, 9, 1};

  IndexConfig config;
  config.dim = 2;
  config.page_size = 512;
  config.leaf_data_size = 0;
  std::vector<IndexType> types = AllTreeTypes();
  types.push_back(IndexType::kTvTree);
  types.push_back(IndexType::kScan);
  for (const IndexType type : types) {
    std::unique_ptr<PointIndex> index = MakeIndex(type, config);
    ASSERT_TRUE(index->BulkLoad(points, oids).ok()) << IndexTypeName(type);
    for (const QuerySpec& spec :
         {QuerySpec::Knn(4), QuerySpec::KnnBestFirst(4),
          QuerySpec::Range(d + 0.01)}) {
      const QueryResult result = index->Search(query, spec);
      ASSERT_TRUE(result.status.ok()) << IndexTypeName(type);
      ASSERT_EQ(result.neighbors.size(), 4u) << IndexTypeName(type);
      const std::vector<uint32_t> want = {1, 3, 7, 9};
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(result.neighbors[i].oid, want[i])
            << IndexTypeName(type) << " result " << i;
        EXPECT_DOUBLE_EQ(result.neighbors[i].distance, d)
            << IndexTypeName(type);
      }
    }
  }
}

TEST(KnnCandidatesTest, SortedOutputStableUnderInsertionOrder) {
  KnnCandidates a(4), b(4);
  const double ds[] = {16.0, 1.0, 9.0, 4.0, 25.0};
  for (int i = 0; i < 5; ++i) a.OfferSquared(ds[i], static_cast<uint32_t>(i));
  for (int i = 4; i >= 0; --i) b.OfferSquared(ds[i], static_cast<uint32_t>(i));
  EXPECT_EQ(a.TakeSorted(), b.TakeSorted());
}

}  // namespace
}  // namespace srtree
