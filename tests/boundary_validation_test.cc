// Non-finite and out-of-domain input is rejected at the API boundary.
//
// Regressions: a query with a NaN coordinate used to return OK with zero
// neighbors (every MINDIST comparison against NaN is false, so the
// traversal pruned everything), one beyond the numeric domain returned k
// neighbors at distance inf, and an Insert of a NaN point (SR, SS and
// R* trees alike) was counted by size() but could never be found again.
// Finite points at ~1e154 (D=8) were stored, and SR and SS then disagreed
// with the scan on a quarter of the queries because squared distances
// overflowed to inf. Points inside the domain but large enough that region
// volumes overflow (~1e19 at D=16) crashed the R*, X and TV splits, whose
// overlap comparisons were all false on inf and so chose no distribution.
// More copies of one point than a K-D-B page holds aborted the process, as
// no split plane separates identical points.

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/sr_tree.h"
#include "src/index/index_factory.h"
#include "src/index/point_index.h"
#include "src/workload/uniform.h"
#include "tests/test_util.h"

namespace srtree {
namespace {

constexpr int kDim = 4;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<IndexType> AllIndexTypes() {
  return {IndexType::kSRTree,        IndexType::kSSTree,
          IndexType::kRStarTree,     IndexType::kKdbTree,
          IndexType::kVamSplitRTree, IndexType::kTvTree,
          IndexType::kScan,          IndexType::kStaticSRTree,
          IndexType::kTieredSRTree};
}

std::vector<Point> NonFinitePoints() {
  std::vector<Point> points;
  for (const double bad : {kNaN, kInf, -kInf}) {
    Point p(kDim, 0.5);
    p[1] = bad;
    points.push_back(p);
  }
  return points;
}

// Finite points just outside the numeric domain, in either sign.
std::vector<Point> OutOfDomainPoints() {
  const double beyond = std::nextafter(MaxCoordinateMagnitude(kDim), kInf);
  std::vector<Point> points;
  for (const double bad : {beyond, -beyond, 1e300}) {
    Point p(kDim, 0.5);
    p[2] = bad;
    points.push_back(p);
  }
  return points;
}

void ExpectRejected(const QueryResult& result) {
  EXPECT_TRUE(result.status.IsInvalidArgument()) << result.status.ToString();
  EXPECT_TRUE(result.neighbors.empty());
  EXPECT_EQ(result.io.reads, 0u);  // rejected before any traversal
}

// Every bad query is rejected, on the index and on a snapshot of it, for
// every search kind, before any page is read; a good query still works.
void ExpectQueriesRejected(IndexType type, const std::vector<Point>& bad) {
  auto index = testing::MakeSmallPageIndex(type, kDim);
  const Dataset data = MakeUniformDataset(300, kDim, /*seed=*/31);
  ASSERT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
  const std::unique_ptr<IndexSnapshot> snapshot = index->AcquireSnapshot();
  for (const Point& q : bad) {
    for (const QuerySpec& spec : {QuerySpec::Knn(5), QuerySpec::KnnBestFirst(5),
                                  QuerySpec::Range(0.5)}) {
      ExpectRejected(index->Search(q, spec));
      ExpectRejected(snapshot->Search(q, spec));
    }
  }
  const QueryResult ok = index->Search(Point(kDim, 0.5), QuerySpec::Knn(5));
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.neighbors.size(), 5u);
}

class NonFiniteQueryTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(NonFiniteQueryTest, RejectedByIndexAndSnapshot) {
  ExpectQueriesRejected(GetParam(), NonFinitePoints());
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, NonFiniteQueryTest,
                         ::testing::ValuesIn(AllIndexTypes()),
                         [](const ::testing::TestParamInfo<IndexType>& info) {
                           return testing::TypeToken(info.param);
                         });

// A finite query beyond the domain of stored points used to run, and every
// distance from it overflowed to inf: k "neighbors" at distance inf, tied
// and ranked by oid alone.
class OutOfDomainQueryTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(OutOfDomainQueryTest, RejectedByIndexAndSnapshot) {
  ExpectQueriesRejected(GetParam(), OutOfDomainPoints());
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, OutOfDomainQueryTest,
                         ::testing::ValuesIn(AllIndexTypes()),
                         [](const ::testing::TestParamInfo<IndexType>& info) {
                           return testing::TypeToken(info.param);
                         });

// Static structures take no single-point mutations (Unimplemented); the
// rest must reject a non-finite point before touching the index.
bool TakesPointMutations(IndexType type) {
  return type != IndexType::kVamSplitRTree &&
         type != IndexType::kStaticSRTree;
}

// Insert and Delete of each bad point fail without touching the index.
void ExpectPointMutationsRejected(IndexType type,
                                  const std::vector<Point>& bad_points) {
  auto index = testing::MakeSmallPageIndex(type, kDim);
  const Dataset data = MakeUniformDataset(200, kDim, /*seed=*/41);
  ASSERT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
  const uint64_t version = index->AcquireSnapshot()->version();
  for (const Point& p : bad_points) {
    const Status inserted = index->Insert(p, 9000);
    const Status deleted = index->Delete(p, 9000);
    EXPECT_FALSE(inserted.ok());
    EXPECT_FALSE(deleted.ok());
    if (TakesPointMutations(type)) {
      EXPECT_TRUE(inserted.IsInvalidArgument()) << inserted.ToString();
      EXPECT_TRUE(deleted.IsInvalidArgument()) << deleted.ToString();
    }
  }
  EXPECT_EQ(index->size(), 200u);
  EXPECT_EQ(index->AcquireSnapshot()->version(), version);
  EXPECT_TRUE(index->CheckInvariants().ok());
  EXPECT_EQ(index->Search(Point(kDim, 0.5), QuerySpec::Knn(500))
                .neighbors.size(),
            200u);
}

// BulkLoad validates every point before storing any: one bad point leaves
// the index empty and still loadable.
void ExpectBulkLoadRejected(IndexType type,
                           const std::vector<Point>& bad_points) {
  const Dataset data = MakeUniformDataset(150, kDim, /*seed=*/43);
  for (const Point& bad : bad_points) {
    auto index = testing::MakeSmallPageIndex(type, kDim);
    std::vector<Point> points = data.ToPoints();
    points[points.size() / 2] = bad;
    const Status status = index->BulkLoad(points, data.SequentialOids());
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_EQ(index->size(), 0u);
    EXPECT_TRUE(index->CheckInvariants().ok());
    ASSERT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
    EXPECT_EQ(index->Search(Point(kDim, 0.5), QuerySpec::Knn(500))
                  .neighbors.size(),
              150u);
  }
}

class NonFiniteMutationTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(NonFiniteMutationTest, InsertAndDeleteRejectedWithoutSideEffects) {
  ExpectPointMutationsRejected(GetParam(), NonFinitePoints());
}

TEST_P(NonFiniteMutationTest, BulkLoadRejectedBeforeStoringAnything) {
  ExpectBulkLoadRejected(GetParam(), NonFinitePoints());
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, NonFiniteMutationTest,
                         ::testing::ValuesIn(AllIndexTypes()),
                         [](const ::testing::TestParamInfo<IndexType>& info) {
                           return testing::TypeToken(info.param);
                         });

class OutOfDomainMutationTest
    : public ::testing::TestWithParam<IndexType> {};

TEST_P(OutOfDomainMutationTest, InsertAndDeleteRejectedWithoutSideEffects) {
  ExpectPointMutationsRejected(GetParam(), OutOfDomainPoints());
}

TEST_P(OutOfDomainMutationTest, BulkLoadRejectedBeforeStoringAnything) {
  ExpectBulkLoadRejected(GetParam(), OutOfDomainPoints());
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, OutOfDomainMutationTest,
                         ::testing::ValuesIn(AllIndexTypes()),
                         [](const ::testing::TestParamInfo<IndexType>& info) {
                           return testing::TypeToken(info.param);
                         });

// The domain boundary itself: the limit is accepted in either sign, the
// next double beyond it is not, and the promise behind the limit holds —
// two stored points at opposite corners of the domain, the farthest pair
// it admits, still rank by a finite distance in the scan and the SR-tree.
TEST(NumericDomainTest, ValidatePointBoundary) {
  for (const int dim : {1, 3, 8, 16, 64}) {
    SCOPED_TRACE(::testing::Message() << "dim " << dim);
    const double limit = MaxCoordinateMagnitude(dim);
    ASSERT_TRUE(std::isfinite(limit));
    EXPECT_TRUE(std::isfinite(dim * (2 * limit) * (2 * limit)));
    const double beyond = std::nextafter(limit, kInf);
    for (const double sign : {1.0, -1.0}) {
      Point p(dim, 0.0);
      p[dim - 1] = sign * limit;
      EXPECT_TRUE(ValidatePoint(p, dim).ok());
      p[dim - 1] = sign * beyond;
      EXPECT_TRUE(ValidatePoint(p, dim).IsInvalidArgument());
    }

    for (const IndexType type : {IndexType::kScan, IndexType::kSRTree}) {
      auto index = MakeIndex(type, IndexConfig{.dim = dim});
      const Point high(dim, limit);
      const Point low(dim, -limit);
      ASSERT_TRUE(index->Insert(high, 1).ok());
      ASSERT_TRUE(index->Insert(low, 2).ok());
      const QueryResult result = index->Search(high, QuerySpec::Knn(2));
      ASSERT_TRUE(result.status.ok());
      ASSERT_EQ(result.neighbors.size(), 2u);
      EXPECT_EQ(result.neighbors[1].oid, 2u);
      EXPECT_TRUE(std::isfinite(result.neighbors[1].distance));
    }
  }
}

// Every accepted magnitude builds a searchable tree. Each type takes a
// thousand uniform points in [-m, m]^D on small pages, so splits run at
// three or more levels. The point-mutation trees take them one Insert at a
// time; a point one rejects (K-D-B's fixed domain) must fail with
// InvalidArgument and leave size() unchanged. Every k-NN query must then
// match the scan over the accepted points, and again after the
// point-mutation trees delete every third accepted point. The magnitude
// parameter is a decimal exponent, or kMaxMagnitude for
// MaxCoordinateMagnitude(D).
constexpr int kMaxMagnitude = -1;

using MagnitudeParam = std::tuple<IndexType, int, int>;

class ExtremeMagnitudeTest : public ::testing::TestWithParam<MagnitudeParam> {
};

TEST_P(ExtremeMagnitudeTest, AcceptedPointsMatchScan) {
  const auto [type, dim, exponent] = GetParam();
  const double magnitude = exponent == kMaxMagnitude
                               ? MaxCoordinateMagnitude(dim)
                               : std::pow(10.0, exponent);
  const auto scaled = [&](const Dataset& data) {
    std::vector<Point> points = data.ToPoints();
    for (Point& p : points) {
      for (double& c : p) c = (2.0 * c - 1.0) * magnitude;
    }
    return points;
  };
  const std::vector<Point> points =
      scaled(MakeUniformDataset(1000, dim, /*seed=*/51));

  auto index = testing::MakeSmallPageIndex(type, dim);
  auto oracle = MakeIndex(IndexType::kScan, IndexConfig{.dim = dim});
  std::vector<uint32_t> accepted;
  if (TakesPointMutations(type)) {
    for (uint32_t oid = 0; oid < points.size(); ++oid) {
      const size_t before = index->size();
      const Status status = index->Insert(points[oid], oid);
      if (status.ok()) {
        ASSERT_TRUE(oracle->Insert(points[oid], oid).ok());
        accepted.push_back(oid);
      } else {
        EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
        EXPECT_EQ(index->size(), before);
      }
    }
  } else {
    std::vector<uint32_t> oids(points.size());
    for (uint32_t oid = 0; oid < oids.size(); ++oid) oids[oid] = oid;
    ASSERT_TRUE(index->BulkLoad(points, oids).ok());
    ASSERT_TRUE(oracle->BulkLoad(points, oids).ok());
  }
  const std::vector<Point> queries =
      scaled(MakeUniformDataset(20, dim, /*seed=*/53));
  const auto expect_matches_scan = [&] {
    ASSERT_EQ(index->size(), oracle->size());
    EXPECT_TRUE(index->CheckInvariants().ok());
    for (const Point& q : queries) {
      for (const QuerySpec& spec : {QuerySpec::Knn(10),
                                    QuerySpec::KnnBestFirst(10)}) {
        const QueryResult got = index->Search(q, spec);
        const QueryResult want = oracle->Search(q, spec);
        ASSERT_TRUE(got.status.ok()) << got.status.ToString();
        ASSERT_EQ(got.neighbors.size(), want.neighbors.size());
        for (size_t r = 0; r < want.neighbors.size(); ++r) {
          EXPECT_EQ(got.neighbors[r].oid, want.neighbors[r].oid)
              << "rank " << r;
          EXPECT_DOUBLE_EQ(got.neighbors[r].distance,
                           want.neighbors[r].distance)
              << "rank " << r;
        }
      }
    }
  };
  expect_matches_scan();

  // Deleting every third accepted point sends each delete's containment
  // test through the inner spheres at this magnitude, where distances can
  // be huge or inf, and condenses underfull nodes.
  if (!TakesPointMutations(type)) return;
  for (size_t i = 0; i < accepted.size(); i += 3) {
    const uint32_t oid = accepted[i];
    const Status status = index->Delete(points[oid], oid);
    ASSERT_TRUE(status.ok()) << "oid " << oid << ": " << status.ToString();
    ASSERT_TRUE(oracle->Delete(points[oid], oid).ok());
  }
  expect_matches_scan();
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, ExtremeMagnitudeTest,
    ::testing::Combine(::testing::ValuesIn(AllIndexTypes()),
                       ::testing::Values(8, 16),
                       ::testing::Values(0, 10, 18, 19, 40, 100, 150,
                                         kMaxMagnitude)),
    [](const ::testing::TestParamInfo<MagnitudeParam>& info) {
      const int exponent = std::get<2>(info.param);
      return testing::TypeToken(std::get<0>(info.param)) + "_D" +
             std::to_string(std::get<1>(info.param)) + "_" +
             (exponent == kMaxMagnitude ? std::string("Max")
                                        : "1e" + std::to_string(exponent));
    });

// Repeated points and shared oids. Every type takes 3 x leaf_capacity()
// copies of one point (distinct oids), then uniform points whose oids
// repeat, including exact repeats of a (point, oid) entry; the mutable
// types then delete some of each. No plane separates identical points, so
// K-D-B refuses a copy its point page cannot hold with FailedPrecondition
// and leaves size() unchanged; every other type takes them all. k-NN
// answers must match the scan over the accepted entries either way. The
// tiered index runs twice: built by Insert (every entry in its delta) and
// by BulkLoad (every entry in its static tier, so the deletes are
// tombstones over repeated copies).
class DuplicatePointTest : public ::testing::TestWithParam<IndexType> {};

void CheckRepeatedPointsMatchScan(IndexType type, bool bulk_load) {
  SCOPED_TRACE(bulk_load ? "built by BulkLoad" : "built by Insert");
  constexpr int kDupDim = 8;
  auto index = testing::MakeSmallPageIndex(type, kDupDim);
  auto oracle = MakeIndex(IndexType::kScan, IndexConfig{.dim = kDupDim});
  const size_t cap = index->leaf_capacity();
  const Point repeated(kDupDim, 0.5);

  std::vector<std::pair<Point, uint32_t>> entries;
  for (uint32_t oid = 0; oid < 3 * cap; ++oid) {
    entries.emplace_back(repeated, oid);
  }
  const std::vector<Point> uniform =
      MakeUniformDataset(300, kDupDim, /*seed=*/61).ToPoints();
  for (size_t i = 0; i < uniform.size(); ++i) {
    entries.emplace_back(uniform[i], static_cast<uint32_t>(i % 5));
  }
  entries.emplace_back(repeated, 0);      // an exact (point, oid) repeat
  entries.emplace_back(entries[3 * cap]);  // and one of a uniform point

  std::vector<std::pair<Point, uint32_t>> accepted;
  if (!bulk_load) {
    for (const auto& [point, oid] : entries) {
      const size_t before = index->size();
      const Status status = index->Insert(point, oid);
      if (!status.ok()) {
        // Only K-D-B refuses, and only copies its point page cannot hold.
        EXPECT_EQ(type, IndexType::kKdbTree);
        EXPECT_EQ(point, repeated);
        EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
            << status.ToString();
        EXPECT_EQ(index->size(), before);
        continue;
      }
      accepted.emplace_back(point, oid);
      ASSERT_TRUE(oracle->Insert(point, oid).ok());
    }
    // K-D-B's one point page takes exactly `cap` copies; the rest take all.
    const size_t first_uniform =
        type == IndexType::kKdbTree ? cap : 3 * cap;
    ASSERT_GT(accepted.size(), first_uniform);
    EXPECT_EQ(accepted[first_uniform].first, uniform[0]);
  } else {
    std::vector<Point> points;
    std::vector<uint32_t> oids;
    for (const auto& [point, oid] : entries) {
      points.push_back(point);
      oids.push_back(oid);
    }
    ASSERT_TRUE(index->BulkLoad(points, oids).ok());
    ASSERT_TRUE(oracle->BulkLoad(points, oids).ok());
    accepted = entries;
  }
  if (TakesPointMutations(type)) {
    // Delete every third accepted entry, copies and shared oids alike.
    for (size_t i = 0; i < accepted.size(); i += 3) {
      ASSERT_TRUE(index->Delete(accepted[i].first, accepted[i].second).ok());
      ASSERT_TRUE(oracle->Delete(accepted[i].first, accepted[i].second).ok());
    }
  }
  ASSERT_EQ(index->size(), oracle->size());
  EXPECT_TRUE(index->CheckInvariants().ok());

  std::vector<Point> queries = MakeUniformDataset(10, kDupDim, 63).ToPoints();
  queries.push_back(repeated);
  for (const Point& q : queries) {
    for (const QuerySpec& spec :
         {QuerySpec::Knn(10), QuerySpec::KnnBestFirst(10),
          QuerySpec::Knn(static_cast<int>(3 * cap + 10))}) {
      const QueryResult got = index->Search(q, spec);
      const QueryResult want = oracle->Search(q, spec);
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      ASSERT_EQ(got.neighbors.size(), want.neighbors.size());
      for (size_t r = 0; r < want.neighbors.size(); ++r) {
        EXPECT_EQ(got.neighbors[r].oid, want.neighbors[r].oid) << "rank " << r;
        EXPECT_EQ(got.neighbors[r].distance, want.neighbors[r].distance)
            << "rank " << r;
      }
    }
  }
}

TEST_P(DuplicatePointTest, RepeatedPointsAndOidsMatchScan) {
  const IndexType type = GetParam();
  CheckRepeatedPointsMatchScan(type, /*bulk_load=*/!TakesPointMutations(type));
  if (type == IndexType::kTieredSRTree) {
    CheckRepeatedPointsMatchScan(type, /*bulk_load=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, DuplicatePointTest,
                         ::testing::ValuesIn(AllIndexTypes()),
                         [](const ::testing::TestParamInfo<IndexType>& info) {
                           return testing::TypeToken(info.param);
                         });

}  // namespace
}  // namespace srtree
