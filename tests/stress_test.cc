// Randomized differential stress test: long streams of mixed operations
// (insert, delete, k-NN, range query) run against every dynamic tree and a
// brute-force reference, with invariants checked along the way. Points are
// drawn from a coarse grid so duplicate coordinates occur naturally.

#include <memory>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/index/brute_force.h"
#include "tests/test_util.h"

namespace srtree {
namespace {

using testing::MakeSmallPageIndex;
using testing::TypeToken;

struct StressParam {
  IndexType type;
  uint64_t seed;
};

// Without this gtest prints the parameter as its raw bytes, padding
// included, which puts per-build garbage into each ctest name.
void PrintTo(const StressParam& param, std::ostream* os) {
  *os << TypeToken(param.type) << " seed " << param.seed;
}

std::string ParamName(const ::testing::TestParamInfo<StressParam>& info) {
  return TypeToken(info.param.type) + "_seed" +
         std::to_string(info.param.seed);
}

class StressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(StressTest, RandomOperationStreamMatchesReference) {
  constexpr int kDim = 4;
  constexpr int kOps = 1200;
  Xoshiro256 rng(GetParam().seed);

  auto index = MakeSmallPageIndex(GetParam().type, kDim);
  BruteForceIndex::Options ref_options;
  ref_options.dim = kDim;
  BruteForceIndex reference(ref_options);

  // Live (point, oid) pairs for deletions.
  std::vector<std::pair<Point, uint32_t>> live;
  uint32_t next_oid = 0;

  auto random_point = [&] {
    Point p(kDim);
    // A 12^4 grid: collisions (duplicate points) happen regularly.
    for (double& c : p) c = static_cast<double>(rng.NextBounded(12)) / 12.0;
    return p;
  };

  for (int op = 0; op < kOps; ++op) {
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 50 || live.empty()) {
      const Point p = random_point();
      const uint32_t oid = next_oid++;
      ASSERT_TRUE(index->Insert(p, oid).ok());
      ASSERT_TRUE(reference.Insert(p, oid).ok());
      live.emplace_back(p, oid);
    } else if (dice < 70) {
      const size_t victim = rng.NextBounded(live.size());
      const auto [p, oid] = live[victim];
      ASSERT_TRUE(index->Delete(p, oid).ok()) << "op " << op;
      ASSERT_TRUE(reference.Delete(p, oid).ok());
      live[victim] = live.back();
      live.pop_back();
    } else if (dice < 90) {
      const Point q = random_point();
      const int k = 1 + static_cast<int>(rng.NextBounded(8));
      const auto actual = index->Search(q, QuerySpec::Knn(k)).neighbors;
      const auto expected = reference.Search(q, QuerySpec::Knn(k)).neighbors;
      ASSERT_EQ(actual.size(), expected.size()) << "op " << op;
      for (size_t i = 0; i < actual.size(); ++i) {
        ASSERT_EQ(actual[i].oid, expected[i].oid) << "op " << op;
      }
    } else {
      const Point q = random_point();
      const double radius = rng.Uniform(0.05, 0.5);
      const auto actual = index->Search(q, QuerySpec::Range(radius)).neighbors;
      const auto expected =
          reference.Search(q, QuerySpec::Range(radius)).neighbors;
      ASSERT_EQ(actual.size(), expected.size()) << "op " << op;
      for (size_t i = 0; i < actual.size(); ++i) {
        ASSERT_EQ(actual[i].oid, expected[i].oid) << "op " << op;
      }
    }
    if (op % 200 == 199) {
      const Status status = index->CheckInvariants();
      ASSERT_TRUE(status.ok()) << status.ToString() << " at op " << op;
      ASSERT_EQ(index->size(), reference.size());
    }
  }
}

std::vector<StressParam> AllStressParams() {
  std::vector<StressParam> params;
  for (const IndexType type :
       {IndexType::kSRTree, IndexType::kSSTree, IndexType::kRStarTree,
        IndexType::kKdbTree, IndexType::kTvTree}) {
    for (const uint64_t seed : {101u, 202u, 303u}) {
      params.push_back(StressParam{type, seed});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(DynamicTrees, StressTest,
                         ::testing::ValuesIn(AllStressParams()), ParamName);

}  // namespace
}  // namespace srtree
