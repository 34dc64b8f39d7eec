// Mutation-fuzz harness run: every tree variant is driven through seeded
// randomized interleavings of Insert / Delete / Search() in all three
// query kinds (plus Save/OpenIndex round-trips for every
// dynamic tree), cross-checked against the brute-force oracle, with the
// structural auditor run after every batch. Seeds are fixed, so a failure
// reproduces from the log.

#include <memory>
#include <ostream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/debug/fuzzer.h"
#include "src/index/index_factory.h"
#include "tests/test_util.h"

namespace srtree {
namespace {

using testing::MakeSmallPageIndex;
using testing::TypeToken;

struct FuzzParam {
  IndexType type;
  uint64_t seed;
};

// Without this gtest prints the parameter as its raw bytes, padding
// included, which puts per-build garbage into each ctest name.
void PrintTo(const FuzzParam& param, std::ostream* os) {
  *os << TypeToken(param.type) << " seed " << param.seed;
}

std::string ParamName(const ::testing::TestParamInfo<FuzzParam>& info) {
  return TypeToken(info.param.type) + "_seed" +
         std::to_string(info.param.seed);
}

class MutationFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(MutationFuzzTest, RandomizedOpsMatchBruteForceAndStayAudited) {
  constexpr int kDim = 4;
  std::unique_ptr<PointIndex> index =
      MakeSmallPageIndex(GetParam().type, kDim);

  debug::FuzzOptions options;
  options.seed = GetParam().seed;
  options.num_mutations = 5000;
  options.batch_size = 250;

  debug::MutationFuzzer fuzzer(options);
  const Status status = fuzzer.Run(index);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(fuzzer.stats().inserts + fuzzer.stats().deletes +
                fuzzer.stats().missing_deletes,
            options.num_mutations);
  EXPECT_GE(fuzzer.stats().audits, options.num_mutations / options.batch_size);
}

// The six dynamic tree variants, two fixed seeds each.
INSTANTIATE_TEST_SUITE_P(
    AllDynamicTrees, MutationFuzzTest,
    ::testing::Values(FuzzParam{IndexType::kSRTree, 101},
                      FuzzParam{IndexType::kSRTree, 202},
                      FuzzParam{IndexType::kSSTree, 101},
                      FuzzParam{IndexType::kSSTree, 202},
                      FuzzParam{IndexType::kRStarTree, 101},
                      FuzzParam{IndexType::kRStarTree, 202},
                      FuzzParam{IndexType::kKdbTree, 101},
                      FuzzParam{IndexType::kKdbTree, 202},
                      FuzzParam{IndexType::kTvTree, 101},
                      FuzzParam{IndexType::kTvTree, 202}),
    ParamName);

// The static VAMSplit R-tree cannot absorb mutations; it gets a bulk load
// followed by query-only batches with the auditor enabled.
TEST(MutationFuzzStaticTest, VamSplitQueryOnlyFuzz) {
  constexpr int kDim = 4;
  std::unique_ptr<PointIndex> index =
      MakeSmallPageIndex(IndexType::kVamSplitRTree, kDim);

  debug::FuzzOptions options;
  options.seed = 303;
  options.num_mutations = 0;
  options.initial_points = 3000;
  options.query_only_batches = 10;
  options.knn_queries_per_batch = 25;
  options.range_queries_per_batch = 25;

  debug::MutationFuzzer fuzzer(options);
  const Status status = fuzzer.Run(index);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(fuzzer.stats().knn_queries, 250u);
}

// Save/Open round-trips interleaved into the mutation schedule, through
// the virtual PointIndex::Save and the factory OpenIndex dispatch: the
// reopened tree must hold identical contents and still pass the audit.
class MutationFuzzPersistenceTest
    : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(MutationFuzzPersistenceTest, SurvivesSaveOpenRoundTrips) {
  constexpr int kDim = 4;
  std::unique_ptr<PointIndex> index =
      MakeSmallPageIndex(GetParam().type, kDim);

  const std::string path = ::testing::TempDir() + "/fuzz_roundtrip_" +
                           TypeToken(GetParam().type) + ".idx";

  debug::FuzzOptions options;
  options.seed = GetParam().seed;
  options.num_mutations = 5000;
  options.batch_size = 250;
  options.reopen_every_batches = 4;

  debug::MutationFuzzer fuzzer(options);
  const Status status = fuzzer.Run(
      index,
      [&path](PointIndex& current)
          -> StatusOr<std::unique_ptr<PointIndex>> {
        RETURN_IF_ERROR(current.Save(path));
        return OpenIndex(path);
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(fuzzer.stats().reopens, 4u);
}

// Every dynamic tree variant goes through the generic persistence path.
INSTANTIATE_TEST_SUITE_P(
    AllDynamicTrees, MutationFuzzPersistenceTest,
    ::testing::Values(FuzzParam{IndexType::kSRTree, 404},
                      FuzzParam{IndexType::kSSTree, 404},
                      FuzzParam{IndexType::kRStarTree, 404},
                      FuzzParam{IndexType::kKdbTree, 404},
                      FuzzParam{IndexType::kTvTree, 404}),
    ParamName);

// The run's non-finite probes, over all ten index types: each Insert and
// Delete of a point with a NaN or infinite coordinate must come back
// InvalidArgument with the index unchanged, and the oracle cross-checks
// and audits around them must stay clean. Static structures see the probes
// in their query-only batches.
class MutationFuzzNonFiniteTest : public ::testing::TestWithParam<IndexType> {
};

TEST_P(MutationFuzzNonFiniteTest, ProbesRejectedWithoutSideEffects) {
  constexpr int kDim = 4;
  std::unique_ptr<PointIndex> index = MakeSmallPageIndex(GetParam(), kDim);

  debug::FuzzOptions options;
  options.seed = 505;
  options.batch_size = 100;
  options.knn_queries_per_batch = 4;
  options.range_queries_per_batch = 4;
  const bool is_static = GetParam() == IndexType::kVamSplitRTree ||
                         GetParam() == IndexType::kStaticSRTree;
  if (is_static) {
    options.num_mutations = 0;
    options.initial_points = 400;
    options.query_only_batches = 3;
  } else {
    options.num_mutations = 400;
  }

  debug::MutationFuzzer fuzzer(options);
  const Status status = fuzzer.Run(index);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(fuzzer.stats().non_finite_rejects, is_static ? 3u : 25u);
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexTypes, MutationFuzzNonFiniteTest,
    ::testing::Values(IndexType::kSRTree, IndexType::kSSTree,
                      IndexType::kRStarTree, IndexType::kKdbTree,
                      IndexType::kVamSplitRTree, IndexType::kTvTree,
                      IndexType::kScan, IndexType::kStaticSRTree,
                      IndexType::kTieredSRTree),
    [](const ::testing::TestParamInfo<IndexType>& info) {
      return TypeToken(info.param);
    });

}  // namespace
}  // namespace srtree
