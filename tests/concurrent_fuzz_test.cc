// Concurrent read-path fuzz: N reader threads issue mixed kNN / best-first /
// range batches through Search() against a quiescent tree (no writer runs
// here — the mixed reader+writer schedules live in mixed_fuzz_test.cc),
// cross-checked against the brute-force oracle, with the accounting-parity
// invariant verified at the end (see debug::RunConcurrentQueryFuzz). The CI
// thread-sanitizer job builds this file with -fsanitize=thread to surface
// read-path races; sizes are kept modest so the TSan run stays fast.

#include <gtest/gtest.h>

#include "src/benchlib/experiment.h"
#include "src/debug/fuzzer.h"

namespace srtree {
namespace {

class ConcurrentFuzzTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(ConcurrentFuzzTest, ParallelReadersMatchOracle) {
  IndexConfig config;
  config.dim = 6;
  config.page_size = 1024;
  config.leaf_data_size = 0;
  auto index = MakeIndex(GetParam(), config);

  debug::ConcurrentFuzzOptions options;
  options.seed = 20260806;
  options.num_points = 1200;
  options.num_threads = 4;
  options.queries_per_thread = 36;
  const Status status = debug::RunConcurrentQueryFuzz(*index, options);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, ConcurrentFuzzTest,
    ::testing::Values(IndexType::kSRTree, IndexType::kSSTree,
                      IndexType::kRStarTree, IndexType::kKdbTree,
                      IndexType::kVamSplitRTree, IndexType::kTvTree,
                      IndexType::kScan),
    [](const ::testing::TestParamInfo<IndexType>& info) {
      std::string name = IndexTypeName(info.param);
      for (char& c : name) {
        if (c == '-' || c == '*' || c == ' ') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace srtree
