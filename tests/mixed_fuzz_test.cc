// Mixed reader+writer fuzz: one writer thread commits a deterministic
// Insert/Delete schedule while reader threads pin snapshots and cross-check
// every pinned version against a brute-force oracle replaying exactly that
// committed prefix (see debug::RunMixedReadWriteFuzz). This is the
// end-to-end differential test of the copy-on-write commit protocol and
// epoch-based reclamation: the CI thread-sanitizer job runs it with
// -fsanitize=thread to surface writer/reader races, and the ASan/LSan job
// verifies that no retired page outlives reclamation.

#include <gtest/gtest.h>

#include "src/benchlib/experiment.h"
#include "src/core/sr_tree.h"
#include "src/debug/fuzzer.h"
#include "src/index/index_factory.h"
#include "src/statictier/tiered_index.h"
#include "src/storage/epoch.h"
#include "tests/test_util.h"

namespace srtree {
namespace {

SRTree::Options SmallTreeOptions() {
  SRTree::Options options;
  options.dim = 6;
  options.page_size = 1024;
  options.leaf_data_size = 0;
  return options;
}

TEST(MixedFuzzTest, ReadersMatchOracleWhileWriterCommits) {
  SRTree tree(SmallTreeOptions());

  debug::MixedFuzzOptions options;
  options.seed = 20260808;
  options.initial_points = 1200;
  options.num_mutations = 1200;
  options.num_reader_threads = 4;
  const Status status = debug::RunMixedReadWriteFuzz(tree, options);
  EXPECT_TRUE(status.ok()) << status.ToString();

  // Quiesced epilogue: with every reader joined, one reclamation pass must
  // free every retired page version — anything left is a leak in the
  // epoch-based reclamation protocol (and would show up in LSan too).
  EXPECT_EQ(tree.epochs().active_readers(), 0u);
  tree.epochs().ReclaimExpired();
  EXPECT_EQ(tree.epochs().retired_count(), 0u);
}

// The tiered index under the same schedule, with the writer additionally
// calling Compact() every 150 committed mutations while readers hold live
// snapshots. Compact() swaps the whole static tier out from under them; the
// version → committed-prefix mapping (and the final version == v0 +
// num_mutations check inside the harness) verifies that a compaction is
// representation-only: no version bump, no observable content change.
TEST(MixedFuzzTest, TieredReadersSurviveCompactionUnderneath) {
  TieredIndex::Options options;
  options.dim = 6;
  options.page_size = 1024;
  TieredIndex index(options);

  debug::MixedFuzzOptions fuzz;
  fuzz.seed = 20260810;
  fuzz.initial_points = 1000;
  fuzz.num_mutations = 900;
  fuzz.num_reader_threads = 4;
  fuzz.compact_every = 150;
  const Status status = debug::RunMixedReadWriteFuzz(index, fuzz);
  EXPECT_TRUE(status.ok()) << status.ToString();
  // Every compaction drains the delta; the trailing mutations after the
  // last Compact() are all that may remain in it.
  EXPECT_LE(index.delta_size_for_test(), 150u);
}

// The same schedule over every other dynamic tree: all paged trees share
// the SR-tree's commit protocol (src/index/paged_index.h), so their readers
// are snapshot-isolated from the writer too.
IndexConfig SmallTreeConfig() {
  IndexConfig config;
  config.dim = 6;
  config.page_size = 1024;
  config.leaf_data_size = 0;
  return config;
}

// Quiesced epilogue: once every reader has joined, one reclamation pass
// must free every retired page version.
void ExpectRetiredDrains(const PointIndex& index) {
  EpochManager* epochs = index.epoch_domain_for_test();
  ASSERT_NE(epochs, nullptr);
  EXPECT_EQ(epochs->active_readers(), 0u);
  epochs->ReclaimExpired();
  EXPECT_EQ(epochs->retired_count(), 0u);
}

class MixedFuzzTreeTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(MixedFuzzTreeTest, ReadersMatchOracleWhileWriterCommits) {
  auto index = MakeIndex(GetParam(), SmallTreeConfig());

  debug::MixedFuzzOptions options;
  options.seed = 20261015;
  options.initial_points = 600;
  options.num_mutations = 600;
  options.num_reader_threads = 4;
  const Status status = debug::RunMixedReadWriteFuzz(*index, options);
  EXPECT_TRUE(status.ok()) << status.ToString();
  ExpectRetiredDrains(*index);
}

INSTANTIATE_TEST_SUITE_P(
    DynamicBaselines, MixedFuzzTreeTest,
    ::testing::Values(IndexType::kSSTree, IndexType::kRStarTree,
                      IndexType::kKdbTree, IndexType::kTvTree),
    [](const ::testing::TestParamInfo<IndexType>& info) {
      return testing::TypeToken(info.param);
    });

// The brute-force scan, the oracle with no page file, is the one structure
// without snapshot isolation (version 0); the mixed fuzzer must refuse it
// rather than report vacuous success.
TEST(MixedFuzzTest, RejectsIndexesWithoutSnapshotIsolation) {
  auto index = MakeIndex(IndexType::kScan, SmallTreeConfig());

  debug::MixedFuzzOptions options;
  options.initial_points = 50;
  options.num_mutations = 10;
  const Status status = debug::RunMixedReadWriteFuzz(*index, options);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

}  // namespace
}  // namespace srtree
