// StructuralAuditor coverage: clean trees of every variant audit clean,
// and deliberately corrupted trees yield the right violation class at the
// right node path. Corruption goes through SRTreeTestAccess
// (tests/sr_tree_test_access.h), a test-only friend that rewrites the
// page's own columns, or restages a page through the tree's slot relay.

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/sr_tree.h"
#include "src/debug/structural_auditor.h"
#include "src/index/soa_page.h"
#include "src/workload/uniform.h"
#include "tests/sr_tree_test_access.h"
#include "tests/test_util.h"

namespace srtree {

namespace {

using debug::FormatViolation;
using debug::StructuralAuditor;
using debug::Violation;
using debug::ViolationKind;
using testing::MakeSmallPageIndex;
using testing::TypeToken;

constexpr int kDim = 4;

std::unique_ptr<SRTree> BuildSmallPageSRTree(size_t n) {
  SRTree::Options options;
  options.dim = kDim;
  options.page_size = 2048;
  options.leaf_data_size = 0;
  auto tree = std::make_unique<SRTree>(options);
  const Dataset data = MakeUniformDataset(n, kDim, /*seed=*/29);
  const Status status = tree->BulkLoad(data.ToPoints(), data.SequentialOids());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return tree;
}

bool HasViolationAt(const std::vector<Violation>& violations,
                    ViolationKind kind, const std::string& path) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) {
                       return v.kind == kind && v.node_path == path;
                     });
}

std::string Describe(const std::vector<Violation>& violations) {
  std::string s;
  for (const Violation& v : violations) s += FormatViolation(v) + "\n";
  return s.empty() ? "<no violations>" : s;
}

// --- clean trees audit clean, across every index variant ---

class CleanAuditTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(CleanAuditTest, BulkLoadedTreeHasNoViolations) {
  auto index = MakeSmallPageIndex(GetParam(), kDim);
  const Dataset data = MakeUniformDataset(800, kDim, /*seed=*/31);
  ASSERT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());

  const std::vector<Violation> violations =
      StructuralAuditor().Audit(*index);
  EXPECT_TRUE(violations.empty()) << Describe(violations);
  EXPECT_TRUE(index->CheckInvariants().ok());
}

TEST_P(CleanAuditTest, StaysCleanThroughDeletions) {
  auto index = MakeSmallPageIndex(GetParam(), kDim);
  const Dataset data = MakeUniformDataset(600, kDim, /*seed=*/37);
  ASSERT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());

  const std::vector<Point> points = data.ToPoints();
  const Status probe = index->Delete(points[0], 0);
  if (probe.IsUnimplemented()) GTEST_SKIP() << "static structure";
  ASSERT_TRUE(probe.ok()) << probe.ToString();
  for (uint32_t oid = 1; oid < 300; ++oid) {
    ASSERT_TRUE(index->Delete(points[oid], oid).ok());
  }

  const std::vector<Violation> violations =
      StructuralAuditor().Audit(*index);
  EXPECT_TRUE(violations.empty()) << Describe(violations);
}

INSTANTIATE_TEST_SUITE_P(
    AllTrees, CleanAuditTest,
    ::testing::Values(IndexType::kSRTree, IndexType::kSSTree,
                      IndexType::kRStarTree, IndexType::kKdbTree,
                      IndexType::kVamSplitRTree, IndexType::kTvTree,
                      IndexType::kScan),
    [](const ::testing::TestParamInfo<IndexType>& info) {
      return TypeToken(info.param);
    });

// --- corrupted trees are detected, with the offending node located ---

TEST(CorruptedAuditTest, ShrunkSphereIsLocated) {
  auto tree = BuildSmallPageSRTree(800);
  ASSERT_GE(SRTreeTestAccess::RootLevel(*tree), 1);
  auto entry = SRTreeTestAccess::GetInnerByPath(*tree, {}, 0);
  entry.sphere.set_radius(entry.sphere.radius() * 0.05);
  SRTreeTestAccess::PutInnerByPath(*tree, {}, 0, entry);

  const std::vector<Violation> violations = StructuralAuditor().Audit(*tree);
  EXPECT_TRUE(HasViolationAt(violations, ViolationKind::kSphereContainment,
                             "root/0"))
      << Describe(violations);
  EXPECT_FALSE(tree->CheckInvariants().ok());
}

TEST(CorruptedAuditTest, ChildRectWidenedPastParentIsLocated) {
  auto tree = BuildSmallPageSRTree(3000);
  ASSERT_GE(SRTreeTestAccess::RootLevel(*tree), 2)
      << "need height >= 3 so an inner node has a claimed rect";
  // Push one child's rectangle far outside anything its parent claims.
  auto entry = SRTreeTestAccess::GetInnerByPath(*tree, {0}, 0);
  Point lo = entry.rect.lo();
  Point hi = entry.rect.hi();
  hi[0] += 100.0;
  entry.rect = Rect(std::move(lo), std::move(hi));
  SRTreeTestAccess::PutInnerByPath(*tree, {0}, 0, entry);

  const std::vector<Violation> violations = StructuralAuditor().Audit(*tree);
  EXPECT_TRUE(HasViolationAt(violations, ViolationKind::kRectContainment,
                             "root/0/0"))
      << Describe(violations);
  // The widened entry also breaks its node's own MBR exactness.
  EXPECT_TRUE(HasViolationAt(violations, ViolationKind::kRectNotTightMbr,
                             "root/0/0"))
      << Describe(violations);
}

TEST(CorruptedAuditTest, UnbalancedLeafDepthIsLocated) {
  auto tree = BuildSmallPageSRTree(3000);
  ASSERT_GE(SRTreeTestAccess::RootLevel(*tree), 2)
      << "need height >= 3 to splice a grandchild under the root";
  // Point the root's first entry one level too deep: the subtree under
  // root/0 now bottoms out a level early.
  auto entry = SRTreeTestAccess::GetInnerByPath(*tree, {}, 0);
  entry.child = SRTreeTestAccess::PageIdByPath(*tree, {0, 0});
  SRTreeTestAccess::PutInnerByPath(*tree, {}, 0, entry);

  const std::vector<Violation> violations = StructuralAuditor().Audit(*tree);
  EXPECT_TRUE(HasViolationAt(violations, ViolationKind::kUnevenLeafDepth,
                             "root/0"))
      << Describe(violations);
}

TEST(CorruptedAuditTest, WeightMismatchIsLocated) {
  auto tree = BuildSmallPageSRTree(800);
  ASSERT_GE(SRTreeTestAccess::RootLevel(*tree), 1);
  auto entry = SRTreeTestAccess::GetInnerByPath(*tree, {}, 1);
  entry.weight += 7;
  SRTreeTestAccess::PutInnerByPath(*tree, {}, 1, entry);

  const std::vector<Violation> violations = StructuralAuditor().Audit(*tree);
  EXPECT_TRUE(
      HasViolationAt(violations, ViolationKind::kWeightMismatch, "root/1"))
      << Describe(violations);
}

TEST(CorruptedAuditTest, UnderfullLeafAndCountMismatchAreLocated) {
  auto tree = BuildSmallPageSRTree(800);
  ASSERT_GE(SRTreeTestAccess::RootLevel(*tree), 1);
  // Walk down the 0-spine to a leaf and empty it almost completely.
  const std::vector<int> path(
      static_cast<size_t>(SRTreeTestAccess::RootLevel(*tree)), 0);
  ASSERT_GT(SRTreeTestAccess::Count(
                *tree, SRTreeTestAccess::PageByPath(*tree, path)),
            1u);
  SRTreeTestAccess::KeepSlots(*tree, path, {0});

  std::string leaf_path = "root";
  for (const int i : path) leaf_path += "/" + std::to_string(i);

  const std::vector<Violation> violations = StructuralAuditor().Audit(*tree);
  EXPECT_TRUE(
      HasViolationAt(violations, ViolationKind::kUnderfullNode, leaf_path))
      << Describe(violations);
  EXPECT_TRUE(HasViolationAt(violations, ViolationKind::kEntryCountMismatch,
                             "root"))
      << Describe(violations);
  // CheckInvariants surfaces the first violation with its path.
  const Status status = tree->CheckInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("root/"), std::string::npos)
      << status.ToString();
}

TEST(CorruptedAuditTest, SphereInflatedPastRectBoundIsLocated) {
  auto tree = BuildSmallPageSRTree(800);
  ASSERT_GE(SRTreeTestAccess::RootLevel(*tree), 1);
  // A huge radius still contains every point, but violates the Section 4.2
  // min(d_s, d_r) rule the SR-tree's MINDIST bound depends on.
  auto entry = SRTreeTestAccess::GetInnerByPath(*tree, {}, 0);
  entry.sphere.set_radius(1e6);
  SRTreeTestAccess::PutInnerByPath(*tree, {}, 0, entry);

  const std::vector<Violation> violations = StructuralAuditor().Audit(*tree);
  EXPECT_TRUE(HasViolationAt(violations, ViolationKind::kSphereExceedsRect,
                             "root/0"))
      << Describe(violations);
}

// A NaN written straight into a page passes every containment check (it
// compares false against every bound) and hides its point from every
// query; the finiteness and reachable-count checks catch it.
TEST(CorruptedAuditTest, NonFiniteLeafPointIsLocated) {
  auto tree = BuildSmallPageSRTree(800);
  ASSERT_GE(SRTreeTestAccess::RootLevel(*tree), 1);
  std::vector<int> path(static_cast<size_t>(SRTreeTestAccess::RootLevel(*tree)),
                        0);
  char* page = SRTreeTestAccess::MutablePageByPath(*tree, path);
  const size_t count = ParseSoaLeaf(page, kDim).count;
  ASSERT_GT(count, 0u);
  // Coordinate 1 of entry 0 (dimension-major layout).
  double* coords = reinterpret_cast<double*>(page + kSoaPageHeaderBytes);
  coords[1 * count + 0] = std::numeric_limits<double>::quiet_NaN();

  const std::vector<Violation> violations = StructuralAuditor().Audit(*tree);
  std::string leaf_path = "root";
  for (const int i : path) leaf_path += "/" + std::to_string(i);
  EXPECT_TRUE(HasViolationAt(violations, ViolationKind::kNonFinite, leaf_path))
      << Describe(violations);
  EXPECT_TRUE(
      HasViolationAt(violations, ViolationKind::kEntryCountMismatch, "root"))
      << Describe(violations);
  EXPECT_FALSE(tree->CheckInvariants().ok());
}

TEST(CorruptedAuditTest, NonFiniteRegionIsLocated) {
  auto tree = BuildSmallPageSRTree(800);
  ASSERT_GE(SRTreeTestAccess::RootLevel(*tree), 1);
  char* page = SRTreeTestAccess::MutablePageByPath(*tree, {});
  const size_t count = ParseSoaInner(page, kDim).count;
  ASSERT_GT(count, 1u);
  // Entry 1's sphere center, coordinate 0: centers are the first block.
  double* centers = reinterpret_cast<double*>(page + kSoaPageHeaderBytes);
  centers[0 * count + 1] = std::numeric_limits<double>::infinity();

  const std::vector<Violation> violations = StructuralAuditor().Audit(*tree);
  EXPECT_TRUE(HasViolationAt(violations, ViolationKind::kNonFinite, "root/1"))
      << Describe(violations);
  EXPECT_FALSE(tree->CheckInvariants().ok());
}

}  // namespace
}  // namespace srtree
