#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/sr_tree.h"
#include "src/debug/fault_injection.h"
#include "src/index/index_factory.h"
#include "src/rstar/rstar_tree.h"
#include "src/storage/crc32c.h"
#include "src/storage/image_io.h"
#include "src/storage/page_file.h"
#include "src/workload/queries.h"
#include "src/workload/uniform.h"
#include "tests/page_image_test_util.h"

namespace srtree {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok()) << path;
  return bytes;
}

TEST(PageFilePersistenceTest, RoundTrip) {
  PageFile file(64);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  const PageId c = file.Allocate();
  file.Free(b);
  std::vector<char> data(64, 'q');
  file.StageWrite(a, data.data());
  std::vector<char> data2(64, 'z');
  file.StageWrite(c, data2.data());
  file.Commit({});

  const std::string path = TempPath("pagefile.img");
  ASSERT_TRUE(file.Save(path).ok());

  PageFile restored(64);
  ASSERT_TRUE(restored.Load(path).ok());
  EXPECT_EQ(restored.live_pages(), 2u);
  std::vector<char> out(64);
  restored.Read(a, out.data());
  EXPECT_EQ(out[0], 'q');
  restored.Read(c, out.data());
  EXPECT_EQ(out[0], 'z');
  // The freed page is recycled on the next allocation.
  EXPECT_EQ(restored.Allocate(), b);
}

TEST(PageFilePersistenceTest, PageSizeMismatchRejected) {
  PageFile file(64);
  (void)file.Allocate();
  const std::string path = TempPath("pagefile_mismatch.img");
  ASSERT_TRUE(file.Save(path).ok());
  PageFile other(128);
  EXPECT_TRUE(other.Load(path).IsInvalidArgument());
}

TEST(PageFilePersistenceTest, GarbageRejected) {
  const std::string path = TempPath("garbage.img");
  std::ofstream(path, std::ios::binary) << "this is not a page file image";
  PageFile file(64);
  EXPECT_TRUE(file.Load(path).IsCorruption());
}

TEST(SRTreePersistenceTest, SaveOpenRoundTrip) {
  SRTree::Options options;
  options.dim = 8;
  options.page_size = 2048;
  options.leaf_data_size = 0;
  SRTree tree(options);
  const Dataset data = MakeUniformDataset(1500, 8, /*seed=*/83);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }

  const std::string path = TempPath("srtree.idx");
  ASSERT_TRUE(tree.Save(path).ok());

  auto restored = SRTree::Open(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  SRTree& reopened = **restored;
  EXPECT_EQ(reopened.size(), tree.size());
  EXPECT_EQ(reopened.dim(), 8);
  EXPECT_EQ(reopened.height(), tree.height());
  EXPECT_TRUE(reopened.CheckInvariants().ok());

  // Identical query answers.
  for (const Point& q : SampleQueriesFromDataset(data, 10, /*seed=*/87)) {
    const auto expected = tree.Search(q, QuerySpec::Knn(10)).neighbors;
    const auto actual = reopened.Search(q, QuerySpec::Knn(10)).neighbors;
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].oid, expected[i].oid);
    }
  }

  // The reopened index stays fully functional.
  ASSERT_TRUE(reopened.Insert(Point(8, 0.5), 99999).ok());
  ASSERT_TRUE(reopened.Delete(data.point(0), 0).ok());
  EXPECT_TRUE(reopened.CheckInvariants().ok());
}

TEST(SRTreePersistenceTest, OpenRestoresOptions) {
  SRTree::Options options;
  options.dim = 3;
  options.page_size = 1024;
  options.leaf_data_size = 16;
  options.use_rect_in_mindist = false;
  SRTree tree(options);
  ASSERT_TRUE(tree.Insert(Point{0.1, 0.2, 0.3}, 7).ok());
  const std::string path = TempPath("srtree_options.idx");
  ASSERT_TRUE(tree.Save(path).ok());

  auto restored = SRTree::Open(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->dim(), 3);
  EXPECT_EQ((*restored)->leaf_capacity(), tree.leaf_capacity());
  const auto result =
      (*restored)->Search(Point{0.1, 0.2, 0.3}, QuerySpec::Knn(1)).neighbors;
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].oid, 7u);
}

TEST(SRTreePersistenceTest, OpenRejectsGarbage) {
  const std::string path = TempPath("srtree_garbage.idx");
  std::ofstream(path, std::ios::binary) << "junk junk junk junk junk";
  EXPECT_FALSE(SRTree::Open(path).ok());
  EXPECT_FALSE(SRTree::Open(TempPath("does_not_exist.idx")).ok());
}

// ---------------------------------------------------------------------------
// Staged load: a failed LoadFrom must leave the previous contents
// byte-identical, even when the corruption is discovered deep in the image.

TEST(PageFilePersistenceTest, FailedLoadLeavesPriorContentsUntouched) {
  PageFile file(64);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  std::vector<char> da(64, 'a'), db(64, 'b');
  file.StageWrite(a, da.data());
  file.StageWrite(b, db.data());
  file.Commit({});
  const std::string before_a(file.PeekPage(a), 64);
  const std::string before_b(file.PeekPage(b), 64);

  // A valid image, corrupted one byte inside the last page's payload so
  // the header parses and staging gets well underway before failing.
  std::ostringstream buf(std::ios::binary);
  ASSERT_TRUE(file.SaveTo(buf).ok());
  std::string image = std::move(buf).str();
  image[image.size() - 40] ^= 0x10;

  std::istringstream in(image, std::ios::binary);
  EXPECT_TRUE(file.LoadFrom(in).IsCorruption());

  EXPECT_EQ(file.live_pages(), 2u);
  EXPECT_EQ(std::string(file.PeekPage(a), 64), before_a);
  EXPECT_EQ(std::string(file.PeekPage(b), 64), before_b);
  // Still fully functional: the next allocation extends the file.
  EXPECT_EQ(file.Allocate(), 2u);
}

// A forged header claiming a multi-terabyte page count must be rejected
// against the actual stream size, not trusted into allocation.
TEST(PageFilePersistenceTest, ForgedHugePageCountRejected) {
  PageFile file(64);
  (void)file.Allocate();
  std::ostringstream buf(std::ios::binary);
  ASSERT_TRUE(file.SaveTo(buf).ok());
  std::string image = std::move(buf).str();

  // Header layout: magic(4) version(4) page_size(8) page_count(8)
  // live_count(8) header_crc(4). Patch page_count to 2^40 pages (64 TiB of
  // claimed payload) and re-seal the header CRC so the size equation — not
  // the checksum — is what must catch it.
  const uint64_t forged = uint64_t{1} << 40;
  for (int i = 0; i < 8; ++i) {
    image[16 + i] = static_cast<char>(forged >> (8 * i));
  }
  const uint32_t crc = Crc32c(image.data(), 32);
  for (int i = 0; i < 4; ++i) {
    image[32 + i] = static_cast<char>(crc >> (8 * i));
  }

  PageFile target(64);
  std::istringstream in(image, std::ios::binary);
  EXPECT_TRUE(target.LoadFrom(in).IsCorruption());
  EXPECT_EQ(target.live_pages(), 0u);
}

// An in-place overwrite torn at a record boundary splices two individually
// valid images; only the whole-image footer CRC can catch that.
TEST(PageFilePersistenceTest, TornSpliceOfTwoValidImagesRejected) {
  PageFile newer(64), older(64);
  std::vector<char> dn(64, 'n'), dold(64, 'o');
  for (int i = 0; i < 4; ++i) {
    newer.StageWrite(newer.Allocate(), dn.data());
    older.StageWrite(older.Allocate(), dold.data());
  }
  newer.Commit({});
  older.Commit({});
  std::ostringstream bn(std::ios::binary), bo(std::ios::binary);
  ASSERT_TRUE(newer.SaveTo(bn).ok());
  ASSERT_TRUE(older.SaveTo(bo).ok());
  const std::string image_new = std::move(bn).str();
  const std::string image_old = std::move(bo).str();
  ASSERT_EQ(image_new.size(), image_old.size());

  // Same page counts, same extents: every per-record check passes on both
  // sides of the cut. Cut after the first record — [live][extent][64 page
  // bytes][crc] — past the 36-byte header.
  const std::string spliced =
      debug::SpliceImages(image_new, image_old, 36 + 1 + 4 + 64 + 4);
  PageFile target(64);
  std::istringstream in(spliced, std::ios::binary);
  const Status status = target.LoadFrom(in);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("image checksum"), std::string::npos)
      << status.ToString();
}

// The v1 (pre-checksum, host-endian) read path has been removed: a version-1
// image must fail loudly with a "re-save with v2" message, and must leave
// the target PageFile untouched.
TEST(PageFilePersistenceTest, V1ImageIsRejectedWithClearError) {
  std::ostringstream buf(std::ios::binary);
  PutLe32(buf, 0x53525046u);  // "SRPF" page-file magic
  PutLe32(buf, 1u);           // retired format version
  // v1 header continuation (page size, page count) — never reached.
  PutLe64(buf, 64u);
  PutLe64(buf, 0u);

  PageFile target(64);
  const PageId keep = target.Allocate();
  std::vector<char> data(64, 'k');
  target.StageWrite(keep, data.data());
  target.Commit({});

  std::istringstream in(std::move(buf).str(), std::ios::binary);
  const Status status = target.LoadFrom(in);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.message().find("re-save with v2"), std::string::npos)
      << status.ToString();
  // The rejected load left the existing contents byte-for-byte intact.
  EXPECT_EQ(target.live_pages(), 1u);
  EXPECT_EQ(std::string(target.PeekPage(keep), 64), std::string(64, 'k'));
}

// Regression: IndexImageFile::Open used to memcpy strlen(tag) bytes of the
// caller's tag into a fixed 8-byte buffer — an over-long tag overran the
// stack. It must now be rejected up front, as the write side already does.
TEST(IndexImageTest, OversizeAndEmptyOpenTagsRejected) {
  SRTree::Options options;
  options.dim = 2;
  options.page_size = 1024;
  options.leaf_data_size = 0;
  SRTree tree(options);
  ASSERT_TRUE(tree.Insert(Point{0.25, 0.75}, 1).ok());
  const std::string path = TempPath("tag_bounds.idx");
  ASSERT_TRUE(tree.Save(path).ok());

  char header[64] = {};
  IndexImageFile image;
  Status status = image.Open(path, "definitely-more-than-eight-bytes", header,
                             sizeof(header));
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();

  IndexImageFile image2;
  status = image2.Open(path, "", header, sizeof(header));
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();

  // An exactly-8-byte tag is the longest legal tag and still round-trips
  // through the normal Open path (wrong tag → Corruption, not a crash).
  IndexImageFile image3;
  status = image3.Open(path, "eightchr", header, sizeof(header));
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

// ---------------------------------------------------------------------------
// Atomic save: an injected fault anywhere in the write/flush/rename path
// must leave the previous image byte-identical and no temp file behind.

TEST(AtomicSaveTest, InjectedFaultsLeavePreviousImageIntact) {
  SRTree::Options options;
  options.dim = 4;
  options.page_size = 1024;
  options.leaf_data_size = 0;
  SRTree tree(options);
  const Dataset data = MakeUniformDataset(400, 4, /*seed=*/11);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data.point(i), static_cast<uint32_t>(i)).ok());
  }
  const std::string path = TempPath("atomic_save.idx");
  ASSERT_TRUE(tree.Save(path).ok());
  const std::string before = ReadAll(path);

  ASSERT_TRUE(tree.Insert(Point(4, 0.25), 40000).ok());
  debug::FaultInjector injector;
  for (const debug::FaultKind kind :
       {debug::FaultKind::kShortWrite, debug::FaultKind::kFailedFlush,
        debug::FaultKind::kFailedRename}) {
    injector.Arm(kind, 0.5);
    SetSaveFailpointsForTest(&injector);
    const Status status = tree.Save(path);
    SetSaveFailpointsForTest(nullptr);
    EXPECT_FALSE(status.ok()) << debug::FaultKindName(kind);
    EXPECT_EQ(ReadAll(path), before) << debug::FaultKindName(kind);
    std::string tmp;
    EXPECT_FALSE(ReadFileToString(path + ".tmp", &tmp).ok())
        << debug::FaultKindName(kind);
  }
  EXPECT_EQ(injector.faults_delivered(), 3u);

  // With the failpoints gone the same save lands, and the new image is
  // loadable and reflects the extra insert.
  ASSERT_TRUE(tree.Save(path).ok());
  auto reopened = OpenIndex(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), tree.size());
}

// ---------------------------------------------------------------------------
// Every index structure round-trips through its Save() and the tag-
// dispatching OpenIndex(), answering queries identically afterwards.

TEST(OpenIndexTest, AllIndexTypesRoundTrip) {
  const Dataset data = MakeUniformDataset(400, 4, /*seed=*/29);
  std::vector<Point> points;
  std::vector<uint32_t> oids;
  for (size_t i = 0; i < data.size(); ++i) {
    const PointView view = data.point(i);
    points.emplace_back(view.begin(), view.end());
    oids.push_back(static_cast<uint32_t>(i));
  }
  IndexConfig config;
  config.dim = 4;
  config.page_size = 1024;
  config.leaf_data_size = 0;

  std::vector<IndexType> types = AllTreeTypes();
  types.push_back(IndexType::kTvTree);
  for (const IndexType type : types) {
    SCOPED_TRACE(IndexTypeName(type));
    std::unique_ptr<PointIndex> index = MakeIndex(type, config);
    ASSERT_TRUE(index->BulkLoad(points, oids).ok());
    const std::string path =
        TempPath("roundtrip_" + std::to_string(static_cast<int>(type)));
    ASSERT_TRUE(index->Save(path).ok());

    auto reopened = OpenIndex(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->name(), index->name());
    EXPECT_EQ((*reopened)->size(), index->size());
    EXPECT_EQ((*reopened)->dim(), index->dim());
    EXPECT_TRUE((*reopened)->CheckInvariants().ok());
    for (const Point& q : SampleQueriesFromDataset(data, 8, /*seed=*/31)) {
      const auto expected = index->Search(q, QuerySpec::Knn(6)).neighbors;
      const auto actual = (*reopened)->Search(q, QuerySpec::Knn(6)).neighbors;
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].oid, expected[i].oid);
        EXPECT_DOUBLE_EQ(actual[i].distance, expected[i].distance);
      }
    }
  }
}

TEST(OpenIndexTest, RejectsGarbageAndForeignFiles) {
  const std::string garbage = TempPath("open_index_garbage");
  std::ofstream(garbage, std::ios::binary) << "no index in here";
  EXPECT_FALSE(OpenIndex(garbage).ok());
  EXPECT_FALSE(OpenIndex(TempPath("open_index_missing")).ok());

  // A bare PageFile image has no SRIX container and must be refused.
  PageFile file(64);
  (void)file.Allocate();
  const std::string bare = TempPath("open_index_bare_pagefile");
  ASSERT_TRUE(file.Save(bare).ok());
  EXPECT_FALSE(OpenIndex(bare).ok());
}

// A pre-v2 SR-tree file is still RECOGNIZED (so the failure names the real
// cause) but no longer opens: the compatibility window closed and the v1
// path — the last unchecksummed loader — was removed.
TEST(OpenIndexTest, LegacySrTreeV1ImageIsRecognizedButRejected) {
  const std::string path = TempPath("legacy_sr_v1.idx");
  // First 4 bytes of the retired format: the raw "SRT1" header magic.
  std::string bytes;
  bytes.push_back('1');
  bytes.push_back('T');
  bytes.push_back('R');
  bytes.push_back('S');
  bytes.append(128, '\0');  // rest of what used to be the v1 header
  ASSERT_TRUE(WriteStringToFileForTest(bytes, path).ok());

  StatusOr<std::string> tag = PeekIndexImageTag(path);
  ASSERT_TRUE(tag.ok()) << tag.status().ToString();
  EXPECT_EQ(*tag, "legacy-sr-v1");

  auto reopened = OpenIndex(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsInvalidArgument())
      << reopened.status().ToString();
  EXPECT_NE(reopened.status().message().find("re-save with v2"),
            std::string::npos)
      << reopened.status().ToString();

  auto direct = SRTree::Open(path);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsInvalidArgument())
      << direct.status().ToString();
}

// The X-tree is retired: an image under its tag is refused by name, not
// reported as an unknown tag.
TEST(OpenIndexTest, RetiredXTreeImageIsRejected) {
  const std::string path = TempPath("retired_xtree.idx");
  std::ostringstream out;
  const char header[16] = {};
  ASSERT_TRUE(WriteIndexImageTo(out, "xtree", header, sizeof(header)).ok());
  ASSERT_TRUE(WriteStringToFileForTest(out.str(), path).ok());

  auto reopened = OpenIndex(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsInvalidArgument())
      << reopened.status().ToString();
  EXPECT_NE(reopened.status().message().find("retired"), std::string::npos)
      << reopened.status().ToString();
}

// ---------------------------------------------------------------------------
// The VAMSplit R-tree saves R*'s header record under its own tag. Before it
// shared R*'s code it saved a 40-byte record over the same pages; such an
// image still opens.

std::unique_ptr<VamSplitRTree> BuildVamSplit(const Dataset& data) {
  VamSplitRTree::Options options;
  options.dim = 4;
  options.page_size = 1024;
  options.leaf_data_size = 0;
  auto tree = std::make_unique<VamSplitRTree>(options);
  EXPECT_TRUE(tree->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
  return tree;
}

// The 40-byte header record of the retired format, from the fields of the
// R*-format record `rstar` (dim, active_dims, page_size, leaf_data_size,
// min_utilization, reinsert_fraction, root_id, root_level, size).
std::string LegacyVamHeader(const std::string& rstar) {
  EXPECT_EQ(rstar.size(), 56u);
  return rstar.substr(0, 4) + std::string(4, '\0') + rstar.substr(8, 16) +
         rstar.substr(40, 16);
}

void ExpectSameAnswers(const PointIndex& actual, const PointIndex& expected,
                       const Dataset& data) {
  for (const Point& q : SampleQueriesFromDataset(data, 8, /*seed=*/37)) {
    for (const QuerySpec& spec : {QuerySpec::Knn(6), QuerySpec::KnnBestFirst(6),
                                  QuerySpec::Range(0.2)}) {
      const QueryResult want = expected.Search(q, spec);
      const QueryResult got = actual.Search(q, spec);
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      ASSERT_EQ(got.neighbors.size(), want.neighbors.size());
      for (size_t i = 0; i < got.neighbors.size(); ++i) {
        EXPECT_EQ(got.neighbors[i].oid, want.neighbors[i].oid);
        EXPECT_EQ(got.neighbors[i].distance, want.neighbors[i].distance);
      }
      EXPECT_EQ(got.io.reads, want.io.reads);
    }
  }
}

TEST(OpenIndexTest, LegacyVamSplitHeaderOpensAndAnswersAlike) {
  const Dataset data = MakeUniformDataset(1500, 4, /*seed=*/41);
  const std::unique_ptr<VamSplitRTree> tree = BuildVamSplit(data);
  const std::string path = TempPath("legacy_vamsplit.idx");
  ASSERT_TRUE(tree->Save(path).ok());
  const std::string saved = ReadAll(path);
  std::string image = saved;
  const size_t header_size =
      static_cast<size_t>(testing_image::LoadLe(image, 16, 4));
  ASSERT_EQ(header_size, 56u);  // R*'s record
  testing_image::ReplaceIndexImageHeader(
      image, LegacyVamHeader(image.substr(24, header_size)));
  ASSERT_TRUE(WriteStringToFileForTest(image, path).ok());

  auto reopened = OpenIndex(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->name(), "VAMSplit R-tree");
  EXPECT_EQ((*reopened)->size(), tree->size());
  EXPECT_TRUE((*reopened)->CheckInvariants().ok());
  EXPECT_EQ((*reopened)->leaf_capacity(), tree->leaf_capacity());
  EXPECT_EQ((*reopened)->node_capacity(), tree->node_capacity());
  ExpectSameAnswers(**reopened, *tree, data);

  // A re-save writes R*'s record under the vamsplit tag: the very image the
  // tree itself saved.
  const std::string resaved = TempPath("legacy_vamsplit_resaved.idx");
  ASSERT_TRUE((*reopened)->Save(resaved).ok());
  EXPECT_EQ(ReadAll(resaved), saved);
}

TEST(OpenIndexTest, VamSplitAndRStarImagesKeepTheirTags) {
  const Dataset data = MakeUniformDataset(600, 4, /*seed=*/43);
  const std::string vam_path = TempPath("tag_vamsplit.idx");
  ASSERT_TRUE(BuildVamSplit(data)->Save(vam_path).ok());

  RStarTree::Options options;
  options.dim = 4;
  options.page_size = 1024;
  options.leaf_data_size = 0;
  RStarTree rstar(options);
  ASSERT_TRUE(rstar.BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
  const std::string rstar_path = TempPath("tag_rstar.idx");
  ASSERT_TRUE(rstar.Save(rstar_path).ok());

  const auto as_vam = VamSplitRTree::Open(rstar_path);
  EXPECT_TRUE(as_vam.status().IsCorruption()) << as_vam.status().ToString();
  const auto as_rstar = RStarTree::Open(vam_path);
  EXPECT_TRUE(as_rstar.status().IsCorruption())
      << as_rstar.status().ToString();
  const auto as_tv = TvRTree::Open(vam_path);
  EXPECT_TRUE(as_tv.status().IsCorruption()) << as_tv.status().ToString();

  // The retired 40-byte record is a VAMSplit format only.
  std::string image = ReadAll(vam_path);
  testing_image::ReplaceIndexImageHeader(
      image, LegacyVamHeader(image.substr(24, 56)));
  ASSERT_TRUE(WriteStringToFileForTest(image, vam_path).ok());
  EXPECT_TRUE(VamSplitRTree::Open(vam_path).ok());
  const auto legacy_as_rstar = RStarTree::Open(vam_path);
  EXPECT_TRUE(legacy_as_rstar.status().IsCorruption())
      << legacy_as_rstar.status().ToString();
}

}  // namespace
}  // namespace srtree
