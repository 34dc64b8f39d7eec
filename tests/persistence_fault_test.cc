// Durability-path fault injection: every saveable index survives hundreds
// of injected faults (short writes, failed flush/rename, truncation, torn
// overwrites, bit flips), and an exhaustive every-byte corruption corpus on
// a small SR-tree image never crashes or silently loads wrong data. The
// page records' extents (format v3) are forged and cut short, and v2
// images — every page a full record — still load.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/debug/fault_injection.h"
#include "src/index/index_factory.h"
#include "src/storage/image_io.h"
#include "src/storage/page_file.h"
#include "src/workload/uniform.h"
#include "tests/page_image_test_util.h"

namespace srtree {
namespace {

std::vector<IndexType> SaveableTypes() {
  std::vector<IndexType> types = AllTreeTypes();
  types.push_back(IndexType::kXTree);
  types.push_back(IndexType::kTvTree);
  return types;
}

// ≥500 injected faults per index type (acceptance floor for this harness).
TEST(PersistenceFaultFuzzTest, EveryIndexTypeSurvivesInjectedFaults) {
  for (const IndexType type : SaveableTypes()) {
    SCOPED_TRACE(IndexTypeName(type));
    debug::PersistenceFaultFuzzOptions options;
    options.seed = 20260806;
    options.num_faults = 600;
    options.scratch_dir = ::testing::TempDir();
    const Status status = debug::RunPersistenceFaultFuzz(type, options);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

// Exhaustive corruption corpus: for EVERY byte of a small SR-tree image,
// inverting that byte must make Load fail cleanly or still yield an
// auditor-clean index answering k-NN like the brute-force oracle.
TEST(PersistenceFaultFuzzTest, EveryByteCorruptionHandledCleanly) {
  const int dim = 2;
  const Dataset data = MakeUniformDataset(60, dim, /*seed=*/97);
  std::vector<Point> points;
  std::vector<uint32_t> oids;
  for (size_t i = 0; i < data.size(); ++i) {
    const PointView view = data.point(i);
    points.emplace_back(view.begin(), view.end());
    oids.push_back(static_cast<uint32_t>(i));
  }
  IndexConfig config;
  config.dim = dim;
  config.page_size = 512;
  config.leaf_data_size = 0;
  std::unique_ptr<PointIndex> index = MakeIndex(IndexType::kSRTree, config);
  ASSERT_TRUE(index->BulkLoad(points, oids).ok());
  std::unique_ptr<PointIndex> oracle = MakeIndex(IndexType::kScan, config);
  ASSERT_TRUE(oracle->BulkLoad(points, oids).ok());

  const std::string path = ::testing::TempDir() + "/byte_corpus.idx";
  ASSERT_TRUE(index->Save(path).ok());
  std::string image;
  ASSERT_TRUE(ReadFileToString(path, &image).ok());

  const std::vector<Point> queries = {Point{0.5, 0.5}, Point{0.1, 0.9}};
  size_t loads_ok = 0;
  for (size_t i = 0; i < image.size(); ++i) {
    std::string corrupted = image;
    corrupted[i] = static_cast<char>(~corrupted[i]);
    ASSERT_TRUE(WriteStringToFileForTest(corrupted, path).ok());
    StatusOr<std::unique_ptr<PointIndex>> loaded = OpenIndex(path);
    if (!loaded.ok()) {
      EXPECT_TRUE(loaded.status().IsCorruption() ||
                  loaded.status().IsInvalidArgument())
          << "byte " << i << ": " << loaded.status().ToString();
      continue;
    }
    // Loadable despite the corruption: it must be indistinguishable from
    // the intact index.
    ++loads_ok;
    ASSERT_TRUE((*loaded)->CheckInvariants().ok()) << "byte " << i;
    for (const Point& q : queries) {
      const auto got = (*loaded)->Search(q, QuerySpec::Knn(5)).neighbors;
      const auto want = oracle->Search(q, QuerySpec::Knn(5)).neighbors;
      ASSERT_EQ(got.size(), want.size()) << "byte " << i;
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].oid, want[j].oid) << "byte " << i;
      }
    }
  }
  // Every byte of the v3 image is covered by a checksum, so silent
  // acceptance should be rare to impossible; the bound guards against a
  // future format change quietly widening the unprotected surface.
  EXPECT_EQ(loads_ok, 0u)
      << loads_ok << " corrupted images loaded successfully";
}

// --- format v3: per-page extents ---------------------------------------

using testing_image::PageImage;
using testing_image::ParsePageImage;
using testing_image::StoreLe;

constexpr size_t kPage = 64;

// A page file whose pages hold extents 0, 7, kPage and 3 (page 2 freed),
// saved as a page-file image.
std::string ShortPagesImage() {
  PageFile file(kPage);
  const size_t extents[] = {0, 7, kPage, kPage, 3};
  for (const size_t extent : extents) {
    const PageId id = file.Allocate();
    char* page = file.StageWrite(id, extent);
    for (size_t b = 0; b < extent; ++b) page[b] = static_cast<char>(id + b);
  }
  file.Free(2);
  file.Commit({});
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(file.SaveTo(out).ok());
  return std::move(out).str();
}

// A read-only stream buffer that cannot seek, so LoadFrom cannot size the
// image up front and must catch a bad record while reading it.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

// Loads `image` into a file holding one live page, from a seekable and an
// unseekable stream; expects Corruption naming `what` from both, and the
// file untouched.
void ExpectRejected(const std::string& image, const std::string& what) {
  for (const bool seekable : {true, false}) {
    SCOPED_TRACE(seekable ? "seekable" : "unseekable");
    PageFile target(kPage);
    const PageId keep = target.Allocate();
    std::memset(target.StageWrite(keep), 'k', kPage);
    target.Commit({});
    std::istringstream seekable_in(image, std::ios::binary);
    UnseekableBuf buf(image);
    std::istream unseekable_in(&buf);
    const Status status =
        target.LoadFrom(seekable ? static_cast<std::istream&>(seekable_in)
                                 : unseekable_in);
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    if (seekable) {
      // Sized against the stream first: a cut or forged record is out of
      // range before any page buffer is built for it.
      EXPECT_NE(status.message().find(what), std::string::npos)
          << status.ToString();
    }
    EXPECT_EQ(target.live_pages(), 1u);
    EXPECT_EQ(std::string(target.PeekPage(keep), kPage),
              std::string(kPage, 'k'));
  }
}

TEST(PageExtentFaultTest, ShortPagesRoundTrip) {
  const std::string image = ShortPagesImage();
  const PageImage parsed = ParsePageImage(image, 0);
  EXPECT_EQ(parsed.version, 3u);
  // Each live record stores its extent, not its page.
  EXPECT_EQ(image.size(), testing_image::kPageFileHeaderBytes + 5 +
                              4 * 8 + (0 + 7 + kPage + 3) +
                              testing_image::kPageFileFooterBytes);
  PageFile loaded(kPage);
  std::istringstream in(image, std::ios::binary);
  ASSERT_TRUE(loaded.LoadFrom(in).ok());
  EXPECT_EQ(loaded.stored_bytes(), 0u + 7 + kPage + 3);
  EXPECT_EQ(loaded.extent(4), 3u);
  std::vector<char> out(kPage);
  loaded.Read(4, out.data());
  EXPECT_EQ(out[2], static_cast<char>(4 + 2));
  EXPECT_EQ(out[3], 0);
}

TEST(PageExtentFaultTest, TruncatedExtentRejected) {
  const std::string image = ShortPagesImage();
  const PageImage parsed = ParsePageImage(image, 0);
  // Cut two bytes into page 1's extent word.
  const std::string cut = image.substr(0, parsed.records[1].data - 2);
  ExpectRejected(cut, "size mismatch");
}

TEST(PageExtentFaultTest, ExtentPastPageSizeRejected) {
  std::string image = ShortPagesImage();
  const PageImage parsed = ParsePageImage(image, 0);
  // Page 1 claims one byte more than a page; the file size still matches,
  // so only the extent check can reject it.
  StoreLe(image, parsed.records[1].data - 4, 4, kPage + 1);
  ExpectRejected(image, "extent out of range");
  StoreLe(image, parsed.records[1].data - 4, 4, 0xffffffffu);
  ExpectRejected(image, "extent out of range");
}

TEST(PageExtentFaultTest, ExtentPastEndOfImageRejected) {
  std::string image = ShortPagesImage();
  const PageImage parsed = ParsePageImage(image, 0);
  // The last page claims a full page, which fits page_size but runs past
  // the bytes left in the image.
  StoreLe(image, parsed.records[4].data - 4, 4, kPage);
  ExpectRejected(image, "extent out of range");
}

TEST(PageExtentFaultTest, V2ImageLoadsAsFullPagesAndResavesAsV3) {
  const std::string v3 = ShortPagesImage();
  const std::string v2 = testing_image::ToV2PageImage(v3, 0);
  const PageImage parsed = ParsePageImage(v2, 0);
  ASSERT_EQ(parsed.version, 2u);

  PageFile loaded(kPage);
  std::istringstream in(v2, std::ios::binary);
  const Status status = loaded.LoadFrom(in);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(loaded.live_pages(), 4u);
  EXPECT_EQ(loaded.stored_bytes(), 4 * kPage);
  PageFile reference(kPage);
  std::istringstream ref_in(v3, std::ios::binary);
  ASSERT_TRUE(reference.LoadFrom(ref_in).ok());
  for (const PageId id : {0u, 1u, 3u, 4u}) {
    EXPECT_EQ(loaded.extent(id), kPage);
    std::vector<char> got(kPage), want(kPage);
    loaded.Read(id, got.data());
    reference.Read(id, want.data());
    EXPECT_EQ(got, want) << "page " << id;
  }
  // Re-saved, it is a v3 image of full-extent pages.
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(loaded.SaveTo(out).ok());
  const std::string resaved = std::move(out).str();
  EXPECT_EQ(ParsePageImage(resaved, 0).version, 3u);
  PageFile again(kPage);
  std::istringstream again_in(resaved, std::ios::binary);
  ASSERT_TRUE(again.LoadFrom(again_in).ok());
  EXPECT_EQ(again.stored_bytes(), 4 * kPage);

  // A v2 image is sized exactly by its header.
  const std::string longer = v2 + std::string(1, '\0');
  std::istringstream longer_in(longer, std::ios::binary);
  EXPECT_TRUE(again.LoadFrom(longer_in).IsCorruption());
}

// Every saveable type, given a checksum-valid image in which one page holds
// only its 8-byte header, fails Open with Corruption instead of reading
// past the page: the SR-tree because the header's entries outrun the
// extent, every other tree because its pages must fill their block.
TEST(PageExtentFaultTest, ShortPageImagesAreCorruption) {
  const Dataset data = MakeUniformDataset(300, 3, /*seed=*/67);
  IndexConfig config;
  config.dim = 3;
  config.page_size = 1024;
  config.leaf_data_size = 64;
  std::vector<IndexType> types = SaveableTypes();
  types.push_back(IndexType::kStaticSRTree);
  types.push_back(IndexType::kTieredSRTree);
  for (const IndexType type : types) {
    SCOPED_TRACE(IndexTypeName(type));
    std::unique_ptr<PointIndex> index = MakeIndex(type, config);
    ASSERT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
    const std::string path =
        ::testing::TempDir() + "/short_" + IndexTypeName(type) + ".idx";
    ASSERT_TRUE(index->Save(path).ok());
    std::string image;
    ASSERT_TRUE(ReadFileToString(path, &image).ok());
    const size_t start = testing_image::IndexImagePageFileStart(image);
    const PageImage parsed = ParsePageImage(image, start);
    size_t victim = 0;
    while (!parsed.records[victim].live) ++victim;
    testing_image::ShortenPageRecord(image, start, victim, 8);
    ASSERT_TRUE(WriteStringToFileForTest(image, path).ok());
    StatusOr<std::unique_ptr<PointIndex>> loaded = OpenIndex(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
}

// Every saveable tree — R*, TV, K-D-B, VAMSplit, X, SS and SR — given a
// checksum-valid image in which a leaf's header claims 60,000 entries,
// fails Open with Corruption before anything decodes the page
// (PagedIndex::ValidatePageTree). The full-page trees used to abort the
// process in CheckInvariants' page decode.
TEST(ForgedPageHeaderTest, LeafCountPastCapacityIsCorruption) {
  const Dataset data = MakeUniformDataset(2000, 4, /*seed=*/71);
  IndexConfig config;
  config.dim = 4;
  config.page_size = 1024;
  config.leaf_data_size = 64;
  for (const IndexType type : SaveableTypes()) {
    SCOPED_TRACE(IndexTypeName(type));
    std::unique_ptr<PointIndex> index = MakeIndex(type, config);
    ASSERT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
    const std::string path =
        ::testing::TempDir() + "/forged_count_" + IndexTypeName(type) + ".idx";
    ASSERT_TRUE(index->Save(path).ok());
    std::string image;
    ASSERT_TRUE(ReadFileToString(path, &image).ok());
    const size_t start = testing_image::IndexImagePageFileStart(image);
    const PageImage parsed = ParsePageImage(image, start);
    size_t leaf = 0;
    while (!parsed.records[leaf].live ||
           image[parsed.records[leaf].data] != 0) {
      ++leaf;
    }
    StoreLe(image, parsed.records[leaf].data + 2, 2, 60000);
    testing_image::ResealPageImage(image, start);
    ASSERT_TRUE(WriteStringToFileForTest(image, path).ok());
    StatusOr<std::unique_ptr<PointIndex>> loaded = OpenIndex(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("count exceeds its page"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

// An X-tree page whose supernode link names the page itself: decoding the
// chain would never end, so the walk refuses it as a page structure that
// is not a tree.
TEST(ForgedPageHeaderTest, XTreeSupernodeCycleIsCorruption) {
  const Dataset data = MakeUniformDataset(2000, 4, /*seed=*/73);
  IndexConfig config;
  config.dim = 4;
  config.page_size = 1024;
  config.leaf_data_size = 64;
  std::unique_ptr<PointIndex> index = MakeIndex(IndexType::kXTree, config);
  ASSERT_TRUE(index->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
  const std::string path = ::testing::TempDir() + "/forged_x_cycle.idx";
  ASSERT_TRUE(index->Save(path).ok());
  std::string image;
  ASSERT_TRUE(ReadFileToString(path, &image).ok());
  const size_t start = testing_image::IndexImagePageFileStart(image);
  const PageImage parsed = ParsePageImage(image, start);
  size_t victim = 0;
  while (!parsed.records[victim].live) ++victim;
  StoreLe(image, parsed.records[victim].data + 4, 4,
          parsed.records[victim].id);
  testing_image::ResealPageImage(image, start);
  ASSERT_TRUE(WriteStringToFileForTest(image, path).ok());
  StatusOr<std::unique_ptr<PointIndex>> loaded = OpenIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

// Every saveable tree opens its image rewritten in the v2 format — every
// page padded to a full record — and answers exactly as before.
TEST(PageExtentFaultTest, V2IndexImagesOpen) {
  const int dim = 3;
  const Dataset data = MakeUniformDataset(300, dim, /*seed=*/61);
  const std::vector<Point> points = data.ToPoints();
  const std::vector<uint32_t> oids = data.SequentialOids();
  IndexConfig config;
  config.dim = dim;
  config.page_size = 1024;
  config.leaf_data_size = 64;
  std::vector<IndexType> types = SaveableTypes();
  types.push_back(IndexType::kStaticSRTree);
  types.push_back(IndexType::kTieredSRTree);
  const std::vector<IndexType> dynamic = DynamicTreeTypes();
  for (const IndexType type : types) {
    SCOPED_TRACE(IndexTypeName(type));
    std::unique_ptr<PointIndex> index = MakeIndex(type, config);
    ASSERT_TRUE(index->BulkLoad(points, oids).ok());
    const std::string path =
        ::testing::TempDir() + "/v2_" + IndexTypeName(type) + ".idx";
    ASSERT_TRUE(index->Save(path).ok());
    std::string image;
    ASSERT_TRUE(ReadFileToString(path, &image).ok());
    const std::string v2 = testing_image::ToV2PageImage(
        image, testing_image::IndexImagePageFileStart(image));
    ASSERT_TRUE(WriteStringToFileForTest(v2, path).ok());
    StatusOr<std::unique_ptr<PointIndex>> loaded = OpenIndex(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE((*loaded)->CheckInvariants().ok());
    for (size_t q = 0; q < 20; ++q) {
      const QuerySpec spec = QuerySpec::Knn(7);
      EXPECT_EQ((*loaded)->Search(points[q * 13], spec).neighbors,
                index->Search(points[q * 13], spec).neighbors);
    }
    // Mutating the reopened tree rewrites its pages at their own extents.
    if (std::find(dynamic.begin(), dynamic.end(), type) != dynamic.end()) {
      ASSERT_TRUE((*loaded)->Insert(points[0], 99999).ok());
      ASSERT_TRUE((*loaded)->Delete(points[0], 99999).ok());
      ASSERT_TRUE((*loaded)->CheckInvariants().ok());
    }
  }
}

}  // namespace
}  // namespace srtree
