// The SR-tree's dimension-major (SoA) page layout and its persistence:
//   * SerializeNode/DeserializeNode round-trip every field, for leaf and
//     inner pages, at D = 1, 3 and 16, on small and default pages, with 0,
//     1 and a full page of entries;
//   * the entry sizes — and so the Table 1 fanouts — are those of the
//     paper's row-major entries;
//   * a page stores exactly its header and entries: the leaf-data area is
//     logical only, so the staged extent ends at the last entry;
//   * Save -> Open round-trips the new layout, and an image whose header
//     carries the retired row-major layout byte is rejected with a clear
//     "re-save" error instead of being misread;
//   * Open rejects, with Corruption, a checksum-valid image whose page
//     headers or child ids do not describe a tree its pages can hold — for
//     the SS-tree's sphere-only pages too;
//   * an SS-tree image in the retired row-major layout (its 56-byte header
//     record) is rejected with a "re-save" error, and a header giving the
//     sphere region with a rect rule set is Corruption.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/sr_tree.h"
#include "src/index/index_factory.h"
#include "src/storage/crc32c.h"
#include "src/storage/image_io.h"
#include "src/workload/queries.h"
#include "src/workload/uniform.h"
#include "tests/page_image_test_util.h"
#include "tests/sr_tree_test_access.h"

namespace srtree {
namespace {

using Access = SRTreeTestAccess;

struct LayoutCase {
  int dim;
  size_t page_size;
  size_t leaf_data_size;
};

std::string CaseName(const ::testing::TestParamInfo<LayoutCase>& info) {
  return "d" + std::to_string(info.param.dim) + "_page" +
         std::to_string(info.param.page_size);
}

class SrPageLayoutTest : public ::testing::TestWithParam<LayoutCase> {
 protected:
  SRTree::Options MakeOptions() const {
    SRTree::Options options;
    options.dim = GetParam().dim;
    options.page_size = GetParam().page_size;
    options.leaf_data_size = GetParam().leaf_data_size;
    return options;
  }

  Point RandomPoint() {
    Point p(static_cast<size_t>(GetParam().dim));
    for (double& x : p) x = rng_.NextDouble() * 2.0 - 0.5;
    return p;
  }

  Access::Node MakeLeaf(size_t count) {
    Access::Node node;
    node.id = 7;
    node.level = 0;
    for (size_t i = 0; i < count; ++i) {
      node.points.push_back(
          Access::LeafEntry{RandomPoint(), static_cast<uint32_t>(1000 + i)});
    }
    return node;
  }

  Access::Node MakeInner(size_t count, int level) {
    Access::Node node;
    node.id = 9;
    node.level = level;
    for (size_t i = 0; i < count; ++i) {
      Point lo = RandomPoint(), hi = lo;
      for (double& x : hi) x += rng_.NextDouble();
      Access::NodeEntry e;
      e.sphere = Sphere(RandomPoint(), rng_.NextDouble());
      e.rect = Rect(std::move(lo), std::move(hi));
      e.weight = static_cast<uint32_t>(3 + 5 * i);
      e.child = static_cast<PageId>(40 + 2 * i);
      node.children.push_back(std::move(e));
    }
    return node;
  }

  Xoshiro256 rng_{4242};
};

void ExpectSameNode(const Access::Node& got, const Access::Node& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.level, want.level);
  ASSERT_EQ(got.points.size(), want.points.size());
  for (size_t i = 0; i < want.points.size(); ++i) {
    EXPECT_EQ(got.points[i].point, want.points[i].point) << "entry " << i;
    EXPECT_EQ(got.points[i].oid, want.points[i].oid) << "entry " << i;
  }
  ASSERT_EQ(got.children.size(), want.children.size());
  for (size_t i = 0; i < want.children.size(); ++i) {
    const Access::NodeEntry& g = got.children[i];
    const Access::NodeEntry& w = want.children[i];
    EXPECT_EQ(g.sphere.center(), w.sphere.center()) << "entry " << i;
    EXPECT_EQ(g.sphere.radius(), w.sphere.radius()) << "entry " << i;
    EXPECT_EQ(g.rect.lo(), w.rect.lo()) << "entry " << i;
    EXPECT_EQ(g.rect.hi(), w.rect.hi()) << "entry " << i;
    EXPECT_EQ(g.weight, w.weight) << "entry " << i;
    EXPECT_EQ(g.child, w.child) << "entry " << i;
  }
}

TEST_P(SrPageLayoutTest, LeafPagesRoundTrip) {
  const SRTree tree(MakeOptions());
  for (const size_t count : {size_t{0}, size_t{1}, tree.leaf_capacity()}) {
    SCOPED_TRACE("count " + std::to_string(count));
    const Access::Node node = MakeLeaf(count);
    const std::vector<char> page = Access::Serialize(tree, node);
    ExpectSameNode(Access::Deserialize(tree, page, node.id), node);
  }
}

TEST_P(SrPageLayoutTest, InnerPagesRoundTrip) {
  const SRTree tree(MakeOptions());
  for (const size_t count : {size_t{0}, size_t{1}, tree.node_capacity()}) {
    SCOPED_TRACE("count " + std::to_string(count));
    const Access::Node node = MakeInner(count, /*level=*/2);
    const std::vector<char> page = Access::Serialize(tree, node);
    ExpectSameNode(Access::Deserialize(tree, page, node.id), node);
  }
}

// Expects the staged extent of `node` to end at `used`, the first byte
// after its last entry, and the codec to leave the 'x' sentinel past it.
void ExpectExtentEndsAtLastEntry(const SRTree& tree, const Access::Node& node,
                                 const std::vector<char>& page, size_t used) {
  EXPECT_EQ(Access::NodeBytes(tree, node), used);
  for (size_t b = used; b < page.size(); ++b) {
    ASSERT_EQ(page[b], 'x') << "byte " << b;
  }
}

// The page is dimension-major: coordinate d of entry i sits at double slot
// d * count + i after the 8-byte header, the oids follow the coordinate
// block, and the page's bytes end there: the leaf-data area is not stored.
TEST_P(SrPageLayoutTest, LeafPageIsDimensionMajor) {
  const SRTree tree(MakeOptions());
  const size_t count = tree.leaf_capacity();
  const Access::Node node = MakeLeaf(count);
  const std::vector<char> page = Access::Serialize(tree, node);
  const size_t dim = static_cast<size_t>(GetParam().dim);
  for (size_t i = 0; i < count; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      double x = 0;
      std::memcpy(&x, page.data() + 8 + (d * count + i) * sizeof(double),
                  sizeof(x));
      EXPECT_EQ(x, node.points[i].point[d]);
    }
    uint32_t oid = 0;
    std::memcpy(&oid,
                page.data() + 8 + dim * count * sizeof(double) +
                    i * sizeof(uint32_t),
                sizeof(oid));
    EXPECT_EQ(oid, node.points[i].oid);
  }
  const size_t used = 8 + count * (dim * sizeof(double) + sizeof(uint32_t));
  ExpectExtentEndsAtLastEntry(tree, node, page, used);
}

// An inner page: centers, radii, rect lo, rect hi, weights and child ids,
// each count-strided, and nothing after the child ids.
TEST_P(SrPageLayoutTest, InnerPageIsDimensionMajor) {
  const SRTree tree(MakeOptions());
  const size_t count = tree.node_capacity();
  const Access::Node node = MakeInner(count, /*level=*/1);
  const std::vector<char> page = Access::Serialize(tree, node);
  const size_t dim = static_cast<size_t>(GetParam().dim);
  const auto load_double = [&](size_t offset) {
    double x = 0;
    std::memcpy(&x, page.data() + offset, sizeof(x));
    return x;
  };
  const auto load_u32 = [&](size_t offset) {
    uint32_t x = 0;
    std::memcpy(&x, page.data() + offset, sizeof(x));
    return x;
  };
  const size_t block = dim * count * sizeof(double);
  const size_t centers = 8;
  const size_t radii = centers + block;
  const size_t lo = radii + count * sizeof(double);
  const size_t hi = lo + block;
  const size_t weights = hi + block;
  const size_t children = weights + count * sizeof(uint32_t);
  for (size_t i = 0; i < count; ++i) {
    const Access::NodeEntry& e = node.children[i];
    for (size_t d = 0; d < dim; ++d) {
      const size_t slot = (d * count + i) * sizeof(double);
      EXPECT_EQ(load_double(centers + slot), e.sphere.center()[d]);
      EXPECT_EQ(load_double(lo + slot), e.rect.lo()[d]);
      EXPECT_EQ(load_double(hi + slot), e.rect.hi()[d]);
    }
    EXPECT_EQ(load_double(radii + i * sizeof(double)), e.sphere.radius());
    EXPECT_EQ(load_u32(weights + i * sizeof(uint32_t)), e.weight);
    EXPECT_EQ(load_u32(children + i * sizeof(uint32_t)), e.child);
  }
  ExpectExtentEndsAtLastEntry(tree, node, page,
                              children + count * sizeof(uint32_t));
}

// Same bytes per entry as the row-major entries of Section 5.3, so the
// fanouts (Table 1) are unchanged by the layout.
TEST_P(SrPageLayoutTest, FanoutsMatchRowMajorEntrySizes) {
  const SRTree tree(MakeOptions());
  const size_t dim = static_cast<size_t>(GetParam().dim);
  const size_t usable = GetParam().page_size - 8;
  EXPECT_EQ(tree.leaf_capacity(),
            usable / (dim * 8 + 4 + GetParam().leaf_data_size));
  EXPECT_EQ(tree.node_capacity(), usable / (3 * dim * 8 + 8 + 4 + 4));
}

INSTANTIATE_TEST_SUITE_P(
    Pages, SrPageLayoutTest,
    ::testing::Values(LayoutCase{1, 512, 0}, LayoutCase{3, 512, 0},
                      LayoutCase{16, 2048, 0}, LayoutCase{1, 8192, 512},
                      LayoutCase{3, 8192, 512}, LayoutCase{16, 8192, 512}),
    CaseName);

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

template <typename Tree = SRTree>
std::unique_ptr<Tree> BuildTree(const Dataset& data) {
  SRTree::Options options;
  options.dim = data.dim();
  options.page_size = 2048;
  options.leaf_data_size = 64;
  auto tree = std::make_unique<Tree>(options);
  EXPECT_TRUE(tree->BulkLoad(data.ToPoints(), data.SequentialOids()).ok());
  return tree;
}

TEST(SrImageLayoutTest, SaveOpenRoundTripsSoaPages) {
  const Dataset data = MakeUniformDataset(1500, 5, /*seed=*/17);
  const auto tree = BuildTree(data);
  const std::string path = TempPath("sr_soa_layout.idx");
  ASSERT_TRUE(tree->Save(path).ok());

  auto reopened = SRTree::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), tree->size());
  EXPECT_EQ((*reopened)->GetTreeStats().leaf_count,
            tree->GetTreeStats().leaf_count);
  for (const Point& q : SampleQueriesFromDataset(data, 20, /*seed=*/19)) {
    for (const QuerySpec& spec : {QuerySpec::Knn(9), QuerySpec::KnnBestFirst(9),
                                  QuerySpec::Range(0.3)}) {
      const QueryResult want = tree->Search(q, spec);
      const QueryResult got = (*reopened)->Search(q, spec);
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      EXPECT_EQ(got.neighbors, want.neighbors);
      EXPECT_EQ(got.io, want.io);
    }
  }
}

// Byte offset of the layout byte inside the SRIX container: 24 bytes of
// framing (magic, version, tag, header size, header CRC), then the SR-tree
// header record, whose layout byte follows dim (4 + 4 padding), page size,
// leaf-data size, two doubles and the two option flags.
constexpr size_t kContainerFraming = 24;
constexpr size_t kRectInRadiusByteInHeader = 40;
constexpr size_t kLayoutByteInHeader = 42;
constexpr size_t kRegionByteInHeader = 43;
constexpr size_t kSrHeaderBytes = 64;

// Rewrites header byte `at` of a saved image, which must hold `expect`, and
// re-seals the header CRC, so only the header checks — not the checksum —
// can reject the file.
void ForgeHeaderByte(const std::string& path, size_t at, uint8_t expect,
                     uint8_t value) {
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  ASSERT_GT(bytes.size(), kContainerFraming + kSrHeaderBytes);
  uint32_t header_size = 0;
  std::memcpy(&header_size, bytes.data() + 16, sizeof(header_size));
  ASSERT_EQ(header_size, kSrHeaderBytes);
  ASSERT_EQ(bytes[kContainerFraming + at], static_cast<char>(expect))
      << "header byte " << at;
  bytes[kContainerFraming + at] = static_cast<char>(value);
  const uint32_t crc = Crc32c(bytes.data() + kContainerFraming, header_size);
  for (int i = 0; i < 4; ++i) {
    bytes[20 + static_cast<size_t>(i)] = static_cast<char>(crc >> (8 * i));
  }
  ASSERT_TRUE(WriteStringToFileForTest(bytes, path).ok());
}

// Rewrites the layout byte, which a saved image holds as 1 (SoA).
void ForgeLayoutByte(const std::string& path, uint8_t layout) {
  ForgeHeaderByte(path, kLayoutByteInHeader, /*expect=*/1, layout);
}

// The tree's own pages, at every level, store exactly their entries.
TEST(SrImageLayoutTest, StoredExtentsEndAtTheLastEntry) {
  const auto tree = BuildTree(MakeUniformDataset(1500, 5, /*seed=*/31));
  ASSERT_GE(Access::RootLevel(*tree), 2);
  std::vector<int> path;
  for (int level = Access::RootLevel(*tree); level >= 0; --level) {
    const Access::Node node = Access::ReadByPath(*tree, path);
    ASSERT_EQ(node.level, level);
    EXPECT_EQ(Access::ExtentByPath(*tree, path),
              Access::NodeBytes(*tree, node));
    path.push_back(0);
  }
  const PageFootprint pages = tree->GetPageFootprint();
  EXPECT_EQ(pages.page_size, 2048u);
  EXPECT_LT(pages.stored_bytes, pages.logical_bytes());
}

TEST(SrImageLayoutTest, RowMajorLayoutImageIsRejectedWithResaveError) {
  const auto tree = BuildTree(MakeUniformDataset(400, 4, /*seed=*/23));
  const std::string path = TempPath("sr_row_major_layout.idx");
  ASSERT_TRUE(tree->Save(path).ok());
  ForgeLayoutByte(path, /*layout=*/0);

  auto reopened = SRTree::Open(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsInvalidArgument())
      << reopened.status().ToString();
  EXPECT_NE(reopened.status().message().find("re-save"), std::string::npos)
      << reopened.status().ToString();
}

TEST(SrImageLayoutTest, UnknownLayoutByteIsCorruption) {
  const auto tree = BuildTree(MakeUniformDataset(400, 4, /*seed=*/29));
  const std::string path = TempPath("sr_unknown_layout.idx");
  ASSERT_TRUE(tree->Save(path).ok());
  ForgeLayoutByte(path, /*layout=*/9);

  auto reopened = SRTree::Open(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
}

// A sphere-only inner page holds centers, radii, weights and child ids:
// dim x 8 + 16 bytes an entry, the SS-tree's Table 1 fanout.
TEST(SsImageLayoutTest, InnerPagesStoreNoRects) {
  const auto tree =
      BuildTree<SSTree>(MakeUniformDataset(1500, 5, /*seed=*/47));
  EXPECT_EQ(tree->node_capacity(), (2048u - 8) / (5 * 8 + 16));
  ASSERT_GE(Access::RootLevel(*tree), 1);
  const Access::Node root = Access::ReadByPath(*tree, {});
  EXPECT_EQ(Access::ExtentByPath(*tree, {}),
            8 + root.children.size() * (5 * 8 + 16));
  for (const Access::NodeEntry& e : root.children) {
    EXPECT_TRUE(e.rect.lo().empty());
  }
}

// The SS-tree's row-major image: the 56-byte header record it wrote before
// it shared the SR-tree's, then a page-file image that is never read.
TEST(SsImageLayoutTest, RowMajorSsImageIsRejectedWithResaveError) {
  using testing_image::Le;
  std::string header;
  header += Le(5, 4) + Le(0, 4);                 // dim, padding
  header += Le(2048, 8) + Le(64, 8);             // page size, leaf data
  double utilization = 0.4, fraction = 0.3;
  uint64_t bits = 0;
  std::memcpy(&bits, &utilization, sizeof(bits));
  header += Le(bits, 8);
  std::memcpy(&bits, &fraction, sizeof(bits));
  header += Le(bits, 8);
  header += Le(0, 4) + Le(0, 4) + Le(0, 8);  // root id, root level, size
  ASSERT_EQ(header.size(), 56u);
  // SRIX container framing: magic, version 2, tag, header size and CRC.
  const std::string image =
      Le(kIndexImageMagic, 4) + Le(kIndexImageVersion, 4) +
      std::string("sstree\0\0", 8) + Le(header.size(), 4) +
      Le(Crc32c(header.data(), header.size()), 4) + header;
  const std::string path = TempPath("ss_row_major.idx");
  ASSERT_TRUE(WriteStringToFileForTest(image, path).ok());

  for (const auto& opened : {SSTree::Open(path).status(),
                             OpenIndex(path).status()}) {
    EXPECT_TRUE(opened.IsInvalidArgument()) << opened.ToString();
    EXPECT_NE(opened.message().find("re-save"), std::string::npos)
        << opened.ToString();
  }
}

// A sphere-only region stores no rectangle for a rect rule to read.
TEST(SsImageLayoutTest, SphereRegionWithRectFlagIsCorruption) {
  const auto ss = BuildTree<SSTree>(MakeUniformDataset(400, 4, /*seed=*/53));
  const std::string ss_path = TempPath("ss_rect_flag.idx");
  ASSERT_TRUE(ss->Save(ss_path).ok());
  ForgeHeaderByte(ss_path, kRectInRadiusByteInHeader, /*expect=*/0, 1);
  const Status ss_status = SSTree::Open(ss_path).status();
  EXPECT_TRUE(ss_status.IsCorruption()) << ss_status.ToString();

  // The same from the other side: an SR image relabelled sphere-only.
  const auto sr = BuildTree(MakeUniformDataset(400, 4, /*seed=*/59));
  const std::string sr_path = TempPath("sr_sphere_region.idx");
  ASSERT_TRUE(sr->Save(sr_path).ok());
  ForgeHeaderByte(sr_path, kRegionByteInHeader, /*expect=*/0, 1);
  const Status sr_status = SRTree::Open(sr_path).status();
  EXPECT_TRUE(sr_status.IsCorruption()) << sr_status.ToString();
}

// --- Open on checksum-valid images that are not trees -------------------

using testing_image::IndexImagePageFileStart;
using testing_image::LoadLe;
using testing_image::PageImage;
using testing_image::PageRecord;
using testing_image::StoreLe;

constexpr int kForgeDim = 5;

// Saves a `Tree`, applies `forge` to the saved image's page-file records
// (it may rewrite any page bytes in place) and re-seals every checksum, so
// only Open()'s structural checks stand between the forgery and a decode.
template <typename Tree = SRTree, typename Forge>
std::string ForgedImage(const std::string& name, Forge&& forge) {
  const auto tree =
      BuildTree<Tree>(MakeUniformDataset(1500, kForgeDim, /*seed=*/37));
  const std::string path = TempPath(name);
  EXPECT_TRUE(tree->Save(path).ok());
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok());
  const size_t start = IndexImagePageFileStart(bytes);
  const PageImage image = testing_image::ParsePageImage(bytes, start);
  forge(bytes, image);
  testing_image::ResealPageImage(bytes, start);
  EXPECT_TRUE(WriteStringToFileForTest(bytes, path).ok());
  return path;
}

// The first live record whose page level is `level`.
const PageRecord& FirstPageAtLevel(const std::string& bytes,
                                   const PageImage& image, int level) {
  for (const PageRecord& r : image.records) {
    if (r.live && static_cast<unsigned char>(bytes[r.data]) == level) return r;
  }
  ADD_FAILURE() << "no page at level " << level;
  return image.records.front();
}

// Offset of child id `i` in an inner page of `count` entries; a
// sphere-only (SS-tree) entry has no rect before its weight.
size_t ChildIdOffset(const PageRecord& r, size_t count, size_t i,
                     bool sphere_only = false) {
  const size_t dim = kForgeDim;
  const size_t rect = sphere_only ? 0 : 2 * dim * 8;
  return r.data + 8 + count * (dim * 8 + 8 + rect + 4) + i * 4;
}

template <typename Tree = SRTree>
void ExpectOpenCorruption(const std::string& path, const std::string& what) {
  auto reopened = Tree::Open(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
  EXPECT_NE(reopened.status().message().find(what), std::string::npos)
      << reopened.status().ToString();
}

// A leaf header claiming 600 entries used to send the decoding audit walk
// 1,416 bytes past an 8 KB page buffer.
TEST(SrOpenValidationTest, LeafCountPastCapacityIsCorruption) {
  const std::string path =
      ForgedImage("sr_forged_count.idx", [](std::string& b, const PageImage& im) {
        StoreLe(b, FirstPageAtLevel(b, im, 0).data + 2, 2, 600);
      });
  ExpectOpenCorruption(path, "count exceeds its page");
}

// Within capacity, but more entries than the page's stored extent holds.
TEST(SrOpenValidationTest, LeafCountPastStoredExtentIsCorruption) {
  const std::string path =
      ForgedImage("sr_forged_extent.idx", [](std::string& b, const PageImage& im) {
        const PageRecord& leaf = FirstPageAtLevel(b, im, 0);
        const size_t count = LoadLe(b, leaf.data + 2, 2);
        StoreLe(b, leaf.data + 2, 2, count + 1);
      });
  ExpectOpenCorruption(path, "count exceeds its page");
}

// A child id naming no live page used to abort the process in PeekPage.
TEST(SrOpenValidationTest, ChildIdNotLiveIsCorruption) {
  const std::string path =
      ForgedImage("sr_forged_child.idx", [](std::string& b, const PageImage& im) {
        const PageRecord& inner = FirstPageAtLevel(b, im, 1);
        const size_t count = LoadLe(b, inner.data + 2, 2);
        StoreLe(b, ChildIdOffset(inner, count, 0), 4, im.page_count + 7);
      });
  ExpectOpenCorruption(path, "is not live");
}

TEST(SrOpenValidationTest, ChildAtTheWrongLevelIsCorruption) {
  const std::string path =
      ForgedImage("sr_forged_level.idx", [](std::string& b, const PageImage& im) {
        b[FirstPageAtLevel(b, im, 0).data] = 1;  // a leaf claiming level 1
      });
  ExpectOpenCorruption(path, "does not carry its level");
}

// Two entries naming one child: a DAG, whose walk finds more points than
// the tree holds.
TEST(SrOpenValidationTest, SharedChildIsCorruption) {
  const std::string path =
      ForgedImage("sr_forged_dag.idx", [](std::string& b, const PageImage& im) {
        const PageRecord& inner = FirstPageAtLevel(b, im, 1);
        const size_t count = LoadLe(b, inner.data + 2, 2);
        ASSERT_GE(count, 2u);
        StoreLe(b, ChildIdOffset(inner, count, 1), 4,
                LoadLe(b, ChildIdOffset(inner, count, 0), 4));
      });
  auto reopened = SRTree::Open(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
}

// The same forgeries on the SS-tree's sphere-only pages.
TEST(SsOpenValidationTest, LeafCountPastCapacityIsCorruption) {
  const std::string path = ForgedImage<SSTree>(
      "ss_forged_count.idx", [](std::string& b, const PageImage& im) {
        StoreLe(b, FirstPageAtLevel(b, im, 0).data + 2, 2, 600);
      });
  ExpectOpenCorruption<SSTree>(path, "count exceeds its page");
}

TEST(SsOpenValidationTest, LeafCountPastStoredExtentIsCorruption) {
  const std::string path = ForgedImage<SSTree>(
      "ss_forged_extent.idx", [](std::string& b, const PageImage& im) {
        const PageRecord& leaf = FirstPageAtLevel(b, im, 0);
        const size_t count = LoadLe(b, leaf.data + 2, 2);
        StoreLe(b, leaf.data + 2, 2, count + 1);
      });
  ExpectOpenCorruption<SSTree>(path, "count exceeds its page");
}

TEST(SsOpenValidationTest, ChildIdNotLiveIsCorruption) {
  const std::string path = ForgedImage<SSTree>(
      "ss_forged_child.idx", [](std::string& b, const PageImage& im) {
        const PageRecord& inner = FirstPageAtLevel(b, im, 1);
        const size_t count = LoadLe(b, inner.data + 2, 2);
        StoreLe(b, ChildIdOffset(inner, count, 0, /*sphere_only=*/true), 4,
                im.page_count + 7);
      });
  ExpectOpenCorruption<SSTree>(path, "is not live");
}

// The re-sealing itself forges nothing: an untouched image still opens.
TEST(SrOpenValidationTest, ResealedUntouchedImageOpens) {
  const std::string path = ForgedImage(
      "sr_forged_none.idx", [](std::string&, const PageImage&) {});
  auto reopened = SRTree::Open(path);
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
}

}  // namespace
}  // namespace srtree
