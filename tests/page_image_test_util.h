// Byte-level access to saved page-file images (src/storage/page_file.cc),
// for tests that forge an image and re-seal its checksums so that only the
// check under test — not a CRC — can reject it.
//
// An index image (src/storage/image_io.h) embeds the page-file image after
// its container framing and header record; IndexImagePageFileStart() finds
// it. The helpers read v2 records ([page_size bytes][crc]) and v3 records
// ([u32 extent][extent bytes][crc over both]).

#ifndef SRTREE_TESTS_PAGE_IMAGE_TEST_UTIL_H_
#define SRTREE_TESTS_PAGE_IMAGE_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/storage/crc32c.h"

namespace srtree::testing_image {

// Page-file header: magic, version, page size, page count, live count,
// header CRC.
inline constexpr size_t kPageFileHeaderBytes = 36;
inline constexpr size_t kPageFileFooterBytes = 24;

inline uint64_t LoadLe(const std::string& bytes, size_t at, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

inline void StoreLe(std::string& bytes, size_t at, size_t width, uint64_t v) {
  for (size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<char>(v >> (8 * i));
  }
}

inline std::string Le(uint64_t v, size_t width) {
  std::string out(width, '\0');
  StoreLe(out, 0, width, v);
  return out;
}

// Offset of the page-file image inside an index image: 24 bytes of
// container framing, then the header record.
inline size_t IndexImagePageFileStart(const std::string& image) {
  return 24 + static_cast<size_t>(LoadLe(image, 16, 4));
}

// Replaces the header record of an index image with `header`, rewriting
// its size and CRC words: an image as a type that kept a different header
// record would have saved it.
inline void ReplaceIndexImageHeader(std::string& image,
                                    const std::string& header) {
  const size_t old_size = static_cast<size_t>(LoadLe(image, 16, 4));
  image.replace(24, old_size, header);
  StoreLe(image, 16, 4, header.size());
  StoreLe(image, 20, 4, Crc32c(header.data(), header.size()));
}

struct PageRecord {
  size_t id = 0;
  bool live = false;
  size_t data = 0;    // offset of the page bytes (live records)
  size_t extent = 0;  // bytes stored
};

struct PageImage {
  uint32_t version = 0;
  uint64_t page_size = 0;
  uint64_t page_count = 0;
  uint64_t live_count = 0;
  std::vector<PageRecord> records;
  size_t footer = 0;  // offset of the footer
};

// Parses the (well-formed) page-file image starting at `start`.
inline PageImage ParsePageImage(const std::string& image, size_t start) {
  PageImage out;
  out.version = static_cast<uint32_t>(LoadLe(image, start + 4, 4));
  out.page_size = LoadLe(image, start + 8, 8);
  out.page_count = LoadLe(image, start + 16, 8);
  out.live_count = LoadLe(image, start + 24, 8);
  size_t at = start + kPageFileHeaderBytes;
  for (uint64_t i = 0; i < out.page_count; ++i) {
    PageRecord record;
    record.id = i;
    record.live = image[at++] != 0;
    if (record.live) {
      record.extent = out.page_size;
      if (out.version >= 3) {
        record.extent = LoadLe(image, at, 4);
        at += 4;
      }
      record.data = at;
      at += record.extent + 4;
    }
    out.records.push_back(record);
  }
  out.footer = at;
  EXPECT_EQ(out.footer + kPageFileFooterBytes, image.size());
  return out;
}

// Recomputes every checksum of the page-file image at `start` — header,
// page and image CRCs — over its current bytes, as SaveTo would have.
inline void ResealPageImage(std::string& image, size_t start) {
  const PageImage parsed = ParsePageImage(image, start);
  const std::string header = image.substr(start, 32);
  StoreLe(image, start + 32, 4, Crc32c(header.data(), header.size()));
  // The image CRC covers every byte but the embedded CRC words.
  uint32_t image_crc = Crc32cExtend(0, header.data(), header.size());
  size_t at = start + kPageFileHeaderBytes;
  for (const PageRecord& r : parsed.records) {
    const size_t record_end = r.live ? r.data + r.extent : at + 1;
    image_crc = Crc32cExtend(image_crc, image.data() + at, record_end - at);
    if (r.live) {
      // v3 page CRCs cover the extent word too.
      const size_t covered = parsed.version >= 3 ? r.data - 4 : r.data;
      StoreLe(image, record_end, 4,
              Crc32c(image.data() + covered, record_end - covered));
      at = record_end + 4;
    } else {
      at = record_end;
    }
  }
  image_crc = Crc32cExtend(image_crc, image.data() + parsed.footer, 20);
  StoreLe(image, parsed.footer + 20, 4, image_crc);
}

// Cuts live record `index` of the v3 page-file image at `start` down to its
// first `extent` bytes and re-seals the checksums.
inline void ShortenPageRecord(std::string& image, size_t start, size_t index,
                              size_t extent) {
  const PageRecord r = ParsePageImage(image, start).records.at(index);
  ASSERT_TRUE(r.live);
  ASSERT_LE(extent, r.extent);
  image.erase(r.data + extent, r.extent - extent);
  StoreLe(image, r.data - 4, 4, extent);
  ResealPageImage(image, start);
}

// The v2 rendering of the v3 page-file image at `start` (everything before
// `start` is kept): every live page padded with zeros to a full page, no
// extent words, version 2, checksums re-sealed.
inline std::string ToV2PageImage(const std::string& image, size_t start) {
  const PageImage parsed = ParsePageImage(image, start);
  EXPECT_EQ(parsed.version, 3u);
  std::string out = image.substr(0, start + kPageFileHeaderBytes);
  StoreLe(out, start + 4, 4, 2);
  for (const PageRecord& r : parsed.records) {
    out.push_back(r.live ? 1 : 0);
    if (!r.live) continue;
    std::string page = image.substr(r.data, r.extent);
    page.resize(parsed.page_size, '\0');
    out += page + Le(0, 4);  // the CRC is re-sealed below
  }
  out += image.substr(parsed.footer);
  ResealPageImage(out, start);
  return out;
}

}  // namespace srtree::testing_image

#endif  // SRTREE_TESTS_PAGE_IMAGE_TEST_UTIL_H_
