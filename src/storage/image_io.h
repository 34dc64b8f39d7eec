// Durable file plumbing for persisted index images.
//
// Everything that puts an index image on disk goes through this layer
// (srlint rule R5 forbids raw std::ofstream/std::ifstream on images outside
// src/storage/), which supplies the two guarantees the formats themselves
// cannot:
//
//   * AtomicWriteFile(): a Save() either fully replaces the destination or
//     leaves it untouched. The image is serialized in memory, written to
//     `<path>.tmp`, flushed and fsync()ed, and only then rename()d over the
//     destination (with a best-effort fsync of the parent directory). Any
//     failure unlinks the temp file and surfaces IoError; a crash at any
//     point leaves either the old image or the new one, never a torn mix.
//
//   * IndexImageFile / WriteIndexImageTo(): the common container every
//     tree-index image shares — magic, format version, an 8-byte tree-type
//     tag, and a CRC32C-guarded header record — so an image can never be
//     opened as the wrong tree type and a corrupted header is detected
//     before any state is built from it.
//
// The SaveFailpoints hook is the seam the fault-injection harness
// (src/debug/fault_injection.h) uses to simulate short writes, failed
// fsync, and failed rename without touching production control flow.

#ifndef SRTREE_STORAGE_IMAGE_IO_H_
#define SRTREE_STORAGE_IMAGE_IO_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <istream>
#include <ostream>
#include <string>

#include "src/common/status.h"

namespace srtree {

// ---------------------------------------------------------------------------
// Little-endian framing primitives shared by the image formats. The v2
// formats fix their framing byte order so an image is not a host-endian
// dump; page *contents* (doubles laid out by PageWriter) remain host
// representation, which the per-page checksum still guards.

inline void PutLe32(std::ostream& out, uint32_t v) {
  const char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                     static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out.write(b, sizeof(b));
}

inline void PutLe64(std::ostream& out, uint64_t v) {
  PutLe32(out, static_cast<uint32_t>(v));
  PutLe32(out, static_cast<uint32_t>(v >> 32));
}

inline bool GetLe32(std::istream& in, uint32_t* v) {
  unsigned char b[4];
  in.read(reinterpret_cast<char*>(b), sizeof(b));
  if (!in.good()) return false;
  *v = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
       (static_cast<uint32_t>(b[2]) << 16) |
       (static_cast<uint32_t>(b[3]) << 24);
  return true;
}

inline bool GetLe64(std::istream& in, uint64_t* v) {
  uint32_t lo = 0, hi = 0;
  if (!GetLe32(in, &lo) || !GetLe32(in, &hi)) return false;
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

// ---------------------------------------------------------------------------
// Atomic whole-file replacement.

// Test-only failpoints on the atomic-save path. Production runs with none
// installed; debug::FaultInjector installs one to drive the durability
// fuzz. All hooks default to "no fault".
class SaveFailpoints {
 public:
  virtual ~SaveFailpoints() = default;

  // Called with the fully serialized image before it reaches the
  // filesystem. May truncate or mutate `image` (simulating the bytes a
  // short or torn write would leave in the temp file); returning false
  // makes the physical write report failure.
  virtual bool OnWrite(std::string* image) {
    (void)image;
    return true;
  }
  // Returning false simulates fsync() failing on the temp file.
  virtual bool OnFlush() { return true; }
  // Returning false simulates rename() failing.
  virtual bool OnRename() { return true; }
};

// Installs `failpoints` for subsequent AtomicWriteFile calls on this
// process (nullptr restores the default). Not thread-safe; tests only.
void SetSaveFailpointsForTest(SaveFailpoints* failpoints);

// Serializes via `writer` into memory, then atomically replaces `path` as
// described above. On any failure the destination is untouched and the
// temp file is removed.
Status AtomicWriteFile(const std::string& path,
                       const std::function<Status(std::ostream&)>& writer);

// ---------------------------------------------------------------------------
// Raw byte helpers.

// Reads the whole file into `out`. IoError if it cannot be opened/read.
Status ReadFileToString(const std::string& path, std::string* out);

// Non-atomic, non-checksummed byte dump. Exists so the fault-injection
// harness can plant deliberately corrupted images; production code saves
// through AtomicWriteFile().
Status WriteStringToFileForTest(const std::string& data,
                                const std::string& path);

// ---------------------------------------------------------------------------
// The tree-index image container (format v2).
//
//   [u32 magic "SRIX"] [u32 container version = 2] [char tag[8]]
//   [u32 header_size] [u32 crc32c(header)] [header bytes]
//   [PageFile image to end of file — see page_file.cc]
//
// The framing integers are little-endian; `tag` names the tree type (e.g.
// "srtree"), so OpenIndex() can dispatch and a mismatched Open() fails with
// Corruption instead of misinterpreting geometry.

inline constexpr uint32_t kIndexImageMagic = 0x58495253u;  // "SRIX"
inline constexpr uint32_t kIndexImageVersion = 2;
inline constexpr size_t kIndexImageTagBytes = 8;

// Writes the container framing + header record to `out`, leaving the
// stream positioned for the PageFile image. Used inside an
// AtomicWriteFile() writer.
Status WriteIndexImageTo(std::ostream& out, const char* tag,
                         const void* header, size_t header_size);

// Reader side: validates magic/version/tag/header-CRC and hands back the
// header bytes plus a stream positioned at the embedded PageFile image.
class IndexImageFile {
 public:
  // Opens `path`, validates the container against `tag`, and copies
  // exactly `header_size` header bytes into `header`. Corruption on any
  // mismatch (wrong magic/tag/size, CRC failure), IoError if unreadable.
  Status Open(const std::string& path, const char* tag, void* header,
              size_t header_size);

  // Opens `path` with no container validation, positioned at offset 0.
  // Only the pre-v2 (legacy) loaders use this.
  Status OpenRaw(const std::string& path);

  // The stream, positioned at the page-file image (Open) or the start of
  // the file (OpenRaw).
  std::istream& stream() { return in_; }

  // The header size the file records, once Open() has read that far (0
  // before), so a caller can recognize a retired header record after a
  // size mismatch.
  uint32_t stored_header_size() const { return stored_header_size_; }

 private:
  std::ifstream in_;
  uint32_t stored_header_size_ = 0;
};

// Identifies a saved index file: returns the container tag for a v2 image,
// or the sniffed legacy marker "legacy-sr-v1" for a pre-v2 SR-tree file (no
// longer openable — the marker exists so Open paths can explain WHY the file
// fails instead of reporting garbage). Corruption if the file is neither.
StatusOr<std::string> PeekIndexImageTag(const std::string& path);

}  // namespace srtree

#endif  // SRTREE_STORAGE_IMAGE_IO_H_
