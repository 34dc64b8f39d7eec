#include "src/storage/image_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <vector>

#include "src/storage/crc32c.h"

namespace srtree {
namespace {

SaveFailpoints* g_failpoints = nullptr;

// Writes all of `data` to `fd`, riding out short writes and EINTR.
bool WriteFully(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t written = ::write(fd, data, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += written;
    n -= static_cast<size_t>(written);
  }
  return true;
}

// Best-effort fsync of the directory containing `path`, so the rename that
// published the new image survives a power cut. Failure is ignored: some
// filesystems refuse to fsync directories, and the data itself is synced.
void SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

void SetSaveFailpointsForTest(SaveFailpoints* failpoints) {
  g_failpoints = failpoints;
}

Status AtomicWriteFile(const std::string& path,
                       const std::function<Status(std::ostream&)>& writer) {
  std::ostringstream buffer(std::ios::binary);
  RETURN_IF_ERROR(writer(buffer));
  if (!buffer.good()) {
    return Status::IoError("serialization failed for: " + path);
  }
  std::string image = std::move(buffer).str();

  const bool write_ok = g_failpoints == nullptr || g_failpoints->OnWrite(&image);

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open for writing: " + tmp + ": " +
                           std::strerror(errno));
  }
  // An injected write fault still lands its (possibly truncated) bytes in
  // the temp file first — exactly what a real short write leaves behind —
  // and then reports failure, so the cleanup path below is what gets
  // exercised.
  if (!WriteFully(fd, image.data(), image.size()) || !write_ok) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError("short write while saving: " + tmp);
  }
  const bool flush_ok =
      ::fsync(fd) == 0 && (g_failpoints == nullptr || g_failpoints->OnFlush());
  if (::close(fd) != 0 || !flush_ok) {
    ::unlink(tmp.c_str());
    return Status::IoError("flush failed while saving: " + tmp);
  }
  const bool rename_ok =
      (g_failpoints == nullptr || g_failpoints->OnRename()) &&
      std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!rename_ok) {
    ::unlink(tmp.c_str());
    return Status::IoError("rename failed while saving: " + path);
  }
  SyncParentDir(path);
  return Status::OK();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed: " + path);
  *out = std::move(buffer).str();
  return Status::OK();
}

Status WriteStringToFileForTest(const std::string& data,
                                const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out.good()) return Status::IoError("short write: " + path);
  return Status::OK();
}

Status WriteIndexImageTo(std::ostream& out, const char* tag,
                         const void* header, size_t header_size) {
  char tag_bytes[kIndexImageTagBytes] = {};
  const size_t tag_len = std::strlen(tag);
  if (tag_len == 0 || tag_len > kIndexImageTagBytes) {
    return Status::InvalidArgument("index image tag must be 1..8 bytes");
  }
  std::memcpy(tag_bytes, tag, tag_len);
  PutLe32(out, kIndexImageMagic);
  PutLe32(out, kIndexImageVersion);
  out.write(tag_bytes, sizeof(tag_bytes));
  PutLe32(out, static_cast<uint32_t>(header_size));
  PutLe32(out, Crc32c(header, header_size));
  out.write(static_cast<const char*>(header),
            static_cast<std::streamsize>(header_size));
  if (!out.good()) return Status::IoError("short write in index image header");
  return Status::OK();
}

Status IndexImageFile::Open(const std::string& path, const char* tag,
                            void* header, size_t header_size) {
  in_.open(path, std::ios::binary);
  if (!in_) return Status::IoError("cannot open for reading: " + path);
  uint32_t magic = 0, version = 0, stored_size = 0, stored_crc = 0;
  char tag_bytes[kIndexImageTagBytes] = {};
  if (!GetLe32(in_, &magic) || magic != kIndexImageMagic) {
    return Status::Corruption("not an index image (bad magic): " + path);
  }
  if (!GetLe32(in_, &version) || version != kIndexImageVersion) {
    return Status::Corruption("unsupported index image version: " + path);
  }
  in_.read(tag_bytes, sizeof(tag_bytes));
  if (!in_.good()) return Status::Corruption("truncated index image: " + path);
  // Validate the caller's tag before building the comparison buffer: the
  // on-disk field is exactly kIndexImageTagBytes wide, so an oversize (or
  // empty) expectation is a caller bug, not a file mismatch.
  const size_t tag_len = std::strlen(tag);
  if (tag_len == 0 || tag_len > kIndexImageTagBytes) {
    return Status::InvalidArgument("index image tag must be 1..8 bytes");
  }
  char want_tag[kIndexImageTagBytes] = {};
  std::memcpy(want_tag, tag, tag_len);
  if (std::memcmp(tag_bytes, want_tag, kIndexImageTagBytes) != 0) {
    return Status::Corruption(
        "index image type mismatch: file is '" +
        std::string(tag_bytes, strnlen(tag_bytes, kIndexImageTagBytes)) +
        "', expected '" + tag + "'");
  }
  if (!GetLe32(in_, &stored_size) || !GetLe32(in_, &stored_crc)) {
    return Status::Corruption("truncated index image header: " + path);
  }
  stored_header_size_ = stored_size;
  if (stored_size != header_size) {
    return Status::Corruption("index image header size mismatch: " + path);
  }
  in_.read(static_cast<char*>(header),
           static_cast<std::streamsize>(header_size));
  if (!in_.good()) {
    return Status::Corruption("truncated index image header: " + path);
  }
  if (Crc32c(header, header_size) != stored_crc) {
    return Status::Corruption("index image header checksum mismatch: " + path);
  }
  return Status::OK();
}

Status IndexImageFile::OpenRaw(const std::string& path) {
  in_.open(path, std::ios::binary);
  if (!in_) return Status::IoError("cannot open for reading: " + path);
  return Status::OK();
}

StatusOr<std::string> PeekIndexImageTag(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  uint32_t magic = 0;
  if (!GetLe32(in, &magic)) {
    return Status::Corruption("not an index image (too short): " + path);
  }
  // Pre-v2 SR-tree files began with the raw SrTreeHeader magic "SRT1".
  constexpr uint32_t kLegacySrTreeMagic = 0x53525431u;
  if (magic == kLegacySrTreeMagic) return std::string("legacy-sr-v1");
  if (magic != kIndexImageMagic) {
    return Status::Corruption("not an index image (bad magic): " + path);
  }
  uint32_t version = 0;
  if (!GetLe32(in, &version) || version != kIndexImageVersion) {
    return Status::Corruption("unsupported index image version: " + path);
  }
  char tag_bytes[kIndexImageTagBytes] = {};
  in.read(tag_bytes, sizeof(tag_bytes));
  if (!in.good()) return Status::Corruption("truncated index image: " + path);
  return std::string(tag_bytes, strnlen(tag_bytes, kIndexImageTagBytes));
}

}  // namespace srtree
