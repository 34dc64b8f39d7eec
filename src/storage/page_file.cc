#include "src/storage/page_file.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>

#include "src/common/check.h"
#include "src/storage/crc32c.h"
#include "src/storage/image_io.h"

namespace srtree {
namespace {

// Image header: magic + version guard against loading foreign files.
//
// Format v3 (current; all framing little-endian):
//   [u32 magic "SRPF"] [u32 version = 3] [u64 page_size] [u64 page_count]
//   [u64 live_count] [u32 header_crc = crc32c(magic..live_count)]
//   page_count records: [u8 live (0|1)]
//                       live pages append [u32 extent] [extent bytes]
//                       [u32 crc32c(extent word, bytes)]
//   footer: [u32 "SRPE"] [u64 page_count] [u64 live_count]
//           [u32 image_crc = crc32c of every preceding image byte EXCEPT
//            the embedded CRC words (header_crc and the per-page CRCs)]
//
// A record stores a page's extent, never its logical tail: the bytes past
// the extent are zero by definition, so nothing is trimmed or guessed (a
// trailing zero inside the extent — an oid of 0 in the last slot — is
// data, and stays). Each extent is checked against page_size and against
// the bytes left in the stream before anything is allocated for it.
//
// Format v2 is v3 without extent words: every live record is [page_size
// bytes] [u32 crc32c(page)]. LoadFrom still reads it, as full-extent pages.
//
// Every byte of the image is covered by a validation rule: the header and
// each live page (with its extent) by a CRC, the record layout by the
// size checks (the image must end exactly at the end of the stream), the
// counts by the footer echo, and the whole image by the footer's running
// CRC — so
// truncation, torn pages, and bit flips all surface as Corruption instead
// of silently loading garbage geometry. The image CRC is what rules out
// the one failure per-record checksums cannot see: an overwrite torn at a
// record boundary splicing the prefix of one valid image onto the suffix
// of another.
//
// The embedded CRC words MUST stay out of the image CRC. CRC32C is linear,
// so the XOR-difference between two valid [page][crc32c(page)] records is
// [D][crc_linear(D)] — itself a CRC32C codeword. Had the image CRC covered
// those words, every record-boundary splice of two valid images would
// cancel out exactly and the footer check would pass; over the raw bytes
// alone a splice survives only with the generic 2^-32 collision odds.
//
// Format v1 (the pre-checksum, host-endian layout) is no longer readable:
// its read-compatibility window ("one release") has closed, and it was the
// last unchecksummed load path. LoadFrom rejects version 1 with an explicit
// "re-save with v2" Corruption so old images fail loudly, not as garbage.
constexpr uint32_t kPageFileMagic = 0x53525046;    // "SRPF"
constexpr uint32_t kPageFileFooterMagic = 0x45505253;  // "SRPE"
constexpr uint32_t kPageFileVersion = 3;
constexpr uint32_t kFullPagePageFileVersion = 2;
constexpr uint32_t kRetiredPageFileVersion = 1;

// Footer: magic, page count, live count, image CRC.
constexpr uint64_t kFooterBytes = 4 + 8 + 8 + 4;

// The stride of Snapshot::Prefetch: one x86-64 cache line.
constexpr size_t kCacheLineBytes = 64;

// Bytes remaining between the stream position and EOF, or -1 when the
// stream is not seekable.
int64_t RemainingBytes(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return -1;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || !in.good()) return -1;
  return static_cast<int64_t>(end - pos);
}

// Extend a running CRC over the little-endian encoding of a framing word.
uint32_t CrcExtendLe32(uint32_t crc, uint32_t v) {
  const unsigned char b[4] = {
      static_cast<unsigned char>(v), static_cast<unsigned char>(v >> 8),
      static_cast<unsigned char>(v >> 16), static_cast<unsigned char>(v >> 24)};
  return Crc32cExtend(crc, b, sizeof(b));
}

uint32_t CrcExtendLe64(uint32_t crc, uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  return Crc32cExtend(crc, b, sizeof(b));
}

// The header CRC covers the serialized little-endian header fields.
uint32_t HeaderCrc(uint32_t version, uint64_t page_size, uint64_t page_count,
                   uint64_t live_count) {
  std::ostringstream buf(std::ios::binary);
  PutLe32(buf, kPageFileMagic);
  PutLe32(buf, version);
  PutLe64(buf, page_size);
  PutLe64(buf, page_count);
  PutLe64(buf, live_count);
  const std::string bytes = std::move(buf).str();
  return Crc32c(bytes.data(), bytes.size());
}

// Round-robin thread slot for the counter shards, assigned on a thread's
// first counted access.
size_t ThreadStatSlot() {
  static std::atomic<size_t> next_slot{0};
  thread_local const size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace

PageFile::PageFile(size_t page_size)
    : page_size_(page_size),
      shards_(std::make_unique<StatShard[]>(kStatShards)) {
  CHECK_GT(page_size_, 0u);
  // Extents are stored as u32 (in the page table and in images).
  CHECK_LE(page_size_, std::numeric_limits<uint32_t>::max());
  // Publish the empty version 1 so AcquireSnapshot never observes null and
  // committed_version() is meaningful from birth.
  Commit({});
}

PageFile::~PageFile() {
  // EpochManager's destructor (which runs after this body, epochs_ being the
  // last member) CHECKs that no reader guard is still alive, so deleting the
  // published version here cannot race a Snapshot::Read. Its chunks go with
  // chunks_.
  delete committed_.exchange(nullptr, std::memory_order_seq_cst);
}

void PageFile::MarkChunkDirty(PageId id) {
  const size_t c = id / kChunkPages;
  if (c >= chunk_dirty_.size()) chunk_dirty_.resize(c + 1, false);
  chunk_dirty_[c] = true;
}

PageId PageFile::Allocate() {
  PageId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    live_[id] = true;
    page_stamp_[id] = next_stamp_++;
  } else {
    id = static_cast<PageId>(pages_.size());
    pages_.emplace_back();
    extents_.push_back(0);
    live_.push_back(true);
    page_stamp_.push_back(next_stamp_++);
  }
  // The page starts empty (extent 0, reading as zeros): its first
  // StageWrite() sizes the buffer, so no page-sized block is allocated and
  // zeroed only to be replaced. The zero-length buffer is still a distinct
  // non-null pointer, which is what marks the page live in a committed
  // version's table.
  pages_[id] = std::make_unique<char[]>(0);
  ++live_pages_;
  MarkChunkDirty(id);
  return id;
}

void PageFile::Free(PageId id) {
  CHECK(IsLive(id));
  // The published version's table may still point at the buffer; then it
  // goes to the next Commit()'s retire batch instead of being released
  // under a live snapshot. The slot is left null for Allocate().
  if (SharedWithCommitted(id)) {
    pending_retire_.push_back(std::move(pages_[id]));
  } else {
    pages_[id].reset();
  }
  stored_bytes_ -= extents_[id];
  extents_[id] = 0;
  live_[id] = false;
  --live_pages_;
  free_list_.push_back(id);
  MarkChunkDirty(id);
}

bool PageFile::IsLive(PageId id) const {
  return id < pages_.size() && live_[id];
}

PageFile::StatShard& PageFile::LocalShard() const {
  return shards_[ThreadStatSlot() % kStatShards];
}

void PageFile::CountRead(PageId id, int level, IoStatsDelta* delta) const {
  StatShard& shard = LocalShard();
  const size_t slot = (level >= 0 && level < kTrackedLevels)
                          ? static_cast<size_t>(level) + 1
                          : 0;
  shard.reads[slot].fetch_add(1, std::memory_order_relaxed);
  bool cache_hit = false;
  if (simulate_cache_.load(std::memory_order_relaxed)) {
    MutexLock lock(stats_mu_);
    if (cache_capacity_ > 0) cache_hit = TouchCache(id);
  }
  if (cache_hit) shard.cache_hits.fetch_add(1, std::memory_order_relaxed);
  if (delta != nullptr) {
    delta->RecordRead(level);
    if (cache_hit) delta->RecordCacheHit();
  }
}

const char* PageFile::ReadInPlace(PageId id, int level,
                                  IoStatsDelta* delta) const {
  CHECK(IsLive(id));
  CountRead(id, level, delta);
  return pages_[id].get();
}

void PageFile::Read(PageId id, char* out, int level,
                    IoStatsDelta* delta) const {
  const char* page = ReadInPlace(id, level, delta);  // CHECKs liveness
  const size_t extent = extents_[id];
  std::memcpy(out, page, extent);
  std::memset(out + extent, 0, page_size_ - extent);
}

size_t PageFile::extent(PageId id) const {
  CHECK(IsLive(id));
  return extents_[id];
}

void PageFile::SimulateCache(size_t capacity) {
  MutexLock lock(stats_mu_);
  cache_capacity_ = capacity;
  cache_lru_.clear();
  cache_index_.clear();
  simulate_cache_.store(capacity > 0, std::memory_order_relaxed);
}

bool PageFile::TouchCache(PageId id) const {
  const auto it = cache_index_.find(id);
  if (it != cache_index_.end()) {
    // The cache would have served this read.
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return true;
  }
  cache_lru_.push_front(id);
  cache_index_[id] = cache_lru_.begin();
  if (cache_lru_.size() > cache_capacity_) {
    cache_index_.erase(cache_lru_.back());
    cache_lru_.pop_back();
  }
  return false;
}

char* PageFile::StageWrite(PageId id, size_t extent) {
  CHECK(IsLive(id));
  CHECK_LE(extent, page_size_);
  if (SharedWithCommitted(id)) {
    // Copy-on-write: the published version keeps the old buffer (retired at
    // the next Commit); the working state moves to a fresh one under a
    // fresh stamp so (id, stamp) keeps naming immutable bytes. The caller
    // overwrites the whole extent, so the fresh buffer is not zeroed.
    pending_retire_.push_back(std::move(pages_[id]));
    pages_[id] = std::make_unique_for_overwrite<char[]>(extent);
    page_stamp_[id] = next_stamp_++;
    MarkChunkDirty(id);
  } else if (extent != extents_[id]) {
    // The buffer was created after the last commit, so no snapshot can see
    // it, but it holds another extent: replace it by one of exactly
    // `extent` bytes. Its stamp is already unpublished and its chunk
    // already dirty (Allocate, copy-on-write or LoadFrom marked both).
    DCHECK(chunk_dirty_[id / kChunkPages]);
    pages_[id] = std::make_unique_for_overwrite<char[]>(extent);
  }
  // Otherwise the buffer is unpublished and of the right size; reuse it.
  stored_bytes_ = stored_bytes_ - extents_[id] + extent;
  extents_[id] = static_cast<uint32_t>(extent);
  LocalShard().writes.fetch_add(1, std::memory_order_relaxed);
  return pages_[id].get();
}

void PageFile::StageWrite(PageId id, const char* data) {
  std::memcpy(StageWrite(id), data, page_size_);
}

void PageFile::Commit(const std::array<uint64_t, kCommitMetaWords>& meta) {
  auto retired = std::make_shared<Retired>();
  auto next = std::make_unique<VersionState>();
  const VersionState* prev = committed_.load(std::memory_order_seq_cst);
  next->version = (prev != nullptr) ? prev->version + 1 : 1;
  next->meta = meta;
  // Path copying: rebuild only the chunks whose entries changed since the
  // last commit; every other chunk is shared with the previous version.
  // Chunks past the page count were dropped by a shrinking LoadFrom.
  const size_t chunk_count = (pages_.size() + kChunkPages - 1) / kChunkPages;
  for (size_t c = chunk_count; c < chunks_.size(); ++c) {
    retired->chunks.push_back(std::move(chunks_[c]));
  }
  chunks_.resize(chunk_count);
  chunk_dirty_.resize(chunk_count, false);
  next->chunks.resize(chunk_count);
  for (size_t c = 0; c < chunk_count; ++c) {
    if (chunk_dirty_[c]) {
      chunk_dirty_[c] = false;
      auto chunk = std::make_unique<Chunk>();
      const size_t begin = c * kChunkPages;
      const size_t end = std::min(begin + kChunkPages, pages_.size());
      for (size_t i = begin; i < end; ++i) {
        if (live_[i]) {
          chunk->refs[i - begin] =
              PageRef{pages_[i].get(), page_stamp_[i], extents_[i]};
        }
      }
      if (chunks_[c] != nullptr) {
        retired->chunks.push_back(std::move(chunks_[c]));
      }
      chunks_[c] = std::move(chunk);
    }
    // Pages only enter a chunk through Allocate or LoadFrom, which mark it.
    DCHECK(chunks_[c] != nullptr);
    next->chunks[c] = chunks_[c].get();
  }
  first_unpublished_stamp_ = next_stamp_;

  const VersionState* old =
      committed_.exchange(next.release(), std::memory_order_seq_cst);
  // Unlink-before-retire: from here on neither `old` nor the chunks and
  // buffers only it references are reachable from the published state, so
  // a reader announcing after this point can never acquire them
  // (src/storage/epoch.h).
  retired->version.reset(old);
  retired->buffers = std::move(pending_retire_);
  pending_retire_.clear();
  epochs_.Retire(std::move(retired));
  epochs_.AdvanceAndReclaim();
}

PageFile::Snapshot PageFile::AcquireSnapshot(const EpochGuard& guard) const {
  // The guard parameter is the contract: a snapshot cannot be acquired
  // without an epoch announce already in place, and the announce preceding
  // this load is what keeps the version (and every buffer it references)
  // alive for the snapshot's lifetime.
  (void)guard;
  return Snapshot(this, committed_.load(std::memory_order_seq_cst));
}

uint64_t PageFile::committed_version() const {
  return committed_.load(std::memory_order_seq_cst)->version;
}

uint64_t PageFile::page_stamp(PageId id) const {
  CHECK(IsLive(id));
  return page_stamp_[id];
}

const PageFile::PageRef* PageFile::FindRef(const VersionState* state,
                                           PageId id) {
  const size_t c = id / kChunkPages;
  if (c >= state->chunks.size()) return nullptr;
  return &state->chunks[c]->refs[id % kChunkPages];
}

const char* PageFile::Snapshot::ReadInPlace(PageId id, int level,
                                            IoStatsDelta* delta) const {
  const PageRef* ref = FindRef(static_cast<const VersionState*>(state_), id);
  CHECK(ref != nullptr && ref->data != nullptr);
  // The buffer is immutable for this version's lifetime (copy-on-write) and
  // reclaimed only after every guard that could reach it is gone, so it is
  // handed out as is.
  file_->CountRead(id, level, delta);
  return ref->data;
}

void PageFile::Snapshot::Read(PageId id, char* out, int level,
                              IoStatsDelta* delta) const {
  const size_t extent = this->extent(id);
  std::memcpy(out, ReadInPlace(id, level, delta), extent);
  std::memset(out + extent, 0, file_->page_size_ - extent);
}

size_t PageFile::Snapshot::extent(PageId id) const {
  const PageRef* ref = FindRef(static_cast<const VersionState*>(state_), id);
  CHECK(ref != nullptr && ref->data != nullptr);
  return ref->extent;
}

void PageFile::Snapshot::Prefetch(PageId id) const {
  const PageRef* ref = FindRef(static_cast<const VersionState*>(state_), id);
  if (ref == nullptr || ref->data == nullptr) return;
  const size_t bytes = std::min<size_t>(kPrefetchBytes, ref->extent);
  for (size_t offset = 0; offset < bytes; offset += kCacheLineBytes) {
    __builtin_prefetch(ref->data + offset);
  }
}

uint64_t PageFile::Snapshot::version() const {
  return static_cast<const VersionState*>(state_)->version;
}

uint64_t PageFile::Snapshot::meta(size_t i) const {
  CHECK_LT(i, kCommitMetaWords);
  return static_cast<const VersionState*>(state_)->meta[i];
}

bool PageFile::Snapshot::is_live(PageId id) const {
  const PageRef* ref = FindRef(static_cast<const VersionState*>(state_), id);
  return ref != nullptr && ref->data != nullptr;
}

uint64_t PageFile::Snapshot::page_stamp(PageId id) const {
  const PageRef* ref = FindRef(static_cast<const VersionState*>(state_), id);
  CHECK(ref != nullptr && ref->data != nullptr);
  return ref->stamp;
}

IoStats PageFile::GetIoStats() const {
  std::array<uint64_t, kTrackedLevels + 1> reads{};
  uint64_t cache_hits = 0;
  IoStats stats;
  for (size_t s = 0; s < kStatShards; ++s) {
    const StatShard& shard = shards_[s];
    for (size_t slot = 0; slot < reads.size(); ++slot) {
      reads[slot] += shard.reads[slot].load(std::memory_order_relaxed);
    }
    stats.writes += shard.writes.load(std::memory_order_relaxed);
    cache_hits += shard.cache_hits.load(std::memory_order_relaxed);
  }
  for (const uint64_t r : reads) stats.reads += r;
  // A hit is counted after its read, but a sum racing live readers may
  // still see the hit first.
  stats.cache_misses = stats.reads - std::min(stats.reads, cache_hits);
  size_t top = kTrackedLevels;  // highest slot with a read
  while (top > 0 && reads[top] == 0) --top;
  stats.reads_by_level.assign(reads.begin() + 1,
                              reads.begin() + static_cast<ptrdiff_t>(top) + 1);
  return stats;
}

void PageFile::ResetStats() {
  for (size_t s = 0; s < kStatShards; ++s) {
    StatShard& shard = shards_[s];
    for (std::atomic<uint64_t>& r : shard.reads) {
      r.store(0, std::memory_order_relaxed);
    }
    shard.writes.store(0, std::memory_order_relaxed);
    shard.cache_hits.store(0, std::memory_order_relaxed);
  }
}

const char* PageFile::PeekPage(PageId id) const {
  CHECK(IsLive(id));
  return pages_[id].get();
}

char* PageFile::MutablePageForTest(PageId id) {
  CHECK(IsLive(id));
  return pages_[id].get();
}

Status PageFile::SaveTo(std::ostream& out) const {
  uint64_t live_count = 0;
  for (size_t i = 0; i < pages_.size(); ++i) {
    if (live_[i]) ++live_count;
  }
  PutLe32(out, kPageFileMagic);
  PutLe32(out, kPageFileVersion);
  PutLe64(out, page_size_);
  PutLe64(out, pages_.size());
  PutLe64(out, live_count);
  const uint32_t header_crc =
      HeaderCrc(kPageFileVersion, page_size_, pages_.size(), live_count);
  PutLe32(out, header_crc);
  // Running CRC over the image's raw bytes — every byte EXCEPT the embedded
  // CRC words, which by CRC linearity would let valid-record splices cancel
  // (see the format comment above). This is what detects an overwrite torn
  // at a record boundary.
  uint32_t image_crc = 0;
  image_crc = CrcExtendLe32(image_crc, kPageFileMagic);
  image_crc = CrcExtendLe32(image_crc, kPageFileVersion);
  image_crc = CrcExtendLe64(image_crc, page_size_);
  image_crc = CrcExtendLe64(image_crc, pages_.size());
  image_crc = CrcExtendLe64(image_crc, live_count);
  for (size_t i = 0; i < pages_.size(); ++i) {
    const char live = live_[i] ? 1 : 0;
    out.put(live);
    image_crc = Crc32cExtend(image_crc, &live, 1);
    if (live) {
      const uint32_t extent = extents_[i];
      PutLe32(out, extent);
      out.write(pages_[i].get(), static_cast<std::streamsize>(extent));
      const uint32_t page_crc =
          Crc32cExtend(CrcExtendLe32(0, extent), pages_[i].get(), extent);
      PutLe32(out, page_crc);
      image_crc = CrcExtendLe32(image_crc, extent);
      image_crc = Crc32cExtend(image_crc, pages_[i].get(), extent);
    }
  }
  PutLe32(out, kPageFileFooterMagic);
  PutLe64(out, pages_.size());
  PutLe64(out, live_count);
  image_crc = CrcExtendLe32(image_crc, kPageFileFooterMagic);
  image_crc = CrcExtendLe64(image_crc, pages_.size());
  image_crc = CrcExtendLe64(image_crc, live_count);
  PutLe32(out, image_crc);
  if (!out.good()) return Status::IoError("short write while saving pages");
  return Status::OK();
}

Status PageFile::LoadFrom(std::istream& in) {
  // Everything is staged into locals and swapped in only after the whole
  // image validates: a corrupt or truncated image must leave this PageFile
  // — possibly a live, healthy index — byte-for-byte untouched.
  std::vector<std::unique_ptr<char[]>> pages;
  std::vector<uint32_t> extents;
  std::vector<bool> live;
  std::vector<PageId> free_list;
  size_t live_pages = 0;
  size_t stored_bytes = 0;

  uint32_t magic = 0, version = 0;
  if (!GetLe32(in, &magic) || magic != kPageFileMagic) {
    return Status::Corruption("not a page-file image (bad magic)");
  }
  if (!GetLe32(in, &version)) {
    return Status::Corruption("unsupported page-file image version");
  }
  if (version == kRetiredPageFileVersion) {
    return Status::Corruption(
        "pre-v2 page-file image is no longer readable; re-save with v2 "
        "using a release that still reads it");
  }
  if (version != kPageFileVersion && version != kFullPagePageFileVersion) {
    return Status::Corruption("unsupported page-file image version");
  }
  // v2 records carry no extent word: every live page is a full page.
  const bool has_extents = version == kPageFileVersion;

  uint64_t page_size = 0, page_count = 0, live_count = 0;
  uint32_t header_crc = 0;
  if (!GetLe64(in, &page_size) || !GetLe64(in, &page_count) ||
      !GetLe64(in, &live_count) || !GetLe32(in, &header_crc)) {
    return Status::Corruption("truncated page-file header");
  }
  if (HeaderCrc(version, page_size, page_count, live_count) != header_crc) {
    return Status::Corruption("page-file header checksum mismatch");
  }
  if (live_count > page_count) {
    return Status::Corruption("page-file header live count exceeds pages");
  }
  if (page_size != page_size_) {
    return Status::InvalidArgument("image page size does not match");
  }
  if (page_count > std::numeric_limits<PageId>::max()) {
    return Status::Corruption("page-file header page count implausible");
  }

  // Validate the claimed page count against the bytes actually present
  // BEFORE building any state from it: a forged multi-terabyte header must
  // be rejected up front, not discovered one heap block at a time. The
  // image extends to the end of the stream; a v2 image is sized exactly by
  // its header, a v3 image lies between every live page empty and every
  // live page full.
  int64_t remaining = RemainingBytes(in);
  if (remaining >= 0) {
    const uint64_t word = has_extents ? 4 : 0;
    const uint64_t smallest =
        page_count + live_count * (word + 4) + kFooterBytes;
    const uint64_t largest = smallest + live_count * page_size;
    const uint64_t actual = static_cast<uint64_t>(remaining);
    if (actual < smallest || actual > largest ||
        (!has_extents && actual != largest)) {
      return Status::Corruption("page-file image size mismatch");
    }
  }

  // Mirror of SaveTo's running image CRC: raw bytes only, never the
  // embedded CRC words.
  uint32_t image_crc = 0;
  image_crc = CrcExtendLe32(image_crc, kPageFileMagic);
  image_crc = CrcExtendLe32(image_crc, version);
  image_crc = CrcExtendLe64(image_crc, page_size);
  image_crc = CrcExtendLe64(image_crc, page_count);
  image_crc = CrcExtendLe64(image_crc, live_count);

  pages.reserve(page_count);
  extents.reserve(page_count);
  live.reserve(page_count);
  for (uint64_t i = 0; i < page_count; ++i) {
    const int flag = in.get();
    if (flag == std::char_traits<char>::eof()) {
      return Status::Corruption("truncated page-file image");
    }
    if (flag != 0 && flag != 1) {
      return Status::Corruption("page-file record has invalid live flag");
    }
    const char flag_byte = static_cast<char>(flag);
    image_crc = Crc32cExtend(image_crc, &flag_byte, 1);
    if (remaining >= 0) --remaining;
    if (flag != 0) {
      uint32_t extent = static_cast<uint32_t>(page_size_);
      uint32_t page_crc = 0;
      if (has_extents) {
        if (!GetLe32(in, &extent)) {
          return Status::Corruption("truncated page extent");
        }
        if (remaining >= 0) remaining -= 4;
        // Checked before anything is allocated for it: the extent must fit
        // a page and the bytes left (its CRC and the footer follow it).
        if (extent > page_size_ ||
            (remaining >= 0 && static_cast<uint64_t>(extent) + 4 +
                                       kFooterBytes >
                                   static_cast<uint64_t>(remaining))) {
          return Status::Corruption("page-file record extent out of range at "
                                    "page " + std::to_string(i));
        }
        page_crc = CrcExtendLe32(page_crc, extent);
        image_crc = CrcExtendLe32(image_crc, extent);
      }
      auto page = std::make_unique_for_overwrite<char[]>(extent);
      in.read(page.get(), static_cast<std::streamsize>(extent));
      if (!in.good()) return Status::Corruption("truncated page contents");
      uint32_t stored_crc = 0;
      if (!GetLe32(in, &stored_crc)) {
        return Status::Corruption("truncated page checksum");
      }
      if (remaining >= 0) remaining -= static_cast<int64_t>(extent) + 4;
      if (Crc32cExtend(page_crc, page.get(), extent) != stored_crc) {
        return Status::Corruption("page checksum mismatch at page " +
                                  std::to_string(i));
      }
      image_crc = Crc32cExtend(image_crc, page.get(), extent);
      pages.push_back(std::move(page));
      extents.push_back(extent);
      live.push_back(true);
      ++live_pages;
      stored_bytes += extent;
    } else {
      // Dead pages stage no buffer; Allocate() materializes one on reuse.
      pages.push_back(nullptr);
      extents.push_back(0);
      live.push_back(false);
      free_list.push_back(static_cast<PageId>(i));
    }
  }
  {
    uint32_t footer_magic = 0, footer_crc = 0;
    uint64_t footer_pages = 0, footer_live = 0;
    if (!GetLe32(in, &footer_magic) || footer_magic != kPageFileFooterMagic ||
        !GetLe64(in, &footer_pages) || !GetLe64(in, &footer_live) ||
        !GetLe32(in, &footer_crc)) {
      return Status::Corruption("truncated page-file footer");
    }
    if (footer_pages != page_count || footer_live != live_count) {
      return Status::Corruption("page-file footer does not match header");
    }
    image_crc = CrcExtendLe32(image_crc, footer_magic);
    image_crc = CrcExtendLe64(image_crc, footer_pages);
    image_crc = CrcExtendLe64(image_crc, footer_live);
    if (footer_crc != image_crc) {
      return Status::Corruption("page-file image checksum mismatch");
    }
    if (live_pages != live_count) {
      return Status::Corruption("page-file live count does not match records");
    }
    if (in.peek() != std::char_traits<char>::eof()) {
      return Status::Corruption("page-file image size mismatch");
    }
  }

  // The image is fully validated; swap it in. The simulated-cache LRU and
  // the counters refer to the replaced pages, so both reset with the
  // contents (the configured cache capacity is kept).
  //
  // Commit-protocol interaction: the old buffers are moved into the
  // pending-retire batch, NOT destroyed — a concurrent snapshot keeps
  // reading the pre-load version until the caller's next Commit() retires
  // it. The new contents are deliberately left unpublished and unshared:
  // every index's Open() follows up with a Commit() carrying its real
  // metadata.
  for (auto& page : pages_) {
    if (page != nullptr) pending_retire_.push_back(std::move(page));
  }
  pages_ = std::move(pages);
  extents_ = std::move(extents);
  live_ = std::move(live);
  free_list_ = std::move(free_list);
  live_pages_ = live_pages;
  stored_bytes_ = stored_bytes;
  // Fresh stamps mark every page unshared, and every chunk of the new page
  // count is rebuilt by the next Commit(), which also retires the chunks
  // past it when the image is smaller.
  page_stamp_.resize(pages_.size());
  for (size_t i = 0; i < pages_.size(); ++i) page_stamp_[i] = next_stamp_++;
  chunk_dirty_.assign((pages_.size() + kChunkPages - 1) / kChunkPages, true);
  {
    MutexLock lock(stats_mu_);
    cache_lru_.clear();
    cache_index_.clear();
  }
  ResetStats();
  return Status::OK();
}

Status PageFile::Save(const std::string& path) const {
  return AtomicWriteFile(path,
                         [this](std::ostream& out) { return SaveTo(out); });
}

Status PageFile::Load(const std::string& path) {
  IndexImageFile image;
  RETURN_IF_ERROR(image.OpenRaw(path));
  return LoadFrom(image.stream());
}

char* PageFile::StagePatch(PageId id) {
  CHECK(IsLive(id));
  const char* current = pages_[id].get();
  const size_t extent = extents_[id];
  // At an unchanged extent StageWrite frees nothing: a copy-on-write keeps
  // `current` alive in pending_retire_ until the next Commit().
  char* page = StageWrite(id, extent);
  if (page != current && extent > 0) std::memcpy(page, current, extent);
  return page;
}

}  // namespace srtree
