// Fault injection for the durability path.
//
// Two layers of simulated failure, matching the two ways a crash-safe save
// can go wrong in the field:
//
//   * FaultInjector is a storage::SaveFailpoints implementation that makes
//     the NEXT AtomicWriteFile() misbehave — a short write into the temp
//     file, a failed fsync, or a failed rename. The save must surface a
//     clean IoError, remove its temp file, and leave the destination (and
//     the in-memory index being saved) untouched.
//
//   * The corruption helpers (FlipBit / SpliceImages / prefix truncation)
//     produce the byte patterns a crashed or lying disk leaves behind in an
//     already-written image: single-bit rot, an in-place overwrite torn at
//     a record boundary, a file cut short. Loading such an image must either
//     fail with Corruption/InvalidArgument or produce a fully valid index —
//     never a crash, never silently wrong query results.
//
// RunPersistenceFaultFuzz drives both layers against any saveable index
// type, cross-checking every successfully loaded index against a
// brute-force oracle and the structural auditor.

#ifndef SRTREE_DEBUG_FAULT_INJECTION_H_
#define SRTREE_DEBUG_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/index/index_factory.h"
#include "src/storage/image_io.h"

namespace srtree::debug {

// The durability faults the harness injects. The first three strike DURING
// a Save() via the SaveFailpoints seam; the last three corrupt the bytes of
// an already-written image.
enum class FaultKind {
  kShortWrite,    // temp file receives only a prefix, write reports failure
  kFailedFlush,   // fsync() of the temp file fails
  kFailedRename,  // rename() over the destination fails
  kTruncate,      // destination cut to a strict prefix
  kTornWrite,     // overwrite torn at a record boundary: new prefix, old tail
  kBitFlip,       // one bit flipped somewhere in the image
};

inline constexpr int kNumFaultKinds = 6;

const char* FaultKindName(FaultKind kind);

// SaveFailpoints implementation delivering exactly one fault per Arm().
class FaultInjector : public SaveFailpoints {
 public:
  // Arms the injector for the next AtomicWriteFile(). `kind` must be one
  // of the during-save kinds; `fraction` in [0, 1) picks how much of the
  // image a short write lands before failing.
  void Arm(FaultKind kind, double fraction);

  bool OnWrite(std::string* image) override;
  bool OnFlush() override;
  bool OnRename() override;

  uint64_t faults_delivered() const { return faults_delivered_; }

 private:
  FaultKind kind_ = FaultKind::kShortWrite;
  bool armed_ = false;
  double fraction_ = 0.5;
  uint64_t faults_delivered_ = 0;
};

// Returns `image` with bit `bit` (0-based, < 8 * image.size()) flipped.
std::string FlipBit(const std::string& image, size_t bit);

// Offsets in an index image (src/storage/image_io.h) at which a page-file
// record starts: the page-file header's end, each page record and the
// footer (v2 or v3 records, src/storage/page_file.cc). Parses as far as
// the bytes are well-formed and returns what it found; empty when `image`
// is not an index image.
std::vector<size_t> PageRecordOffsets(const std::string& image);

// The on-disk state of an in-place overwrite of `older` by `newer` torn
// after `boundary` bytes: newer's prefix, then whatever of older's tail
// survives past it.
std::string SpliceImages(const std::string& newer, const std::string& older,
                         size_t boundary);

struct PersistenceFaultFuzzOptions {
  uint64_t seed = 1;
  int dim = 4;
  size_t num_points = 150;
  // The "newer" index (torn-write donor) holds num_points + extra_points.
  size_t extra_points = 50;
  size_t num_faults = 600;
  // Differential queries per verification of a loaded index.
  int queries_per_check = 4;
  int max_k = 8;
  size_t page_size = 1024;
  size_t leaf_data_size = 0;
  // Directory for the image files; must exist and be writable.
  std::string scratch_dir = "/tmp";
};

// Round-trips an index of `type` through options.num_faults injected
// durability faults (cycling through every FaultKind), asserting after each
// one that:
//   * a fault during Save() yields a non-OK Status, leaves the previous
//     on-disk image byte-identical, leaves no temp file behind, and leaves
//     the in-memory index answering queries exactly as before;
//   * loading a corrupted image either fails with a clean Status or yields
//     an index that passes CheckInvariants() and answers k-NN queries
//     identically to a brute-force oracle over one of the two saved states.
// Returns OK when every fault upheld the invariants, otherwise Corruption
// naming the seed, round, and fault kind of the first violation.
Status RunPersistenceFaultFuzz(IndexType type,
                               const PersistenceFaultFuzzOptions& options);

}  // namespace srtree::debug

#endif  // SRTREE_DEBUG_FAULT_INJECTION_H_
