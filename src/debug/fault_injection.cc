#include "src/debug/fault_injection.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/index/point_index.h"

namespace srtree::debug {
namespace {

// Same tolerance rationale as the mutation fuzzer: index and oracle compute
// distances with the same arithmetic, so this only absorbs benign
// summation-order differences.
constexpr double kDistEps = 1e-9;

using QueryList = std::vector<std::pair<Point, int>>;

std::vector<std::vector<Neighbor>> Answers(const PointIndex& index,
                                           const QueryList& queries) {
  std::vector<std::vector<Neighbor>> out;
  out.reserve(queries.size());
  for (const auto& [point, k] : queries) {
    out.push_back(index.Search(point, QuerySpec::Knn(k)).neighbors);
  }
  return out;
}

bool SameAnswers(const std::vector<std::vector<Neighbor>>& a,
                 const std::vector<std::vector<Neighbor>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].oid != b[q][i].oid ||
          std::abs(a[q][i].distance - b[q][i].distance) > kDistEps) {
        return false;
      }
    }
  }
  return true;
}

StatusOr<std::unique_ptr<PointIndex>> BuildIndex(
    IndexType type, const IndexConfig& config, const std::vector<Point>& pts,
    const std::vector<uint32_t>& oids) {
  std::unique_ptr<PointIndex> index = MakeIndex(type, config);
  RETURN_IF_ERROR(index->BulkLoad(pts, oids));
  return StatusOr<std::unique_ptr<PointIndex>>(std::move(index));
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kShortWrite:
      return "short-write";
    case FaultKind::kFailedFlush:
      return "failed-flush";
    case FaultKind::kFailedRename:
      return "failed-rename";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kTornWrite:
      return "torn-write";
    case FaultKind::kBitFlip:
      return "bit-flip";
  }
  return "unknown";
}

void FaultInjector::Arm(FaultKind kind, double fraction) {
  CHECK(kind == FaultKind::kShortWrite || kind == FaultKind::kFailedFlush ||
        kind == FaultKind::kFailedRename);
  kind_ = kind;
  fraction_ = fraction;
  armed_ = true;
}

bool FaultInjector::OnWrite(std::string* image) {
  if (!armed_ || kind_ != FaultKind::kShortWrite) return true;
  armed_ = false;
  ++faults_delivered_;
  image->resize(static_cast<size_t>(fraction_ * image->size()));
  return false;
}

bool FaultInjector::OnFlush() {
  if (!armed_ || kind_ != FaultKind::kFailedFlush) return true;
  armed_ = false;
  ++faults_delivered_;
  return false;
}

bool FaultInjector::OnRename() {
  if (!armed_ || kind_ != FaultKind::kFailedRename) return true;
  armed_ = false;
  ++faults_delivered_;
  return false;
}

std::string FlipBit(const std::string& image, size_t bit) {
  CHECK_LT(bit, image.size() * 8);
  std::string out = image;
  out[bit / 8] = static_cast<char>(out[bit / 8] ^ (1 << (bit % 8)));
  return out;
}

namespace {

uint64_t LoadLe(const std::string& bytes, size_t at, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

std::vector<size_t> PageRecordOffsets(const std::string& image) {
  // Container framing: magic, version, 8-byte tag, header size, header
  // CRC, header. Page-file header: magic, version, page size, page count,
  // live count, header CRC.
  constexpr size_t kContainerFraming = 24;
  constexpr size_t kPageFileHeader = 36;
  std::vector<size_t> offsets;
  if (image.size() < kContainerFraming) return offsets;
  const size_t start = kContainerFraming + LoadLe(image, 16, 4);
  if (start > image.size() || image.size() - start < kPageFileHeader) {
    return offsets;
  }
  const uint64_t version = LoadLe(image, start + 4, 4);
  const uint64_t page_size = LoadLe(image, start + 8, 8);
  const uint64_t page_count = LoadLe(image, start + 16, 8);
  size_t at = start + kPageFileHeader;
  for (uint64_t i = 0; i <= page_count && at <= image.size(); ++i) {
    offsets.push_back(at);  // record i, or the footer once i == page_count
    if (i == page_count || at == image.size()) break;
    if (image[at++] == 0) continue;
    uint64_t extent = page_size;
    if (version >= 3) {
      if (image.size() - at < 4) break;
      extent = LoadLe(image, at, 4);
      at += 4;
    }
    if (extent > image.size() - at || image.size() - at - extent < 4) break;
    at += extent + 4;
  }
  return offsets;
}

std::string SpliceImages(const std::string& newer, const std::string& older,
                         size_t boundary) {
  const size_t cut = std::min(boundary, newer.size());
  std::string out = newer.substr(0, cut);
  if (older.size() > cut) out += older.substr(cut);
  return out;
}

Status RunPersistenceFaultFuzz(IndexType type,
                               const PersistenceFaultFuzzOptions& options) {
  IndexConfig config;
  config.dim = options.dim;
  config.page_size = options.page_size;
  config.leaf_data_size = options.leaf_data_size;

  Xoshiro256 rng(options.seed);
  const auto random_point = [&]() {
    Point p(static_cast<size_t>(options.dim));
    for (double& c : p) c = rng.NextDouble();
    return p;
  };
  const auto make_queries = [&]() {
    QueryList queries;
    queries.reserve(static_cast<size_t>(options.queries_per_check));
    for (int q = 0; q < options.queries_per_check; ++q) {
      queries.emplace_back(
          random_point(),
          1 + static_cast<int>(rng.NextBounded(
                  static_cast<uint64_t>(options.max_k))));
    }
    return queries;
  };

  // Two saved states: the planted "old" image A and the "new" image B a
  // torn overwrite mixes in. B is a superset of A so the pair models a
  // save, more inserts, and a crashed re-save.
  std::vector<Point> points_a;
  std::vector<uint32_t> oids_a;
  for (size_t i = 0; i < options.num_points; ++i) {
    points_a.push_back(random_point());
    oids_a.push_back(static_cast<uint32_t>(i));
  }
  std::vector<Point> points_b = points_a;
  std::vector<uint32_t> oids_b = oids_a;
  for (size_t i = 0; i < options.extra_points; ++i) {
    points_b.push_back(random_point());
    oids_b.push_back(static_cast<uint32_t>(options.num_points + i));
  }

  StatusOr<std::unique_ptr<PointIndex>> index_a =
      BuildIndex(type, config, points_a, oids_a);
  RETURN_IF_ERROR(index_a.status());
  StatusOr<std::unique_ptr<PointIndex>> index_b =
      BuildIndex(type, config, points_b, oids_b);
  RETURN_IF_ERROR(index_b.status());
  StatusOr<std::unique_ptr<PointIndex>> oracle_a =
      BuildIndex(IndexType::kScan, config, points_a, oids_a);
  RETURN_IF_ERROR(oracle_a.status());
  StatusOr<std::unique_ptr<PointIndex>> oracle_b =
      BuildIndex(IndexType::kScan, config, points_b, oids_b);
  RETURN_IF_ERROR(oracle_b.status());

  const std::string stem =
      options.scratch_dir + "/fault_fuzz_" +
      std::to_string(static_cast<int>(type)) + "_" +
      std::to_string(options.seed);
  const std::string path_a = stem + "_a.img";
  const std::string path_b = stem + "_b.img";
  const std::string target = stem + "_target.img";

  RETURN_IF_ERROR((*index_a)->Save(path_a));
  RETURN_IF_ERROR((*index_b)->Save(path_b));
  std::string image_a, image_b;
  RETURN_IF_ERROR(ReadFileToString(path_a, &image_a));
  RETURN_IF_ERROR(ReadFileToString(path_b, &image_b));
  RETURN_IF_ERROR(WriteStringToFileForTest(image_a, target));

  // "" on success, else a description of how the loaded index is wrong.
  const auto verify_loaded = [&](PointIndex& loaded) -> std::string {
    const Status audit = loaded.CheckInvariants();
    if (!audit.ok()) {
      return "loaded index fails the auditor: " + audit.ToString();
    }
    const QueryList queries = make_queries();
    const auto got = Answers(loaded, queries);
    if (SameAnswers(got, Answers(**oracle_a, queries))) return "";
    if (SameAnswers(got, Answers(**oracle_b, queries))) return "";
    return "loaded index answers k-NN like neither saved state";
  };

  FaultInjector injector;
  for (size_t round = 0; round < options.num_faults; ++round) {
    const FaultKind kind = static_cast<FaultKind>(round % kNumFaultKinds);
    const auto fail = [&](const std::string& message) {
      return Status::Corruption(
          "persistence fault fuzz: seed=" + std::to_string(options.seed) +
          " type=" + IndexTypeName(type) + " round=" + std::to_string(round) +
          " fault=" + FaultKindName(kind) + ": " + message);
    };

    if (kind == FaultKind::kShortWrite || kind == FaultKind::kFailedFlush ||
        kind == FaultKind::kFailedRename) {
      // Fault DURING a save of the newer state over the planted old image.
      injector.Arm(kind, rng.NextDouble());
      SetSaveFailpointsForTest(&injector);
      const Status save_status = (*index_b)->Save(target);
      SetSaveFailpointsForTest(nullptr);
      if (save_status.ok()) {
        return fail("Save() reported success under an injected fault");
      }
      std::string bytes;
      RETURN_IF_ERROR(ReadFileToString(target, &bytes));
      if (bytes != image_a) {
        return fail("failed Save() disturbed the previous on-disk image");
      }
      std::string tmp_bytes;
      if (ReadFileToString(target + ".tmp", &tmp_bytes).ok()) {
        return fail("failed Save() left its temp file behind");
      }
    } else {
      // Corrupt the image bytes the way a crashed or lying disk would.
      std::string corrupted;
      if (kind == FaultKind::kTruncate) {
        corrupted = image_a.substr(0, rng.NextBounded(image_a.size()));
      } else if (kind == FaultKind::kBitFlip) {
        corrupted = FlipBit(image_a, rng.NextBounded(image_a.size() * 8));
      } else {
        // A torn overwrite that stops where one of the two images starts a
        // record. Where both do, every per-record CRC of the result holds
        // and only the image CRC can tell; elsewhere the older tail resumes
        // mid-record and its stray bytes are read as framing and extents.
        std::vector<size_t> cuts = PageRecordOffsets(image_a);
        const std::vector<size_t> cuts_b = PageRecordOffsets(image_b);
        cuts.insert(cuts.end(), cuts_b.begin(), cuts_b.end());
        cuts.push_back(0);
        corrupted = SpliceImages(image_b, image_a,
                                 cuts[rng.NextBounded(cuts.size())]);
      }
      RETURN_IF_ERROR(WriteStringToFileForTest(corrupted, target));
      StatusOr<std::unique_ptr<PointIndex>> loaded = OpenIndex(target);
      if (loaded.ok()) {
        const std::string error = verify_loaded(**loaded);
        if (!error.empty()) return fail(error);
      } else if (!loaded.status().IsCorruption() &&
                 !loaded.status().IsInvalidArgument()) {
        return fail("load failed with an unexpected status: " +
                    loaded.status().ToString());
      }
      RETURN_IF_ERROR(WriteStringToFileForTest(image_a, target));
    }

    // Periodically confirm the fault loop has disturbed neither the
    // pristine image nor the in-memory index the failed saves came from.
    if (round % 64 == 0) {
      StatusOr<std::unique_ptr<PointIndex>> reopened = OpenIndex(target);
      if (!reopened.ok()) {
        return fail("pristine image no longer loads: " +
                    reopened.status().ToString());
      }
      const std::string error = verify_loaded(**reopened);
      if (!error.empty()) return fail(error);
      const QueryList queries = make_queries();
      if (!SameAnswers(Answers(**index_b, queries),
                       Answers(**oracle_b, queries))) {
        return fail("in-memory index disturbed by failed saves");
      }
    }
  }

  // Close the loop: with no fault armed, the newer state saves and reopens
  // cleanly over the battered target path.
  RETURN_IF_ERROR((*index_b)->Save(target));
  StatusOr<std::unique_ptr<PointIndex>> final_index = OpenIndex(target);
  RETURN_IF_ERROR(final_index.status());
  RETURN_IF_ERROR((*final_index)->CheckInvariants());
  const QueryList queries = make_queries();
  if (!SameAnswers(Answers(**final_index, queries),
                   Answers(**oracle_b, queries))) {
    return Status::Corruption(
        "persistence fault fuzz: final clean round-trip diverged from the "
        "oracle (seed=" + std::to_string(options.seed) + ")");
  }
  return Status::OK();
}

}  // namespace srtree::debug
