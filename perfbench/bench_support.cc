#include "perfbench/bench_support.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "src/geometry/kernel.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpinUntilNs(int64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
  }
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Samples::SegmentedQuantile(double q, size_t segments) const {
  segments = std::max<size_t>(1, std::min(segments, values_.size()));
  Samples per_segment;
  for (size_t s = 0; s < segments; ++s) {
    Samples segment;
    segment.values_.assign(
        values_.begin() + static_cast<ptrdiff_t>(s * values_.size() / segments),
        values_.begin() +
            static_cast<ptrdiff_t>((s + 1) * values_.size() / segments));
    per_segment.Add(segment.Quantile(q));
  }
  return per_segment.Median();
}

void SpanLog::WriteTo(std::FILE* out, const char* thread) const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"thread\":\"%s\",\"id\":%zu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"request\":%llu}\n",
                 thread, i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.request));
  }
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricSet::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

std::string MachineStamp::ToJson() const {
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"cpu_model\": " + JsonString(cpu_model) +
         ", \"l3_bytes\": " + std::to_string(l3_bytes) +
         ", \"kernel\": " + JsonString(kernel) +
         ", \"compiler\": " + JsonString(compiler) +
         ", \"build_type\": " + JsonString(build_type) +
         ", \"force_scalar_kernel\": " + JsonString(force_scalar_kernel) + "}";
}

namespace {

// CPU brand string and L3 size straight from CPUID, so the stamp needs no
// file outside the benchmark's checkout.
void ReadCpuId(std::string* model, int64_t* l3_bytes) {
  *model = "unknown";
  *l3_bytes = 0;
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &a, &b, &c, &d);
      std::memcpy(brand + leaf * 16 + 0, &a, 4);
      std::memcpy(brand + leaf * 16 + 4, &b, 4);
      std::memcpy(brand + leaf * 16 + 8, &c, 4);
      std::memcpy(brand + leaf * 16 + 12, &d, 4);
    }
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    s.erase(s.find_last_not_of(' ') + 1);
    if (!s.empty()) *model = s;
  }
  if (__get_cpuid_max(0, nullptr) >= 4) {
    // Deterministic cache parameters (leaf 4): walk the sub-leaves until
    // the null cache type and keep the level-3 entry.
    for (unsigned sub = 0; sub < 16; ++sub) {
      __cpuid_count(4, sub, a, b, c, d);
      const unsigned type = a & 0x1f;
      if (type == 0) break;
      const unsigned level = (a >> 5) & 0x7;
      if (level != 3) continue;
      const int64_t ways = ((b >> 22) & 0x3ff) + 1;
      const int64_t partitions = ((b >> 12) & 0x3ff) + 1;
      const int64_t line = (b & 0xfff) + 1;
      const int64_t sets = static_cast<int64_t>(c) + 1;
      *l3_bytes = ways * partitions * line * sets;
    }
  }
#endif
}

}  // namespace

MachineStamp GetMachineStamp() {
  MachineStamp stamp;
  stamp.nproc = UsableCpus();
  ReadCpuId(&stamp.cpu_model, &stamp.l3_bytes);
  stamp.kernel = srtree::GetDistanceKernel().name();
  stamp.compiler = PERFBENCH_COMPILER;
  stamp.build_type = PERFBENCH_BUILD_TYPE;
  const char* force = std::getenv("SRTREE_FORCE_SCALAR_KERNEL");
  stamp.force_scalar_kernel = force == nullptr ? "" : force;
  return stamp;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

}  // namespace perfbench
