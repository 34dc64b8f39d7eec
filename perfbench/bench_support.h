// Measurement plumbing shared by the benchmark's workloads and probes:
// a monotonic clock, sample sets with quantiles, the span log of the traced
// run, the metric set printed as the result line, and the machine/build
// stamp every result carries.

#ifndef PERFBENCH_BENCH_SUPPORT_H_
#define PERFBENCH_BENCH_SUPPORT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock.
int64_t NowNs();

// Spins until `deadline_ns` (steady clock). A paced loop that slept instead
// would start each operation late by the scheduler's wake-up slack, which
// in a virtual machine is tens to hundreds of microseconds and varies from
// run to run.
void SpinUntilNs(int64_t deadline_ns);

// A set of measured values. Quantiles interpolate linearly between order
// statistics; an empty set reports 0.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }  // as added
  double Sum() const;
  double Quantile(double q) const;  // q in [0, 1]
  double Median() const { return Quantile(0.5); }
  // The median, over `segments` equal runs of consecutive samples, of each
  // run's q-quantile: a burst of interference that spoils one run of
  // samples does not move it.
  double SegmentedQuantile(double q, size_t segments) const;

 private:
  std::vector<double> values_;
};

// Spans recorded by the benchmark's own code around each public library
// call it makes, kept in memory and written out when the run ends. The
// calls are not nested, so a span has no parent. A SpanLog is owned by one
// thread; threads that record spans each get their own log and the logs
// are written one after another.
struct Span {
  const char* name;  // static string: "RunBatch", "Insert", ...
  int64_t start_ns;
  int64_t end_ns;
  uint64_t request;  // batch or operation sequence number
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t request) {
    if (enabled_) spans_.push_back(Span{name, start_ns, end_ns, request});
  }
  // Appends the spans as JSON lines tagged with `thread`.
  void WriteTo(std::FILE* out, const char* thread) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Metrics of one run, by name, each with its unit.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  // `{"name": {"value": v, "unit": "u"}, ...}`, full precision.
  std::string ToJson() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
};

// What a result is comparable across: results from different stamps must
// not be compared.
struct MachineStamp {
  int nproc = 0;
  std::string cpu_model;
  int64_t l3_bytes = 0;
  std::string kernel;  // GetDistanceKernel().name()
  std::string compiler;
  std::string build_type;
  std::string force_scalar_kernel;  // SRTREE_FORCE_SCALAR_KERNEL, "" if unset
  std::string ToJson() const;
};

MachineStamp GetMachineStamp();

// Peak resident set size of this process so far, in MB.
double PeakRssMb();

// Usable CPUs (the process's affinity mask).
int UsableCpus();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_SUPPORT_H_
