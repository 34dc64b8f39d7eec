// ASCII table / series output for the bench binaries. Every experiment
// prints the same rows or series its paper table/figure shows, plus a CSV
// block that is trivial to plot, and can snapshot the same tables as a
// machine-readable JSON report (--json) for regression tracking.

#ifndef SRTREE_BENCHLIB_REPORT_H_
#define SRTREE_BENCHLIB_REPORT_H_

#include <string>
#include <vector>

#include "src/common/status.h"

namespace srtree {

class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);

  // Aligned, boxed ASCII rendering.
  std::string ToString() const;
  // Comma-separated rendering (header + rows), for plotting.
  std::string ToCsv() const;
  // One JSON object: {"title": ..., "columns": [...], "rows": [[...]]}.
  // Cells stay strings — exactly what the ASCII/CSV renderings show, so
  // the three outputs can never disagree.
  std::string ToJson() const;

  // Prints both text renderings to stdout.
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

// Writes {"stamp": <stamp_json>, "tables": [<table json>, ...]} to `path`
// through storage::AtomicWriteFile, so a crashed bench run can never leave
// a truncated report behind. `stamp_json` is one JSON object naming the
// machine and build the numbers come from; empty omits it.
Status WriteJsonReport(const std::string& path,
                       const std::vector<Table>& tables,
                       const std::string& stamp_json = "");

// The machine and build a report's numbers come from, as one JSON object
// with perfbench's stamp fields: the CPUs available to the process, the CPU
// model and L3 bytes (CPUID), the selected DistanceKernel, `compiler` and
// `build_type`. Timings compare only between equal stamps
// (tools/bench_diff.py --fail-above refuses others).
std::string MachineStampJson(const std::string& compiler,
                             const std::string& build_type);

// Compact numeric formatting: fixed for "normal" magnitudes, scientific for
// the tiny high-dimensional volumes of Figures 5/6/12/13.
std::string FormatNum(double value);

}  // namespace srtree

#endif  // SRTREE_BENCHLIB_REPORT_H_
