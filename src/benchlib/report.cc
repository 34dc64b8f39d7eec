#include "src/benchlib/report.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "src/common/check.h"
#include "src/common/cpus.h"
#include "src/geometry/kernel.h"
#include "src/storage/image_io.h"

namespace srtree {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonStringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(items[i]) + "\"";
  }
  return out + "]";
}

// The CPU brand string and L3 size straight from CPUID.
void ReadCpuId(std::string* model, int64_t* l3_bytes) {
  *model = "unknown";
  *l3_bytes = 0;
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &a, &b, &c, &d);
      const unsigned words[4] = {a, b, c, d};
      std::memcpy(brand + leaf * 16, words, 16);
    }
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    s.erase(s.find_last_not_of(' ') + 1);
    if (!s.empty()) *model = s;
  }
  if (__get_cpuid_max(0, nullptr) >= 4) {
    // Deterministic cache parameters (leaf 4): keep the level-3 entry.
    for (unsigned sub = 0; sub < 16; ++sub) {
      __cpuid_count(4, sub, a, b, c, d);
      if ((a & 0x1f) == 0) break;
      if (((a >> 5) & 0x7) != 3) continue;
      *l3_bytes = (int64_t{(b >> 22) & 0x3ff} + 1) *
                  (int64_t{(b >> 12) & 0x3ff} + 1) *
                  (int64_t{b & 0xfff} + 1) * (int64_t{c} + 1);
    }
  }
#endif
}

}  // namespace

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::AddRow(std::vector<std::string> cells) {
  CHECK_EQ(cells.size(), columns_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::ToString() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto format_row = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (size_t c = 0; c < cells.size(); ++c) {
      line += " " + cells[c] + std::string(widths[c] - cells[c].size(), ' ') +
              " |";
    }
    return line + "\n";
  };

  std::string separator = "+";
  for (const size_t w : widths) separator += std::string(w + 2, '-') + "+";
  separator += "\n";

  std::string out = "\n== " + title_ + " ==\n";
  out += separator;
  out += format_row(columns_);
  out += separator;
  for (const auto& row : rows_) out += format_row(row);
  out += separator;
  return out;
}

std::string Table::ToCsv() const {
  auto join = [](const std::vector<std::string>& cells) {
    std::string line;
    for (size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) line += ",";
      line += cells[c];
    }
    return line + "\n";
  };
  std::string out = "csv: " + join(columns_);
  for (const auto& row : rows_) out += "csv: " + join(row);
  return out;
}

std::string Table::ToJson() const {
  std::string out = "{\n";
  out += "  \"title\": \"" + JsonEscape(title_) + "\",\n";
  out += "  \"columns\": " + JsonStringArray(columns_) + ",\n";
  out += "  \"rows\": [";
  for (size_t r = 0; r < rows_.size(); ++r) {
    out += (r > 0 ? ",\n           " : "\n           ");
    out += JsonStringArray(rows_[r]);
  }
  out += rows_.empty() ? "]\n" : "\n  ]\n";
  return out + "}";
}

Status WriteJsonReport(const std::string& path,
                       const std::vector<Table>& tables,
                       const std::string& stamp_json) {
  return AtomicWriteFile(path, [&](std::ostream& os) {
    os << "{\n";
    if (!stamp_json.empty()) os << "\"stamp\": " << stamp_json << ",\n";
    os << "\"tables\": [\n";
    for (size_t t = 0; t < tables.size(); ++t) {
      if (t > 0) os << ",\n";
      os << tables[t].ToJson();
    }
    os << "\n]\n}\n";
    return Status::OK();
  });
}

void Table::Print() const {
  std::fputs(ToString().c_str(), stdout);
  std::fputs(ToCsv().c_str(), stdout);
  std::fflush(stdout);
}

std::string FormatNum(double value) {
  char buf[64];
  const double mag = std::fabs(value);
  if (value == 0.0) {
    return "0";
  } else if (mag >= 1e6 || mag < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.3e", value);
  } else if (mag >= 100.0) {
    std::snprintf(buf, sizeof(buf), "%.1f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4f", value);
  }
  return buf;
}

std::string MachineStampJson(const std::string& compiler,
                             const std::string& build_type) {
  std::string model;
  int64_t l3_bytes = 0;
  ReadCpuId(&model, &l3_bytes);
  const auto quoted = [](const std::string& s) {
    return "\"" + JsonEscape(s) + "\"";
  };
  return "{\"nproc\": " + std::to_string(AvailableCpus()) +
         ", \"cpu_model\": " + quoted(model) +
         ", \"l3_bytes\": " + std::to_string(l3_bytes) +
         ", \"kernel\": " + quoted(GetDistanceKernel().name()) +
         ", \"compiler\": " + quoted(compiler) +
         ", \"build_type\": " + quoted(build_type) + "}";
}

}  // namespace srtree
