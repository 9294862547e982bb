// Plain-text table printer used by the bench harnesses so every reproduced
// figure/table prints in a uniform, diffable format.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

namespace svagc {

// Appends `s` as a JSON string literal: quotes, backslashes and control
// characters escaped. The bench tables and the trace export both use it.
inline void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  // One self-describing JSON line per table, machine-checkable by the
  // bench gate (bench/check_regression.py) and by plotting scripts:
  //   {"id": "...", "headers": [...], "rows": [[...], ...]}
  void PrintJson(const std::string& id, std::FILE* out = stdout) const {
    std::string line = "{\"id\": ";
    AppendJsonString(line, id);
    line += ", \"headers\": ";
    AppendJsonArray(line, headers_);
    line += ", \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i != 0) line += ", ";
      AppendJsonArray(line, rows_[i]);
    }
    line += "]}";
    std::fprintf(out, "%s\n", line.c_str());
  }

  void Print(std::FILE* out = stdout) const {
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      widths[i] = headers_[i].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    PrintRow(out, headers_, widths);
    std::string rule;
    for (std::size_t i = 0; i < widths.size(); ++i) {
      rule += std::string(widths[i] + 2, '-');
      if (i + 1 < widths.size()) rule += '+';
    }
    std::fprintf(out, "%s\n", rule.c_str());
    for (const auto& row : rows_) PrintRow(out, row, widths);
  }

 private:
  static void AppendJsonArray(std::string& out,
                              const std::vector<std::string>& cells) {
    out += '[';
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i != 0) out += ", ";
      AppendJsonString(out, cells[i]);
    }
    out += ']';
  }

  static void PrintRow(std::FILE* out, const std::vector<std::string>& cells,
                       const std::vector<std::size_t>& widths) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : kEmpty;
      std::fprintf(out, " %-*s ", static_cast<int>(widths[i]), cell.c_str());
      if (i + 1 < widths.size()) std::fprintf(out, "|");
    }
    std::fprintf(out, "\n");
  }

  inline static const std::string kEmpty;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// printf-style std::string formatting for table cells.
inline std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[256];
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

}  // namespace svagc
