// Shared helpers for the experiment harness binaries: aligned table output,
// common measurement plumbing, and structured result reporting. Each bench
// binary reproduces one experiment from DESIGN.md §3, prints its table to
// stdout, and (with --json=<path>) also emits a machine-readable
// BENCH_<name>.json so runs can be diffed and regression-checked.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <fstream>
#include <type_traits>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/cpu/machine.h"
#include "src/sim/config.h"
#include "src/sim/json.h"
#include "src/sim/types.h"

namespace casc {

// Fixed-width text table: Row("a", 1, 2.5) style, auto-formatted.
class Table {
 public:
  explicit Table(std::initializer_list<std::string> headers) {
    std::vector<std::string> row;
    for (const auto& h : headers) {
      row.push_back(h);
    }
    rows_.push_back(row);
  }

  template <typename... Args>
  void Row(Args... args) {
    std::vector<std::string> row;
    (row.push_back(Format(args)), ...);
    rows_.push_back(row);
  }

  void Print() const {
    std::vector<size_t> widths;
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size(); c++) {
        if (widths.size() <= c) {
          widths.push_back(0);
        }
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    for (size_t r = 0; r < rows_.size(); r++) {
      std::string line;
      for (size_t c = 0; c < rows_[r].size(); c++) {
        std::string cell = rows_[r][c];
        cell.resize(widths[c], ' ');
        line += cell;
        if (c + 1 < rows_[r].size()) {
          line += "  ";
        }
      }
      std::printf("%s\n", line.c_str());
      if (r == 0) {
        std::string rule;
        for (size_t c = 0; c < widths.size(); c++) {
          rule += std::string(widths[c], '-');
          if (c + 1 < widths.size()) {
            rule += "  ";
          }
        }
        std::printf("%s\n", rule.c_str());
      }
    }
  }

 private:
  static std::string Format(const char* s) { return s; }
  static std::string Format(const std::string& s) { return s; }
  static std::string Format(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  static std::string Format(T v) {
    return std::to_string(v);
  }

  std::vector<std::vector<std::string>> rows_;
};

inline void Banner(const char* id, const char* title, const char* claim) {
  std::printf("\n=== %s: %s ===\n", id, title);
  std::printf("paper claim: %s\n\n", claim);
}

inline double ToNs(Tick cycles, double ghz = 3.0) { return static_cast<double>(cycles) / ghz; }

// Structured result sink shared by every bench binary. Flags:
//   --json=<path>     write the collected results as JSON on Finish()
//   --smoke           run a reduced-iteration configuration (see Iters) so the
//                     bench-smoke ctest tier finishes in seconds
//
// Schema (validated by tools/casc_bench_check):
//   {"bench": "<name>", "smoke": <bool>,
//    "results": [{"experiment": "...", "config": "...",
//                 "metric": "...", "value": <number>}, ...]}
class BenchReport {
 public:
  BenchReport(std::string bench, int argc, const char* const* argv) : bench_(std::move(bench)) {
    Config cfg;
    std::string err;
    if (!cfg.ParseArgs(argc, argv, &err)) {
      std::fprintf(stderr, "%s: %s\n", bench_.c_str(), err.c_str());
      parse_ok_ = false;
      return;
    }
    smoke_ = cfg.GetBool("smoke", false);
    json_path_ = cfg.GetString("json");
    parse_ok_ = !cfg.ReportParseErrors();
  }

  bool parse_ok() const { return parse_ok_; }
  bool smoke() const { return smoke_; }

  // Pick an iteration count / problem size: `full` normally, `reduced` under
  // --smoke. Keeps the scaling decision next to the constant it replaces.
  uint64_t Iters(uint64_t full, uint64_t reduced) const { return smoke_ ? reduced : full; }

  void Add(const std::string& experiment, const std::string& config, const std::string& metric,
           double value) {
    results_.push_back({experiment, config, metric, value});
  }

  // Writes the JSON file if --json was given. Returns false (after printing
  // an error) if the file could not be written. Call once, at the end of
  // main: `return report.Finish() ? 0 : 1;` composes with existing checks.
  bool Finish() const {
    if (json_path_.empty()) {
      return parse_ok_;
    }
    std::ofstream out(json_path_);
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", bench_.c_str(), json_path_.c_str());
      return false;
    }
    JsonWriter w(out);
    w.BeginObject();
    w.KeyValue("bench", bench_);
    w.KeyValue("smoke", smoke_);
    w.Key("results");
    w.BeginArray();
    for (const auto& r : results_) {
      w.BeginObject();
      w.KeyValue("experiment", r.experiment);
      w.KeyValue("config", r.config);
      w.KeyValue("metric", r.metric);
      w.KeyValue("value", r.value);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    out << "\n";
    std::printf("results written to %s (%zu entries)\n", json_path_.c_str(), results_.size());
    return parse_ok_ && out.good();
  }

 private:
  struct Result {
    std::string experiment;
    std::string config;
    std::string metric;
    double value;
  };

  std::string bench_;
  bool parse_ok_ = true;
  bool smoke_ = false;
  std::string json_path_;
  std::vector<Result> results_;
};

}  // namespace casc

#endif  // BENCH_BENCH_UTIL_H_
