// Machine-readable bench output: every bench/ binary accepts
// `--json <path>` (or `--json=<path>`) and mirrors its key numbers
// into a small JSON document, so the perf trajectory can be tracked
// as BENCH_*.json files at the repo root (bench/run_benchmarks.sh).
//
// Header-only (its one include from the tree, core/json.h, is
// header-only too) so the google-benchmark binaries (micro_runtime,
// ablation_tub_tkt) can use the flag parser without linking the
// figure-bench harness.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/json.h"

namespace tflux::bench {

/// Strip a trailing-value `--json <path>` / `--json=<path>` flag from
/// argv (so downstream arg parsing never sees it). Returns the path,
/// or "" when the flag is absent.
inline std::string parse_json_flag(int& argc, char** argv) {
  std::string path;
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    const std::string arg = argv[r];
    if (arg == "--json" && r + 1 < argc) {
      path = argv[++r];
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
  return path;
}

/// Tiny append-only JSON document builder: one named bench, a flat
/// list of result rows, each a set of scalar fields.
class JsonWriter {
 public:
  explicit JsonWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void begin_row() { rows_.emplace_back(); }

  void field(const std::string& key, const std::string& value) {
    row().emplace_back(key, "\"" + core::json_escape(value) + "\"");
  }
  void field(const std::string& key, const char* value) {
    field(key, std::string(value));
  }
  void field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    row().emplace_back(key, buf);
  }
  void field(const std::string& key, std::uint64_t value) {
    row().emplace_back(key, std::to_string(value));
  }
  void field(const std::string& key, std::uint32_t value) {
    row().emplace_back(key, std::to_string(value));
  }
  void field(const std::string& key, int value) {
    row().emplace_back(key, std::to_string(value));
  }
  void field(const std::string& key, bool value) {
    row().emplace_back(key, value ? "true" : "false");
  }

  /// Serialize. Returns false (after a perror-style message) when the
  /// file cannot be written; a no-op returning true when `path` is "".
  bool write_file(const std::string& path) const {
    if (path.empty()) return true;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write JSON to '%s'\n",
                   path.c_str());
      return false;
    }
    out << "{\n  \"bench\": \"" << core::json_escape(bench_name_)
        << "\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << "    {";
      for (std::size_t f = 0; f < rows_[i].size(); ++f) {
        out << "\"" << core::json_escape(rows_[i][f].first)
            << "\": " << rows_[i][f].second;
        if (f + 1 < rows_[i].size()) out << ", ";
      }
      out << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
  }

 private:
  using Row = std::vector<std::pair<std::string, std::string>>;

  Row& row() {
    if (rows_.empty()) rows_.emplace_back();
    return rows_.back();
  }

  std::string bench_name_;
  std::vector<Row> rows_;
};

}  // namespace tflux::bench
