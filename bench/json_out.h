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

#include <cstdio>
#include <string>
#include <string_view>

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

/// One named bench and a flat list of result rows, each a set of
/// scalar fields: {"bench": name, "rows": [{...}, ...]}, streamed
/// through core::JsonWriter.
class JsonWriter {
 public:
  explicit JsonWriter(const std::string& bench_name) {
    json_.begin_object().field("bench", bench_name).begin_array("rows");
  }

  void begin_row() {
    if (in_row_) json_.end_object();
    json_.begin_object();
    in_row_ = true;
  }

  template <typename T>
  void field(std::string_view key, const T& value) {
    if (!in_row_) begin_row();
    json_.field(key, value);
  }

  /// Serialize. Returns false (after a perror-style message) when the
  /// file cannot be written; a no-op returning true when `path` is "".
  bool write_file(const std::string& path) const {
    if (path.empty()) return true;
    core::JsonWriter doc = json_;
    if (in_row_) doc.end_object();
    doc.end_array().end_object();
    try {
      core::write_file(path, doc.str());
    } catch (const core::TFluxError&) {
      std::fprintf(stderr, "bench: cannot write JSON to '%s'\n",
                   path.c_str());
      return false;
    }
    return true;
  }

 private:
  core::JsonWriter json_;
  bool in_row_ = false;
};

}  // namespace tflux::bench
