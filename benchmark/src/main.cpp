// tflux_bench: runs one benchmark workload and prints its metrics.
//
//   tflux_bench --workload <soft-suite|soft-fine|serve-mix|sim-figs>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--commit <revision>] [--trace-out <file.json>]
//
// The last line of standard output is one JSON object with exactly the
// keys correct / attempted / failed / metrics: the end-to-end metrics
// for --trace 0, the per-layer metrics for --trace 1. A line before it
// holds the host and build fingerprint. Exits 1 when any output check
// failed, 2 on bad arguments, 3 for a sanitizer build (whose timings
// would mislead).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "fingerprint.h"
#include "report.h"
#include "stats.h"
#include "workload.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: tflux_bench --workload <soft-suite|soft-fine|serve-mix|"
               "sim-figs> --seed <n> --seconds <s> --trace <0|1> "
               "[--commit <rev>] [--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tflux::bench;
  std::string workload;
  std::string commit;
  RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && config.seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (key == "--commit") {
      commit = value;
    } else if (key == "--trace-out") {
      config.trace_path = value;
    } else {
      return usage();
    }
  }
  const auto& names = workload_names();
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      std::find(names.begin(), names.end(), workload) == names.end()) {
    return usage();
  }

  const Fingerprint fp = host_fingerprint(commit);
  std::printf("fingerprint: %s\n", to_json(fp).c_str());
  if (!fp.sanitizer.empty()) {
    std::fprintf(stderr,
                 "tflux_bench: refusing to report timings from a sanitizer "
                 "build (%s)\n",
                 fp.sanitizer.c_str());
    return 3;
  }

  WorkloadResult result;
  const CpuTimes cpu_before = read_cpu_times();
  try {
    result = run_workload(workload, config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tflux_bench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  // A virtual machine's host that takes CPU time away slows the
  // multi-threaded workloads most; say how much it took.
  std::printf("host steal: %.1f%% of CPU time during the run\n",
              steal_pct(cpu_before, read_cpu_times()));
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "tflux_bench: check failed: %s\n", f.c_str());
  }
  const std::size_t samples =
      static_cast<std::size_t>(result.metrics["samples"]);
  const double tail = reportable_tail(samples);
  std::printf("samples: %zu timed units; highest percentile with ten beyond "
              "it: %s\n",
              samples, tail == 0.0 ? "none" : ("p" + format_number(tail)).c_str());
  const auto& specs = config.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& s : specs) {
    const auto it = result.metrics.find(s.name);
    std::printf("  %-36s %14s %s\n", s.name.c_str(),
                format_number(it == result.metrics.end() ? 0.0 : it->second)
                    .c_str(),
                s.unit.c_str());
  }
  std::printf("%s\n", result_line(result.failed == 0, result.attempted,
                                  result.failed, specs, result.metrics)
                          .c_str());
  std::fflush(stdout);
  return result.failed == 0 ? 0 : 1;
}
