// Shared shape of the four benchmark workloads. Each one sets up
// kSetups times (setup_s is the median), then measures units back to
// back for the configured seconds. An untraced run reports the end-to-end
// metrics; a traced run measures half its time untraced and half with
// spans and body timers on, and reports the per-layer metrics plus the
// tracing overhead between the two halves.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace tflux::bench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test-sized inputs (smoke tests), checked against their own
  /// recorded results.
  bool tiny = false;
  /// Chrome trace JSON of the traced phase (empty = not written).
  std::string trace_path;
  /// Expected cycle counts replacing the recorded ones, by sim config
  /// name (tests inject a wrong one to prove the check fires).
  std::map<std::string, std::uint64_t> expected_cycles;
};

using Metrics = std::map<std::string, double>;

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> failures;  ///< first few failed checks

  /// Count one checked output; a false `ok` is a failure.
  void check(bool ok, const std::string& what);
};

WorkloadResult run_soft_suite(const RunConfig& config);
WorkloadResult run_soft_fine(const RunConfig& config);
WorkloadResult run_serve_mix(const RunConfig& config);
WorkloadResult run_sim_figs(const RunConfig& config);

/// Every workload tflux_bench runs, and the dispatcher.
const std::vector<std::string>& workload_names();
/// The workloads BENCHMARK.json lists, in its order: the ones whose
/// end-to-end metrics repeat within their bounds on a shared host.
/// soft-suite and soft-fine run on demand only (README.md says why).
const std::vector<std::string>& gated_workload_names();
WorkloadResult run_workload(const std::string& name, const RunConfig& config);

// ---- helpers shared by the workload implementations --------------------

double seconds_since(Clock::time_point t0);

/// Set-ups per run: setup_s is their median.
inline constexpr int kSetups = 11;

/// Run `make` kSetups times, timing each, and return the last state; the
/// median time lands in metrics["setup_s"].
template <class Make>
auto repeated_setup(Metrics& metrics, Make make) -> decltype(make()) {
  std::vector<double> times;
  for (int i = 0; i + 1 < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    { auto discarded = make(); }
    times.push_back(seconds_since(t0));
  }
  const Clock::time_point t0 = Clock::now();
  auto state = make();
  times.push_back(seconds_since(t0));
  std::sort(times.begin(), times.end());
  metrics["setup_s"] = times[kSetups / 2];
  return state;
}

/// The order of `n` items in unit `unit` of a run seeded with `seed`:
/// a Fisher-Yates shuffle, the same for the same (seed, unit).
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed,
                                      std::uint64_t unit);

/// Mean time (ms) per set-up of the spans named `name`.
inline double per_setup_ms(const SpanRecorder& spans, const std::string& name) {
  return spans.total_ms(name) / kSetups;
}

/// End-to-end metrics from one phase's unit times: median unit time,
/// peak resident memory, and the sample count.
void unit_metrics(Metrics& metrics, const std::vector<double>& unit_ms);

/// Per-layer metrics every traced run reports: the traced phase's
/// sample count and p90 unit time, and the tracing overhead (traced
/// against untraced median).
void trace_metrics(Metrics& metrics, const std::vector<double>& untraced_ms,
                   const std::vector<double>& traced_ms);

/// Unit times of one run's measuring phases.
struct Phases {
  std::vector<double> untraced;
  std::vector<double> traced;  ///< empty in an untraced run
};

/// Call `unit(i)` for i = 0, 1, ... back to back (each call returns its
/// timed milliseconds, and at least `min_units` run) for
/// `config.seconds`. Untraced, every unit feeds the end-to-end metrics. Traced, the first half runs with `spans` off and
/// the second with them on, and trace_metrics() compares the two.
Phases measure_units(const RunConfig& config, SpanRecorder& spans,
                     Metrics& metrics, std::size_t min_units,
                     const std::function<double(std::uint64_t)>& unit);

/// Fold the failure count into failed_frac; for a traced run, add the
/// self time per layer over every span and write the Chrome trace.
void finish(WorkloadResult& result, const RunConfig& config,
            const SpanRecorder& spans);

/// a / b, 0 when b is 0.
inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace tflux::bench
