#include "workload.h"

#include <algorithm>
#include <numeric>

#include "fingerprint.h"
#include "sim/rng.h"
#include "stats.h"

namespace tflux::bench {

namespace {

std::vector<double> run_units(
    double seconds, std::size_t min_units,
    const std::function<double(std::uint64_t)>& unit) {
  std::vector<double> ms;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; ms.size() < min_units || seconds_since(t0) < seconds;
       ++i) {
    ms.push_back(unit(i));
  }
  return ms;
}

}  // namespace

void WorkloadResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"soft-suite", "soft-fine",
                                                 "serve-mix", "sim-figs"};
  return names;
}

const std::vector<std::string>& gated_workload_names() {
  static const std::vector<std::string> names = {"serve-mix", "sim-figs"};
  return names;
}

WorkloadResult run_workload(const std::string& name, const RunConfig& config) {
  if (name == "soft-suite") return run_soft_suite(config);
  if (name == "soft-fine") return run_soft_fine(config);
  if (name == "serve-mix") return run_serve_mix(config);
  return run_sim_figs(config);
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed,
                                      std::uint64_t unit) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  sim::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + unit);
  for (std::size_t k = n; k > 1; --k) {
    std::swap(order[k - 1], order[rng.next_below(k)]);
  }
  return order;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void unit_metrics(Metrics& metrics, const std::vector<double>& unit_ms) {
  metrics["samples"] = static_cast<double>(unit_ms.size());
  metrics["run_ms_p50"] = median(unit_ms);
  metrics["peak_rss_mb"] = peak_rss_mb();
}

void trace_metrics(Metrics& metrics, const std::vector<double>& untraced_ms,
                   const std::vector<double>& traced_ms) {
  metrics["samples"] = static_cast<double>(traced_ms.size());
  metrics["run_ms_p90"] = nearest_rank(traced_ms, 90.0);
  metrics["trace.overhead_pct"] =
      100.0 * (ratio(median(traced_ms), median(untraced_ms)) - 1.0);
}

Phases measure_units(const RunConfig& config, SpanRecorder& spans,
                     Metrics& metrics, std::size_t min_units,
                     const std::function<double(std::uint64_t)>& unit) {
  Phases p;
  if (!config.trace) {
    p.untraced = run_units(config.seconds, min_units, unit);
    unit_metrics(metrics, p.untraced);
    return p;
  }
  spans.set_enabled(false);
  p.untraced = run_units(config.seconds / 2, min_units, unit);
  spans.set_enabled(true);
  p.traced = run_units(config.seconds / 2, min_units, unit);
  trace_metrics(metrics, p.untraced, p.traced);
  return p;
}

void finish(WorkloadResult& result, const RunConfig& config,
            const SpanRecorder& spans) {
  result.metrics["failed_frac"] =
      ratio(static_cast<double>(result.failed),
            static_cast<double>(result.attempted));
  if (!config.trace) return;
  for (const auto& [layer, ms] : spans.self_ms_by_layer()) {
    result.metrics["trace.self_ms." + layer] = ms;
  }
  if (!config.trace_path.empty() && !spans.write_chrome_json(config.trace_path)) {
    result.check(false, "cannot write trace " + config.trace_path);
  }
}

}  // namespace tflux::bench
