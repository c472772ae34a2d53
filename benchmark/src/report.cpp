#include "report.h"

#include <charconv>
#include <cmath>

#include "apps/suite.h"

namespace tflux::bench {

const std::vector<std::string>& suite_app_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (apps::AppKind kind : apps::all_apps()) n.push_back(apps::to_string(kind));
    return n;
  }();
  return names;
}

const std::vector<std::string>& sim_config_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (apps::AppKind kind : apps::table1_apps()) n.push_back(apps::to_string(kind));
    n.push_back("hard_TRAPEZ");
    return n;
  }();
  return names;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", false},
      {"run_ms_p50", "ms", false},
      {"peak_rss_mb", "MB", false},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"samples", "count", true},
        {"failed_frac", "ratio", false},
        {"run_ms_p90", "ms", false},
        {"apps.build_ms", "ms", false},
        {"apps.serial_ms", "ms", false},
        {"core.build_ms", "ms", false},
        {"core.dataplane.forwards", "count", false},
        {"core.dataplane.bytes_forwarded", "bytes", false},
        {"core.dataplane.affinity_hit_ratio", "ratio", true},
        {"runtime.construct_ms", "ms", false},
    };
    for (const std::string& app : suite_app_names()) {
      s.push_back({"runtime.run_ms." + app, "ms", false});
    }
    const std::vector<MetricSpec> runtime = {
        {"runtime.efficiency", "ratio", true},
        {"runtime.ns_per_dthread", "ns", false},
        {"runtime.body_share", "ratio", true},
        {"runtime.updates_processed", "count", false},
        {"runtime.range_updates", "count", false},
        {"runtime.coalesce_factor", "ratio", true},
        {"runtime.tub.entries_per_publish", "ratio", true},
        {"runtime.tub.full_skip_ratio", "ratio", false},
        {"runtime.drain_sweeps_per_dispatch", "ratio", false},
        {"runtime.home_ratio", "ratio", true},
        {"runtime.steals", "count", false},
        {"runtime.mailbox_backlog_peak", "count", false},
        {"runtime.prefetch_hit_ratio", "ratio", true},
        {"runtime.deferred_replays", "count", false},
        {"serve_rps", "1/s", true},
        {"executor.run_ms_p50", "ms", false},
        {"executor.queue_ms_p50", "ms", false},
        {"executor.queue_ms_p99", "ms", false},
        {"executor.handoff_ms_p50", "ms", false},
        {"executor.queue_depth_peak", "count", false},
        {"executor.rejected", "count", false},
        {"executor.fairness_ratio", "ratio", false},
        {"executor.gen_late_ms_p99", "ms", false},
        {"latency_ms_p50", "ms", false},
        {"latency_ms_p99", "ms", false},
    };
    s.insert(s.end(), runtime.begin(), runtime.end());
    for (const std::string& c : sim_config_names()) {
      s.push_back({"machine.run_ms." + c, "ms", false});
    }
    s.push_back({"machine.seq_ms", "ms", false});
    s.push_back({"machine.accesses_per_s", "1/s", true});
    s.push_back({"machine.dthreads_per_s", "1/s", true});
    for (const std::string& c : sim_config_names()) {
      s.push_back({"machine.cycles." + c, "count", false});
    }
    s.push_back({"trace.overhead_pct", "%", false});
    for (const char* layer :
         {"bench", "apps", "core", "runtime", "executor", "machine"}) {
      s.push_back({std::string("trace.self_ms.") + layer, "ms", false});
    }
    return s;
  }();
  return specs;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (i != 0) out += ", ";
    out += "\"" + specs[i].name + "\": {\"value\": " + format_number(v) +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace tflux::bench
