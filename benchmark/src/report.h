// The benchmark's metric catalog and its result line. BENCHMARK.json at
// the repository root lists the same names; the tests keep the two in
// step. An untraced run reports every end-to-end metric, a traced run
// every per-layer metric (0 where the workload does not exercise that
// layer).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tflux::bench {

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
};

const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Native apps of soft-suite and simulated apps of sim-figs, by the
/// names the per-app metrics use.
const std::vector<std::string>& suite_app_names();
const std::vector<std::string>& sim_config_names();

/// The last line of the benchmark's output: one JSON object with
/// exactly correct / attempted / failed / metrics, each metric of
/// `specs` taken from `values` (0 when absent).
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<MetricSpec>& specs,
                        const std::map<std::string, double>& values);

/// Shortest round-trip decimal form of `v` (all its digits).
std::string format_number(double v);

}  // namespace tflux::bench
