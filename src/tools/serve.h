// The `tflux_serve` command-line driver, split into a testable
// library: stand up a resident multi-program executor
// (runtime/executor.h), register a mix of Table-1 benchmarks, and
// replay an open-loop request stream against it - reporting
// throughput, latency percentiles, admission-queue depth and
// per-tenant fairness. `--serial` runs the same request stream the
// pre-executor way (a fresh full-pool Runtime per request, one at a
// time), which is the baseline BENCH_executor.json compares against.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "apps/suite.h"
#include "core/executor.h"
#include "core/guard.h"
#include "core/ready_set.h"

namespace tflux::tools {

struct ServeOptions {
  /// Resident pool size; carved into pool/width tenant partitions.
  std::uint16_t pool_kernels = 8;
  std::uint16_t partition_width = 2;
  std::uint16_t tsu_groups = 1;
  std::size_t queue_capacity = 64;
  std::uint16_t stage_depth = 2;
  /// Requests to replay.
  std::uint32_t requests = 64;
  /// Open-loop arrival rate in requests/second (exponential
  /// interarrivals, seeded by --seed). 0 = closed loop: every request
  /// is due immediately and the admission queue's backpressure paces
  /// the stream.
  double rate = 0.0;
  /// Benchmark mix; requests cycle through it round-robin.
  std::vector<apps::AppKind> apps{apps::AppKind::kTrapez,
                                  apps::AppKind::kMmult,
                                  apps::AppKind::kQsort};
  apps::SizeClass size = apps::SizeClass::kSmall;
  std::uint32_t unroll = 4;
  std::uint32_t tsu_capacity = 64;
  core::PolicyKind policy = core::PolicyKind::kLocality;
  /// Managed data plane per instance (default on; --no-dataplane is
  /// the lean-serving ablation, applied to both modes symmetrically).
  bool dataplane = true;
  /// Per-instance ddmguard mode applied to every admitted run.
  core::GuardOptions guard;
  /// Baseline mode: no executor - run each request on a fresh
  /// full-pool Runtime, serially (the one-program-at-a-time shape the
  /// executor exists to beat).
  bool serial = false;
  /// Trace the mid-stream request (index requests/2) and replay its
  /// per-instance trace through ddmcheck while reconciling its
  /// counters, proving per-tenant trace scoping under concurrency.
  bool check_midstream = false;
  /// Also save the mid-stream trace here (requires --check-tenant).
  std::string trace_file;
  /// Validate every registered app against its sequential reference
  /// after the stream drains.
  bool validate = true;
  std::uint64_t seed = 1;
  std::string json_file;
  bool help = false;
};

/// Parse argv-style arguments (without the program name). Throws
/// core::TFluxError with a usable message on malformed input.
ServeOptions parse_serve_args(const std::vector<std::string>& args);

std::string serve_usage();

/// Key numbers of one replayed stream, for callers (the
/// bench/request_driver harness) that compare modes programmatically
/// rather than scraping the human report.
struct ServeReport {
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
  core::LatencySummary latency;
  std::size_t queue_depth_peak = 0;
  std::uint64_t rejected = 0;
  double fairness_ratio = 1.0;
  bool guard_clean = true;
  bool validated = true;
  bool check_reconciled = true;
};

/// Replay the request stream per the options, writing a human-readable
/// report to `out` (and the key numbers to `*report` when non-null).
/// Returns a process exit code (0 ok; 1 on validation failure, guard
/// violations, or a mid-stream check that did not reconcile).
int run_serve(const ServeOptions& options, std::ostream& out,
              ServeReport* report = nullptr);

}  // namespace tflux::tools
