// The `tflux_run` command-line driver, split into a testable library:
// run any Table-1 benchmark on any TFlux platform with chosen kernel
// count / unroll / policy, validate results, and optionally export the
// synchronization graph (DOT) or an execution trace (Chrome JSON).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "apps/suite.h"
#include "core/guard.h"
#include "core/ready_set.h"
#include "runtime/guard_hooks.h"

namespace tflux::tools {

/// Execution substrate selection.
enum class CliPlatform : std::uint8_t {
  kReference,  ///< core::ReferenceScheduler (functional oracle)
  kSoft,       ///< native std::thread runtime (TFluxSoft)
  kHard,       ///< simulated Bagle-like machine (TFluxHard)
  kX86Hard,    ///< simulated x86 machine, hardware TSU
  kSoftSim,    ///< simulated Xeon machine, software TSU timing
  kCell,       ///< simulated PS3 (TFluxCell)
};

const char* to_string(CliPlatform platform);

struct CliOptions {
  apps::AppKind app = apps::AppKind::kTrapez;
  apps::SizeClass size = apps::SizeClass::kSmall;
  CliPlatform platform = CliPlatform::kHard;
  std::uint16_t kernels = 4;
  std::uint32_t unroll = 4;
  std::uint32_t tsu_capacity = 512;
  /// TSU Groups (--tsu-groups=G, clamped to --kernels): G clustered
  /// groups of kernels. Soft platform: G emulator threads (hierarchical
  /// stealing across groups with --policy=hier). Simulated platforms:
  /// per-group TSU ports and the TSU-to-TSU link. Reference: the
  /// topology of the hier/affinity pull. Cell rejects G >= 2.
  std::uint16_t tsu_groups = 1;
  core::PolicyKind policy = core::PolicyKind::kLocality;
  /// Native runtime (--platform=soft): lock-free hot path (default) vs
  /// the paper-faithful mutex/try-lock structures (--mutex-runtime).
  bool lockfree = true;
  /// Managed data plane (default on; soft + simulated platforms):
  /// forward/affinity accounting and the --policy=affinity routing.
  /// --no-dataplane selects the implicit-shared-memory ablation;
  /// kAffinity then schedules exactly like kHier.
  bool dataplane = true;
  bool validate = true;
  bool baseline = true;        ///< also simulate the sequential baseline
  /// Run the ddmlint static verifier on the program before executing;
  /// abort (exit 1) when it reports errors.
  bool lint = false;
  /// Soft platform only: record an execution trace and replay it
  /// through the ddmcheck verifier after the run (exit 1 on findings).
  bool check = false;
  /// Soft platform only: run the benchmark N times on ONE Runtime
  /// (warm start - the resident state is constructed once, the app
  /// buffers reset between iterations), reporting every iteration's
  /// wall time. Incompatible with --check/--trace/--inject-fault,
  /// which are single-run machinery.
  std::uint32_t repeat = 1;
  /// Soft platform only: ddmguard online protocol checking
  /// (--guard=off|sampled|sampled:N|full; exit 1 on violations).
  core::GuardOptions guard;
  /// Soft platform only, requires --guard=full: seed one protocol
  /// fault into the run (--inject-fault=double-publish|lost-update|
  /// stale-generation; the guard validation harness).
  runtime::FaultInjection inject_fault;
  std::string dot_file;        ///< write DOT here if non-empty
  /// Trace output: a ddmtrace execution trace on the soft platform, a
  /// Chrome JSON trace on the simulated ones.
  std::string trace_file;
  /// Soft platform only: write a machine-readable JSON run summary
  /// (wall time plus the emulator counters under a stable "emulator"
  /// key) here if non-empty.
  std::string json_file;
  /// Instead of a benchmark, load a ddmgraph file and simulate it
  /// (timing-plane only; implies --no-validate).
  std::string graph_file;
  bool help = false;
};

/// Parse argv-style arguments (without the program name). Throws
/// core::TFluxError with a usable message on malformed input.
CliOptions parse_args(const std::vector<std::string>& args);

/// Usage text.
std::string usage();

/// Execute per the options, writing a human-readable report to `out`.
/// Returns a process exit code (0 ok, 1 validation failed / error).
int run_cli(const CliOptions& options, std::ostream& out);

}  // namespace tflux::tools
