// The `tflux_lint` command-line driver, split into a testable library:
// run the static verifier (core/verify.h) over any Table-1 benchmark,
// every shipped benchmark at once (--all), or a ddmgraph file, and
// print the structured diagnostics.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "apps/suite.h"
#include "core/verify.h"

namespace tflux::tools {

struct LintOptions {
  /// Lint one benchmark... (ignored with --all or --graph)
  apps::AppKind app = apps::AppKind::kTrapez;
  apps::SizeClass size = apps::SizeClass::kSmall;
  /// ...or every shipped benchmark...
  bool all = false;
  /// ...or a ddmgraph file.
  std::string graph_file;

  std::uint16_t kernels = 4;
  std::uint32_t unroll = 4;
  std::uint32_t tsu_capacity = 512;
  /// Lock-free TUB lane capacity for the lane-capacity-stall check
  /// (0 disables; the native runtime default is 256).
  std::uint32_t tub_lane_capacity = 0;
  /// Minimum app-DThread count per non-final block for the
  /// stall-prone-block check (0 disables; num_kernels x 2 is the
  /// block pipeline's rule of thumb).
  std::uint32_t min_block_threads = 0;
  /// Minimum consecutive-consumer run width for the coalescable-arcs
  /// check (0 disables): warn when a DThread declares that many unit
  /// arcs to consecutive instances of one consumer instead of a
  /// single range arc.
  std::uint32_t coalescable_arcs = 0;
  /// ddmguard sampled-mode budget for the guard-hotspot check
  /// (0 disables): warn when one block's Ready Count fan-in exceeds
  /// this many updates - deep-checking that block concentrates the
  /// guard's per-member accounting into a single transition.
  std::uint32_t guard_hotspots = 0;
  /// TSU groups of the target clustered topology for the
  /// shard-imbalance and affinity-split checks (1 = no topology).
  std::uint16_t tsu_groups = 1;
  /// Allowed per-group load deviation from uniform, in percent, before
  /// the shard-imbalance check warns (0 disables; needs --tsu-groups
  /// >= 2).
  std::uint32_t shard_imbalance = 0;
  /// Maximum distinct producer home kernels (home groups with
  /// --tsu-groups >= 2) a consumer's input footprint may span before
  /// the affinity-split check warns (0 disables).
  std::uint32_t affinity_split = 0;
  /// Resident-executor tenant partition width for the tenant-capacity
  /// check (0 disables): error when the program cannot be admitted to
  /// a `tenant_capacity`-kernel tenant slice at all, warn when a
  /// block's peak concurrency would saturate the slice's combined
  /// lock-free lane capacity.
  std::uint16_t tenant_capacity = 0;
  /// Enable the opt-in dead-footprint check (write ranges no consumer
  /// reads).
  bool dead_footprint = false;
  /// Write machine-readable findings (JSON: per-program diagnostics
  /// with code/severity/thread/block ids) to this file; empty = off.
  /// CI gates and the ddmmodel fixtures diff this structurally
  /// instead of grepping the text output.
  std::string json_file;
  /// Exit nonzero on warnings too, not just errors.
  bool strict = false;
  /// Promote every warning to an error (CI gate: the diagnostics are
  /// reported as errors, and the exit code follows suit).
  bool werror = false;
  /// Print only the per-program summary lines, not each diagnostic.
  bool quiet = false;
  bool help = false;
};

/// Parse argv-style arguments (without the program name). Throws
/// core::TFluxError with a usable message on malformed input.
LintOptions parse_lint_args(const std::vector<std::string>& args);

/// Usage text.
std::string lint_usage();

/// Lint one already-built program, printing diagnostics to `out`.
/// Returns the report.
core::VerifyReport lint_program(const core::Program& program,
                                const LintOptions& options,
                                std::ostream& out);

/// Execute per the options, writing diagnostics to `out`. Returns a
/// process exit code: 0 clean (no errors; no warnings under --strict),
/// 1 findings.
int run_lint(const LintOptions& options, std::ostream& out);

}  // namespace tflux::tools
