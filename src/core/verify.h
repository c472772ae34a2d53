// ddmlint: static verification of DDM programs.
//
// The Synchronization Graph carries the whole correctness story of a
// DDM program: Ready Counts must equal producer in-degree, blocks must
// be acyclic, and DThreads that may run concurrently must not touch
// overlapping memory with a write. ProgramBuilder::build() enforces a
// subset of this; verify() re-derives every property independently
// from a finished Program and reports structured diagnostics instead
// of throwing - so it also covers programs produced by load_graph, by
// the DDMCPP preprocessor, or corrupted by future transformations.
//
// Diagnostic classes (docs/LINTING.md has the full catalog):
//   1. Ready Count consistency (app threads, Inlets, Outlets)
//   2. Deadlock detection: intra-block cycles and orphan threads
//      whose Ready Count can never reach zero
//   3. Cross-block arc direction / block-ordering violations
//   4. Footprint race detection between concurrent DThreads
//   5. TSU capacity and home-kernel-range checks
//
// Entry points: verify() (library), ProgramBuilder::build() with
// BuildOptions::strict (throws on any error), `tflux_lint` /
// `tflux_run --lint` (CLI), and ddmcpp (IR lint before codegen).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.h"
#include "core/types.h"

namespace tflux::core {

enum class Severity : std::uint8_t { kWarning, kError };

const char* to_string(Severity severity);

/// Stable identifiers for every diagnostic the verifier can emit.
enum class Diag : std::uint8_t {
  // -- Ready Count consistency ---------------------------------------
  kReadyCountMismatch,    ///< RC below same-block producer in-degree
  kOrphanThread,          ///< RC above in-degree: can never reach zero
  kOutletReadyCountMismatch,  ///< Outlet RC / sink_count inconsistent
  kInletNotQuiescent,     ///< Inlet has a nonzero RC or consumers
  // -- Deadlock ------------------------------------------------------
  kIntraBlockCycle,       ///< dependency cycle within one DDM Block
  // -- Cross-block arcs ----------------------------------------------
  kBackwardCrossBlockArc, ///< producer in a later block than consumer
  kSameBlockCrossArc,     ///< cross-block arc between same-block threads
  kDanglingArc,           ///< arc endpoint is not an application thread
  kEmptyBlock,            ///< block with no application DThreads
  // -- Footprints ----------------------------------------------------
  kFootprintRace,         ///< concurrent DThreads overlap, >=1 write
  kEmptyRange,            ///< zero-byte footprint range
  kRangeOverflow,         ///< addr + bytes wraps the SimAddr space
  kRaceCheckSkipped,      ///< block too large for pairwise race check
  // -- Capacity / placement ------------------------------------------
  kCapacityExceeded,      ///< block needs more TSU slots than available
  kHomeKernelOutOfRange,  ///< home kernel >= target kernel count
  kHomeKernelUnassigned,  ///< built program left a thread unpinned
  kLaneCapacityStall,     ///< out-degree exceeds a TUB lane's capacity
  kStallProneBlock,       ///< block too small to cover a transition
  kCoalescableArcs,       ///< unit-arc fan-out that should be one range arc
  kGuardHotspot,          ///< block fan-in exceeds the sampled-guard budget
  kShardImbalance,        ///< per-shard load deviates from uniform
  kAffinitySplit,         ///< consumer input spans too many producers' homes
  kDeadFootprint,         ///< written range no consumer ever reads
  kTenantCapacity,        ///< program too wide for a tenant slice
};

/// Stable kebab-case name of a diagnostic (e.g. "footprint-race").
const char* to_string(Diag code);

/// One finding: severity, code, location (thread/block where known),
/// and a human-readable explanation.
struct Diagnostic {
  Severity severity = Severity::kError;
  Diag code = Diag::kReadyCountMismatch;
  ThreadId thread = kInvalidThread;  ///< primary thread, if any
  ThreadId other = kInvalidThread;   ///< second thread (races, arcs)
  BlockId block = kInvalidBlock;     ///< owning block, if any
  std::string message;

  /// "error: [footprint-race] block 0, threads 3 'a' and 5 'b': ..."
  std::string to_string(const Program& program) const;
};

struct VerifyOptions {
  /// Target TSU capacity (DThreads per block incl. Inlet/Outlet);
  /// 0 = unlimited, disables the capacity check.
  std::uint32_t tsu_capacity = 0;
  /// Target kernel count for the home-kernel range check; 0 disables.
  std::uint16_t num_kernels = 0;
  /// Capacity of one lock-free TUB lane (RunOptions::
  /// tub_lane_capacity) for the lane-capacity-stall check: a DThread
  /// whose consumer list exceeds this cannot publish its completion
  /// in one batch - the runtime must chunk and may stall the kernel
  /// mid-publish until the emulator drains. 0 disables.
  std::uint32_t tub_lane_capacity = 0;
  /// Minimum application-DThread count per DDM Block for the
  /// stall-prone-block check (0 disables). The native runtime's block
  /// pipeline prefetches the next block's Ready Counts while the
  /// current block drains; a block with fewer DThreads than
  /// num_kernels x 2 cannot keep every kernel busy across the
  /// transition, so its boundary degrades toward a synchronous stall.
  /// The last block is exempt (no following transition to cover).
  std::uint32_t min_block_threads = 0;
  /// Minimum width of a consecutive-consumer run for the
  /// coalescable-arcs check (0 disables): a DThread declaring at least
  /// this many unit arcs to consecutive instances of one consumer
  /// (e.g. a loop DThread's chunks) should declare a single range arc
  /// (ProgramBuilder::add_arc_range) so the runtime publishes one
  /// range update instead of N unit records.
  std::uint32_t coalescable_arc_min = 0;
  /// ddmguard sampled-mode budget for the guard-hotspot check (0
  /// disables): warn when one block's Ready Count fan-in (the total
  /// updates its application threads and Outlet receive) exceeds this.
  /// When such a block lands on a sampled generation, the guard's
  /// per-member accounting adds that many checks to a single block
  /// transition - the overhead spike deterministic sampling is meant
  /// to bound. tflux_lint --guard-hotspots=N.
  std::uint32_t guard_hotspot_budget = 0;
  /// TSU groups of the target topology for the shard-imbalance and
  /// affinity-split checks (clustered map over num_kernels; enabled
  /// when 2 <= tsu_groups <= num_kernels). Multiple TSU groups keep
  /// Ready-Count work home-group-local, so a graph whose DThread
  /// placement and update fan-in concentrate on one group serializes
  /// on that group's emulator no matter how the stealing behaves.
  /// tflux_lint --tsu-groups=G.
  std::uint16_t tsu_groups = 1;
  /// Allowed deviation, in percent, of any one shard's load (homed
  /// application DThreads + Ready-Count updates they receive) from the
  /// uniform per-shard share before kShardImbalance fires (0 disables).
  /// tflux_lint --shard-imbalance=N.
  std::uint32_t shard_imbalance_pct = 0;
  /// Maximum number of distinct producer home kernels - home *groups*
  /// when `tsu_groups` gives a topology - a consumer's input footprint
  /// may span before kAffinitySplit fires (0 disables). A consumer
  /// whose input bytes are written by producers homed on many kernels
  /// has no warm placement: wherever the data plane's affinity dispatch
  /// puts it, most of its input crosses caches (and group links).
  /// tflux_lint --affinity-split=N.
  std::uint32_t affinity_split = 0;
  /// Dead-footprint detection (opt-in): warn when a DThread declares a
  /// write range but none of its same-block consumers' declared read
  /// ranges overlaps any of its writes - the arc synchronizes on data
  /// nobody loads, so either the footprint or the arc is wrong.
  /// Conservative: suppressed when any consumer declares no read
  /// ranges at all (its footprint is simply undeclared, not provably
  /// disjoint). tflux_lint --dead-footprint; on by default in the
  /// ddmcpp IR lint, where footprints come from #pragma ddm and a
  /// mismatch is a preprocessor-input bug with a source line.
  bool check_dead_footprint = false;
  /// Resident-executor tenant slice width for the tenant-capacity
  /// check (0 disables): the executor (runtime/executor.h) carves its
  /// kernel pool into fixed-width tenant partitions and a program
  /// built for more kernels than one slice holds can never be
  /// admitted - its DThreads homed past the slice would wait forever.
  /// Reported as an error here so deployment fails at lint time with
  /// a clear message instead of at admission. With tub_lane_capacity
  /// also set, additionally warns when one DThread's fan-out exceeds
  /// the slice's combined lock-free lane capacity (tenant_width x
  /// tub_lane_capacity): such a completion cannot publish without the
  /// emulator draining mid-publish, a stall serial full-pool runs
  /// never see. tflux_lint --tenant-capacity=W.
  std::uint16_t tenant_width = 0;
  /// Run the pairwise footprint race detection (the most expensive
  /// pass; quadratic in overlapping ranges per block).
  bool check_races = true;
  /// Blocks with more application threads than this skip the race
  /// check with a kRaceCheckSkipped warning (0 = no limit).
  std::uint32_t race_check_max_threads = 16384;
};

struct VerifyReport {
  std::vector<Diagnostic> diagnostics;
  std::uint32_t num_errors = 0;
  std::uint32_t num_warnings = 0;

  bool clean() const { return diagnostics.empty(); }
  bool has_errors() const { return num_errors != 0; }

  /// All diagnostics, one per line, plus a summary line.
  std::string to_string(const Program& program) const;
};

/// Statically verify `program`, returning every finding. Never throws
/// on graph problems (that is the point); the Program must only be
/// structurally indexable (thread/block ids within range), which any
/// ProgramBuilder output - strict or not - satisfies.
VerifyReport verify(const Program& program, const VerifyOptions& options = {});

}  // namespace tflux::core
