// RunFrame: everything one native run owns, assembled in one place.
//
// A run at width W is a ShardMap (TSU-group ownership), a DataPlane, the
// double-buffered Synchronization Memory, the TubGroup, one mailbox
// per kernel, the optional TraceLog and Guard, one TSU Emulator per
// group and one Kernel per kernel id 0..W-1. Runtime::run() builds a
// frame on its stack and drives its roles on fresh threads; the
// resident Executor builds one per admitted instance and drives the
// roles on its partition's workers. Either way the frame, not the
// code running it, decides how the actors are wired and how many
// threads (roles) they need, collects the run's RuntimeStats and
// writes the run's configuration into the ExecTrace.
//
// Roles: at W >= 2 every kernel and every emulator is a role of its
// own (W + G threads), so TSU work overlaps execution. At W = 1 there
// is one role: the kernel drives its own emulator (Kernel::run_inline)
// through a same-thread mailbox and TUB, with no cross-thread handoff.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/dataplane.h"
#include "core/ddmtrace.h"
#include "core/guard.h"
#include "core/program.h"
#include "core/topology.h"
#include "runtime/emulator.h"
#include "runtime/kernel.h"
#include "runtime/mailbox.h"
#include "runtime/runtime.h"
#include "runtime/sync_memory.h"
#include "runtime/trace_log.h"
#include "runtime/tub_group.h"

namespace tflux::runtime {

/// Threads a run on `map` occupies: one per kernel plus one per TSU
/// Group emulator, or a single one when the map has one kernel.
inline std::uint16_t run_roles(const core::ShardMap& map) {
  return map.num_kernels() == 1
             ? 1
             : static_cast<std::uint16_t>(map.num_kernels() +
                                          map.num_shards());
}

class RunFrame {
 public:
  /// Build a run of `program` at width options.num_kernels. `guard`
  /// and `trace` are the run's own checking and tracing scope (the
  /// executor takes them per request, so options.guard and
  /// options.trace are not read here). `fault`, if set, must outlive
  /// the frame.
  RunFrame(const core::Program& program, const RuntimeOptions& options,
           const core::GuardOptions& guard, core::ExecTrace* trace,
           FaultPlan* fault);

  RunFrame(const RunFrame&) = delete;
  RunFrame& operator=(const RunFrame&) = delete;

  std::uint16_t width() const { return map_.num_kernels(); }
  std::uint16_t groups() const { return map_.num_shards(); }
  /// Threads this run needs (run_roles); role r runs via run_role(r).
  std::uint16_t roles() const { return run_roles(map_); }
  /// Run role `role` to completion on the calling thread: kernel
  /// `role` for role < width(), else emulator role - width(). With one
  /// kernel, role 0 is the kernel driving its own emulator. Every role
  /// of the run must be running concurrently (or, at width 1, the one
  /// role) for the run to finish.
  void run_role(std::uint16_t role);
  std::vector<Kernel>& kernels() { return kernels_; }
  std::vector<TsuEmulator>& emulators() { return emulators_; }
  TraceLog* trace_log() { return trace_log_.get(); }
  core::Guard* guard() { return guard_.get(); }

  /// Write the run's configuration (program, geometry, policy, hot
  /// path, data plane) into `trace`; records are left alone.
  void describe(core::ExecTrace& trace) const;

  /// After every actor returned: fill the ExecTrace passed at
  /// construction with the configuration and the seq-sorted records.
  /// No-op for an untraced run.
  void finish_trace();

  /// After every actor returned: the run's counters, with
  /// `wall_seconds` as measured by the driver. The epoch is the
  /// driver's to stamp.
  RuntimeStats stats(double wall_seconds) const;

 private:
  const core::Program& program_;
  const RunOptions run_;
  core::ExecTrace* const trace_out_;

  // Dependency order: later members reference earlier ones.
  const core::ShardMap map_;
  std::unique_ptr<core::DataPlane> dataplane_;
  SyncMemoryGroup sm_;
  TubGroup tubs_;
  std::deque<Mailbox> mailboxes_;
  std::unique_ptr<TraceLog> trace_log_;
  std::unique_ptr<core::Guard> guard_;
  std::vector<TsuEmulator> emulators_;
  std::vector<Kernel> kernels_;
};

}  // namespace tflux::runtime
