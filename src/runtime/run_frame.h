// RunFrame: everything one native run owns, assembled in one place.
//
// A run at width W is a ShardMap (TSU-group ownership), a DataPlane, the
// double-buffered Synchronization Memory, the TubGroup, one mailbox
// per kernel, the optional TraceLog and Guard, one TSU Emulator per
// group and one Kernel per kernel id 0..W-1. Runtime::run() builds a
// frame on its stack and drives the actors on fresh threads; the
// resident Executor builds one per admitted instance and drives the
// actors on its partition's workers. Either way the frame, not its
// driver, decides how the actors are wired, collects the run's
// RuntimeStats and writes the run's configuration into the ExecTrace.
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
