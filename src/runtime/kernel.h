// The Kernel: the per-CPU worker loop of the TFlux Runtime Support
// (paper Figure 2). Waits for a ready DThread from the TSU, executes
// its body uninterrupted, then runs the Local-TSU half of the
// post-processing phase: translating the completion into TUB commands
// (consumer updates, or block load/unload events for Inlets/Outlets).
// The post-processing phase is batched: one publish call carries all
// consumer updates of the completed DThread (per target group),
// through a per-kernel scratch buffer that never reallocates in
// steady state.
#pragma once

#include <cstdint>

#include "core/dataplane.h"
#include "core/program.h"
#include "core/types.h"
#include "runtime/guard_hooks.h"
#include "runtime/mailbox.h"
#include "runtime/spsc_ring.h"
#include "runtime/tub_group.h"

namespace tflux::runtime {

class TraceLog;

/// Live per-kernel counters: cache-line aligned so two kernels' stat
/// bumps (kernels sit in one contiguous container) never false-share.
struct alignas(kCacheLine) KernelStats {
  std::uint64_t threads_executed = 0;  ///< including inlets/outlets
  std::uint64_t app_threads_executed = 0;
  std::uint64_t updates_published = 0;
  /// Deepest mailbox backlog observed on take() (the DThread taken
  /// included) - what the kHier dispatch policy tries to flatten.
  std::uint64_t mailbox_backlog_peak = 0;
  /// Data plane only: bulk forwards this kernel's completions
  /// performed (one per coalesced [lo, hi] run) and the payload bytes
  /// they carried.
  std::uint64_t forwards = 0;
  std::uint64_t bytes_forwarded = 0;

  /// Zero every counter - the per-run stats epoch boundary. Back-to-
  /// back runs in one process (re-run Runtime, resident executor) call
  /// this between runs so each reports per-run numbers, not the
  /// cumulative total since construction.
  void reset() { *this = KernelStats{}; }
};

class Kernel {
 public:
  Kernel(const core::Program& program, core::KernelId id, Mailbox& mailbox,
         TubGroup& tubs, TraceLog* trace = nullptr, GuardHook guard = {},
         FaultPlan* fault = nullptr,
         const core::DataPlane* dataplane = nullptr);

  /// Thread main: Figure 2's loop. Returns when the exit sentinel
  /// arrives (sent by the emulator after the last Outlet).
  void run();

  const KernelStats& stats() const { return stats_; }
  core::KernelId id() const { return id_; }

  /// Start a fresh stats epoch. Only between runs (no live run()).
  void reset_stats_epoch() { stats_.reset(); }

 private:
  void post_process(const core::DThread& t);

  const core::Program& program_;
  core::KernelId id_;
  Mailbox& mailbox_;
  TubGroup& tubs_;
  TubGroup::PublishScratch scratch_;
  TraceLog* trace_;  ///< null unless RuntimeOptions::trace was set
  GuardHook guard_;  ///< null guard = online checking off
  FaultPlan* fault_ = nullptr;  ///< null = no fault injection
  /// Managed data plane (null = implicit shared memory): executions
  /// are recorded as range ownership, completions as bulk forwards.
  const core::DataPlane* dataplane_ = nullptr;
  KernelStats stats_;
};

}  // namespace tflux::runtime
