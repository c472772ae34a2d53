// TFluxSoft: the native runtime. Pure user-level std::thread code on an
// unmodified OS - one thread per Kernel plus the TSU Emulator thread,
// exactly the paper's Figure 4 arrangement ("the last CPU is dedicated
// to the TSU Emulation process"). A one-kernel run has nothing for a
// dedicated emulator to overlap with: it runs on the caller's thread,
// its kernel stepping the emulator after every DThread, and starts no
// run thread (a traced run still starts the TraceLog flusher). Such a
// run's exceptions - a throwing DThread body, or the stall error of a
// run that cannot make progress - therefore reach run()'s caller,
// where at two or more kernels they end the process.
//
// Usage:
//   core::ProgramBuilder b;
//   ... build graph ...
//   core::Program p = b.build({.num_kernels = 4});
//   runtime::Runtime rt(p, {.num_kernels = 4});
//   runtime::RuntimeStats st = rt.run();
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/ddmtrace.h"
#include "core/program.h"
#include "core/ready_set.h"
#include "runtime/emulator.h"
#include "runtime/kernel.h"
#include "runtime/tub.h"

namespace tflux::runtime {

/// The per-run settings every native run honors, whether it is a
/// one-shot Runtime::run() or an instance admitted to a resident
/// Executor partition. Both option structs hold one, and RunFrame
/// (runtime/run_frame.h) builds either kind of run from it.
struct RunOptions {
  core::PolicyKind policy = core::PolicyKind::kLocality;
  /// Lock-free hot path (default): per-kernel SPSC TUB lanes + SPSC
  /// ring mailboxes with spin-then-park waiting. false selects the
  /// paper-faithful mutex/try-lock structures (the ablation baseline).
  bool lockfree = true;
  /// Lane capacity per kernel in lock-free mode (rounded up to a
  /// power of two). A completion whose consumer list exceeds this is
  /// chunked across several publishes (ddmlint's lane-capacity check
  /// warns about such DThreads ahead of time). A one-kernel run, whose
  /// lane is drained only between DThreads, raises it to fit its
  /// largest completion.
  std::uint32_t tub_lane_capacity = 256;
  /// Pin each Kernel and TSU Emulator thread to its own CPU (the
  /// paper's placement: one core per Kernel, one for the emulator,
  /// one reserved for the OS). CPU ids wrap around the host's count,
  /// so this is safe on any machine; failures to pin are ignored. A
  /// one-kernel Runtime::run() runs on the caller's thread and does
  /// not pin it.
  bool pin_threads = false;
  /// Number of TSU Emulator threads (the section 4.1 multiple-TSU-
  /// Groups extension, software flavor): the run's ownership map is
  /// core::ShardMap(kernels, tsu_groups) - contiguous kernel ranges,
  /// one emulator scheduling loop per group. SM spans, TKT-routed
  /// updates, and TUB lanes all stay group-local; with >= 2 groups
  /// each emulator also gets a dedicated TUB lane for steal grants.
  /// Combine with policy kHier for hierarchical stealing across
  /// groups. Must be in [1, the run's kernel count].
  std::uint16_t tsu_groups = 1;
  /// kHier only: depth advantage a remote shard must offer before a
  /// backlogged dispatch is delegated there (TsuEmulator::Options::
  /// steal_threshold).
  std::uint32_t steal_threshold = 4;
  /// Managed data plane (core/dataplane.h, default on): track which
  /// kernel last wrote each footprint range, account bulk forwards
  /// along arcs, and enable the kAffinity dispatch policy. false =
  /// implicit shared memory only (the ablation baseline, tflux_run
  /// --no-dataplane); kAffinity then degrades to kHier.
  bool dataplane = true;
};

struct RuntimeOptions {
  std::uint16_t num_kernels = 1;
  RunOptions run{};
  /// TUB geometry (paper: segmented to keep try-lock contention low).
  /// Used only when run.lockfree == false. A one-kernel run raises the
  /// segment capacity to fit its largest completion, as it does the
  /// lane capacity.
  std::uint32_t tub_segments = 8;
  std::uint32_t tub_segment_capacity = 256;
  /// Thread Indexing (TKT). Disable only for the ablation study.
  bool thread_indexing = true;
  /// kHier / kAffinity home-backlog slack: home-kernel mailbox depth
  /// tolerated before a ready DThread spills to the shallowest owned
  /// mailbox (and kAffinity's tolerated excess over that mailbox).
  std::uint32_t adaptive_backlog = 2;
  /// Execution tracing for the ddmcheck verifier: when set, every
  /// actor records Dispatch/Complete/Update/... events into lock-free
  /// lanes (runtime/trace_log.h) and run() fills this trace with the
  /// run's configuration and seq-sorted records. Null (the default)
  /// costs one predictable branch per event.
  core::ExecTrace* trace = nullptr;
  /// Abnormal-teardown hook (requires `trace`): if run() unwinds on an
  /// exception or the process exits mid-run, the trace lanes are
  /// drained and this callback receives the partial trace (metadata
  /// filled, `truncated` set) so it can still be persisted - a clear
  /// "truncated trace" instead of a confusing lifecycle finding in
  /// tflux_check.
  std::function<void(core::ExecTrace&)> trace_emergency = nullptr;
  /// ddmguard: online protocol checking (core/guard.h). kOff (the
  /// default) builds no Guard at all - every hook site costs one
  /// predictable null branch, keeping --guard=off behavior-neutral.
  core::GuardOptions guard{};
  /// Seed exactly one protocol fault into the run (guard validation
  /// harness). Requires guard mode kFull: the guard must account every
  /// block so it *contains* the fault (suppressed surplus decrements)
  /// instead of letting the Synchronization Memory underflow.
  FaultInjection inject_fault{};
};

struct RuntimeStats {
  double wall_seconds = 0.0;
  /// Which run() invocation of this Runtime produced these stats
  /// (1-based). Every run assembles fresh actors, so the counters are
  /// always per-run - this is the epoch tag that makes back-to-back
  /// in-process runs distinguishable in reports.
  std::uint64_t epoch = 0;
  TubStats tub;                          ///< aggregated over all TUBs
  EmulatorStats emulator;                ///< aggregated over emulators
  std::vector<EmulatorStats> emulators;  ///< per TSU Group
  std::vector<KernelStats> kernels;
  /// ddmguard counters and deduplicated violations (empty / all-zero
  /// unless RuntimeOptions::guard enabled the online checker).
  core::GuardStats guard;
  std::vector<core::GuardViolation> guard_violations;

  std::uint64_t total_app_threads_executed() const {
    std::uint64_t n = 0;
    for (const KernelStats& k : kernels) n += k.app_threads_executed;
    return n;
  }
};

class Runtime {
 public:
  Runtime(const core::Program& program, RuntimeOptions options);

  /// Execute the program to completion. May be called repeatedly (one
  /// run at a time): every invocation assembles fresh SM generations,
  /// TUBs, mailboxes, and actors (and their threads, at two or more
  /// kernels), so runs are independent and
  /// the returned stats cover exactly one run (RuntimeStats::epoch
  /// numbers them). Callers re-running a program whose DThreads
  /// consume their own outputs must re-initialize the input buffers
  /// between runs (apps::AppRun::reset).
  RuntimeStats run();

  /// Completed run() invocations so far.
  std::uint64_t runs() const { return runs_; }

 private:
  const core::Program& program_;
  RuntimeOptions options_;
  std::uint64_t runs_ = 0;
};

}  // namespace tflux::runtime
