// The resident executor: one long-lived kernel pool, many DDM
// programs. The paper's arrangement (runtime/runtime.h) spawns one
// thread per Kernel plus the TSU Emulator, runs one program to
// completion, and joins everything - the right shape for Figure 6,
// the wrong one for serving: per-request thread creation and teardown
// dominates small programs, and a pool-wide program monopolizes every
// core for its whole run.
//
// The executor keeps the threads resident and carves the pool into
// fixed-width *tenant partitions* (core/executor.h): pool kernel
// [t*W, (t+1)*W) belongs to tenant t, and each admitted program
// instance runs entirely inside one partition with local kernel ids
// 0..W-1. Isolation is structural, not policed: every per-run object
// - Synchronization Memory generations, TUB lanes, mailboxes, the
// data plane, steal/affinity scope, the ddmtrace lanes and ddmguard
// epoch words - is built per instance at width W, so no dispatch
// policy, stale update, or stat can cross tenants, and every
// concurrent run's trace replays standalone through tflux_check with
// exact counter reconciliation.
//
// Threads: a partition of width W >= 2 keeps W kernel workers plus
// one emulator worker per TSU Group (W + G roles), so TSU work
// overlaps execution. A width-1 partition keeps one worker: its
// kernel drives the instance's emulator itself (Kernel::run_inline),
// so a request pays no cross-thread TUB or mailbox handoff per
// DThread.
//
// Admission: submit() enqueues into a bounded queue (blocking when
// full - backpressure; try_submit() sheds instead). A dispatcher
// thread admits requests to partitions, skipping programs that are
// already in flight (two concurrent runs of one registered program
// would race on the buffers its DThread bodies capture) and balancing
// tenants by inflight depth then total runs (fairness). Each
// partition stages up to `stage_depth` instances: while the resident
// workers execute one, the dispatcher pre-builds the next - the PR 3
// block pipeline's shadow/promote double-buffering generalized from
// "next block" to "next program".
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <optional>

#include "core/ddmtrace.h"
#include "core/executor.h"
#include "core/guard.h"
#include "core/ready_set.h"
#include "runtime/runtime.h"

namespace tflux::runtime {

struct ExecutorOptions {
  /// Resident kernel pool size; carved into pool/width partitions.
  std::uint16_t pool_kernels = 8;
  /// Kernels per tenant partition (programs run at this width and
  /// must be built for <= this many kernels).
  std::uint16_t partition_width = 2;
  /// Admission queue bound: submit() blocks (backpressure) and
  /// try_submit() rejects once this many requests are waiting.
  std::size_t queue_capacity = 64;
  /// Program instances admitted per partition at once: 1 = admit only
  /// when idle; 2 (default) = stage the next instance while the
  /// current one runs, hiding its SM/TUB build time behind execution.
  std::uint16_t stage_depth = 2;
  /// Applied to every admitted instance. run.tsu_groups must be <=
  /// partition_width; run.pin_threads puts kernel workers
  /// on the pool's kernel CPUs and emulator workers on the CPUs after
  /// the pool (wrapping around the host count; best effort).
  RunOptions run{};
};

/// One admission request: which registered program to run, and the
/// per-instance checking/tracing scope.
struct RunRequest {
  core::ProgramHandle handle = core::kInvalidProgram;
  /// Per-instance online checking: this run gets its own Guard (its
  /// epoch words cover only this instance), so one tenant's guard
  /// finding never implicates another's run.
  core::GuardOptions guard;
  /// Per-instance execution trace: this run gets its own TraceLog at
  /// partition width, so the trace replays standalone through
  /// tflux_check while other tenants are in flight. The ExecTrace must
  /// outlive the returned future's completion. The executor never arms
  /// the process-global emergency-flush slot (that is single-run
  /// machinery; a resident pool has many concurrent candidates).
  core::ExecTrace* trace = nullptr;
  /// Pin to one tenant partition (-1 = any; the dispatcher balances).
  int tenant = -1;
};

/// Completion record of one admitted instance.
struct RunResult {
  std::uint64_t instance = 0;  ///< global admission ticket (1-based)
  core::ProgramHandle handle = core::kInvalidProgram;
  std::uint16_t tenant = 0;    ///< partition that ran it
  double queue_seconds = 0.0;  ///< submit -> first worker picked it up
  double run_seconds = 0.0;    ///< first worker start -> last finished
  double latency_seconds = 0.0;  ///< submit -> completion
  std::chrono::steady_clock::time_point completed_at{};
  RuntimeStats stats;          ///< per-instance (partition-scoped)
  bool guard_clean = true;     ///< no ddmguard violations (true if off)
};

struct ExecutorStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;   ///< try_submit shed on a full queue
  std::size_t queue_depth = 0;  ///< now
  std::size_t queue_depth_peak = 0;
  std::uint64_t epoch = 1;      ///< bumped by reset_stats_epoch()
  std::vector<core::TenantShare> tenants;
  core::LatencySummary latency;  ///< submit -> completion
};

class Executor {
 public:
  /// The registry must outlive the executor. Worker threads (one per
  /// role: width + TSU groups per partition, or one for a width-1
  /// partition) start resident and idle immediately.
  Executor(core::ProgramRegistry& registry, ExecutorOptions options);

  /// Drains in-flight work, then stops and joins every thread.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueue a run. Blocks while the admission queue is full
  /// (backpressure). Throws core::TFluxError on an unknown handle, a
  /// program too wide for the partition (core::tenant_admission_error),
  /// an invalid tenant pin, or after shutdown began.
  std::future<RunResult> submit(const RunRequest& request);

  /// Load-shedding variant: returns std::nullopt instead of blocking
  /// when the queue is full (counted in ExecutorStats::rejected).
  std::optional<std::future<RunResult>> try_submit(const RunRequest& request);

  /// Block until every submitted request has completed.
  void drain();

  ExecutorStats stats() const;

  /// Start a fresh stats epoch: zero the submit/complete/reject and
  /// queue-peak counters, the latency samples, and the per-tenant
  /// shares, so back-to-back measurement rounds against one resident
  /// executor report per-round numbers. In-flight work is unaffected.
  void reset_stats_epoch();

  std::uint16_t num_tenants() const;
  const ExecutorOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tflux::runtime
