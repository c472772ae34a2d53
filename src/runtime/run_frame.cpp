#include "runtime/run_frame.h"

#include <algorithm>

namespace tflux::runtime {
namespace {

/// The TUB geometry of a run. Two or more TSU groups append one
/// dedicated lane per emulator after the kernels' lanes: steal grants
/// are emulator-published, and kernel lanes are SPSC with the kernel
/// as sole producer. A one-kernel run's TUB is same-thread and drained
/// only between DThreads, so each lane and each segment must hold
/// everything one completion publishes (twice over for a double-publish
/// fault) plus one block or shutdown command.
TubGroupOptions tub_options(const core::Program& program,
                            const RuntimeOptions& options,
                            const core::ShardMap& map) {
  TubGroupOptions tub{
      .lockfree = options.run.lockfree,
      .num_lanes = static_cast<std::uint32_t>(
          map.num_kernels() + (map.clustered() ? map.num_shards() : 0)),
      .lane_capacity = options.run.tub_lane_capacity,
      .segments = options.tub_segments,
      .segment_capacity = options.tub_segment_capacity,
  };
  if (run_roles(map) == 1) {
    std::size_t peak = 0;
    for (const core::DThread& t : program.threads()) {
      peak = std::max(peak, t.consumer_runs.empty() ? t.consumers.size()
                                                    : t.consumer_runs.size());
    }
    const auto fit = static_cast<std::uint32_t>(2 * peak + 2);
    tub.lane_capacity = std::max(tub.lane_capacity, fit);
    tub.segment_capacity = std::max(tub.segment_capacity, fit);
    tub.same_thread = true;
  }
  return tub;
}

}  // namespace

RunFrame::RunFrame(const core::Program& program,
                   const RuntimeOptions& options,
                   const core::GuardOptions& guard, core::ExecTrace* trace,
                   FaultPlan* fault)
    : program_(program),
      run_(options.run),
      trace_out_(trace),
      map_(options.num_kernels, run_.tsu_groups),
      dataplane_(run_.dataplane ? std::make_unique<core::DataPlane>(
                                      program, map_.topology())
                                : nullptr),
      sm_(program, map_),
      tubs_(program, sm_, tub_options(program, options, map_)) {
  // Size each mailbox ring to the largest block (plus chaining slack:
  // next block's inlet and the exit sentinel can be queued alongside),
  // so the emulator's put() never blocks on a full ring in practice -
  // and a one-kernel run's, which cannot wait, never finds it full.
  std::size_t peak_block = 0;
  for (const core::Block& blk : program.blocks()) {
    peak_block = std::max(peak_block, blk.app_threads.size());
  }
  const std::size_t mailbox_capacity =
      std::max<std::size_t>(64, peak_block + 4);
  for (core::KernelId k = 0; k < width(); ++k) {
    mailboxes_.emplace_back(run_.lockfree, mailbox_capacity,
                            /*same_thread=*/roles() == 1);
  }

  if (trace != nullptr) {
    // Kernel lanes 0..W-1 and emulator lanes W..W+G-1 cover exactly
    // this run, so the trace replays standalone through tflux_check
    // even while other executor tenants are in flight.
    trace_log_ = std::make_unique<TraceLog>(width(), groups());
  }
  if (guard.mode != core::GuardMode::kOff) {
    // Epoch words cover only this run's DThreads and block
    // generations, so one tenant's finding never implicates another's.
    guard_ = std::make_unique<core::Guard>(program, guard, width(), groups());
  }
  tubs_.set_guard(guard_.get());

  emulators_.reserve(groups());
  for (std::uint16_t g = 0; g < groups(); ++g) {
    emulators_.emplace_back(program, tubs_, sm_, mailboxes_,
                            TsuEmulator::Options{
                                .thread_indexing = options.thread_indexing,
                                .policy = run_.policy,
                                .group = g,
                                .adaptive_backlog = options.adaptive_backlog,
                                .steal_threshold = run_.steal_threshold,
                                .dataplane = dataplane_.get(),
                                .trace = trace_log_.get(),
                                .guard = guard_.get(),
                                .fault = fault,
                            });
  }
  kernels_.reserve(width());
  for (core::KernelId k = 0; k < width(); ++k) {
    kernels_.emplace_back(program, k, mailboxes_[k], tubs_, trace_log_.get(),
                          GuardHook{guard_.get(), k}, fault,
                          dataplane_.get());
  }
}

void RunFrame::run_role(std::uint16_t role) {
  if (roles() == 1) {
    kernels_.front().run_inline(emulators_.front());
  } else if (role < width()) {
    kernels_[role].run();
  } else {
    emulators_[role - width()].run();
  }
}

void RunFrame::describe(core::ExecTrace& trace) const {
  trace.program = program_.name();
  trace.kernels = width();
  trace.groups = groups();
  trace.policy = core::to_string(run_.policy);
  trace.pipelined = true;
  trace.lockfree = run_.lockfree;
  trace.dataplane = run_.dataplane;
}

void RunFrame::finish_trace() {
  if (trace_log_ == nullptr) return;
  describe(*trace_out_);
  trace_out_->records = trace_log_->finish();
}

RuntimeStats RunFrame::stats(double wall_seconds) const {
  RuntimeStats stats;
  stats.wall_seconds = wall_seconds;
  stats.tub = tubs_.aggregated_stats();
  stats.emulators.reserve(emulators_.size());
  for (const TsuEmulator& e : emulators_) {
    stats.emulators.push_back(e.stats());
    stats.emulator += e.stats();
  }
  stats.kernels.reserve(kernels_.size());
  for (const Kernel& k : kernels_) stats.kernels.push_back(k.stats());
  if (guard_) {
    stats.guard = guard_->stats();
    stats.guard_violations = guard_->violations();
  }
  return stats;
}

}  // namespace tflux::runtime
