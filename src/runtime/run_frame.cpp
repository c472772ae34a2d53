#include "runtime/run_frame.h"

#include <algorithm>

namespace tflux::runtime {

RunFrame::RunFrame(const core::Program& program,
                   const RuntimeOptions& options,
                   const core::GuardOptions& guard, core::ExecTrace* trace,
                   FaultPlan* fault)
    : program_(program),
      run_(options.run),
      trace_out_(trace),
      map_(core::ShardMap::resolve(options.num_kernels, run_.tsu_groups,
                                   run_.shards)),
      dataplane_(run_.dataplane ? std::make_unique<core::DataPlane>(
                                      program, map_.topology())
                                : nullptr),
      sm_(program, map_),
      // The clustered topology appends one dedicated lane per emulator
      // after the kernels' lanes: steal grants are emulator-published,
      // and kernel lanes are SPSC with the kernel as sole producer.
      tubs_(program, sm_,
            TubGroupOptions{
                .lockfree = run_.lockfree,
                .num_lanes = static_cast<std::uint32_t>(
                    width() + (map_.clustered() ? groups() : 0)),
                .lane_capacity = run_.tub_lane_capacity,
                .segments = options.tub_segments,
                .segment_capacity = options.tub_segment_capacity,
            }) {
  // Size each mailbox ring to the largest block (plus chaining slack:
  // next block's inlet and the exit sentinel can be queued alongside),
  // so the emulator's put() never blocks on a full ring in practice.
  std::size_t peak_block = 0;
  for (const core::Block& blk : program.blocks()) {
    peak_block = std::max(peak_block, blk.app_threads.size());
  }
  const std::size_t mailbox_capacity =
      std::max<std::size_t>(64, peak_block + 4);
  for (core::KernelId k = 0; k < width(); ++k) {
    mailboxes_.emplace_back(run_.lockfree, mailbox_capacity);
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

void RunFrame::describe(core::ExecTrace& trace) const {
  trace.program = program_.name();
  trace.kernels = width();
  trace.groups = groups();
  trace.policy = core::to_string(run_.policy);
  trace.pipelined = true;
  trace.lockfree = run_.lockfree;
  trace.shards = run_.shards;
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
