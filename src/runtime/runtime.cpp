#include "runtime/runtime.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/error.h"
#include "runtime/run_frame.h"

namespace tflux::runtime {
namespace {

/// Best-effort pinning of `thread` to `cpu` (modulo the host's CPU
/// count). Pinning is an optimization; errors are ignored.
void pin_to_cpu(std::thread& thread, unsigned cpu) {
  const unsigned ncpu =
      std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % ncpu, &set);
  (void)pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
}

/// True when `tid` can carry the requested fault: kDoublePublish needs
/// consumers to duplicate updates to; kLostUpdate needs an initial
/// Ready Count of at least 2 (the early dispatch fires on a decrement
/// that did not reach zero); kStaleGeneration needs an application
/// consumer to hit and a successor block whose Inlet replays the
/// update.
bool fault_victim_suitable(const core::Program& program,
                           FaultInjection::Kind kind, core::ThreadId tid) {
  const core::DThread& t = program.thread(tid);
  if (!t.is_application()) return false;
  switch (kind) {
    case FaultInjection::Kind::kDoublePublish:
      return !t.consumers.empty();
    case FaultInjection::Kind::kLostUpdate:
      return t.ready_count_init >= 2;
    case FaultInjection::Kind::kStaleGeneration: {
      if (static_cast<core::BlockId>(t.block + 1) >= program.num_blocks()) {
        return false;
      }
      // Same-block consumer only: by replay time the victim's block
      // has retired, so the duplicate provably lands on a retired
      // generation (a cross-block consumer's block may still be live).
      for (core::ThreadId c : t.consumers) {
        if (program.thread(c).is_application() &&
            program.thread(c).block == t.block) {
          return true;
        }
      }
      return false;
    }
    case FaultInjection::Kind::kNone:
      break;
  }
  return false;
}

/// Fill `plan` from the user's request: resolve (or validate) the
/// victim and arm the one-shot injection.
void resolve_fault(const core::Program& program,
                   const FaultInjection& inject, FaultPlan& plan) {
  plan.kind = inject.kind;
  core::ThreadId victim = inject.victim;
  if (victim != core::kInvalidThread) {
    if (victim >= program.num_threads() ||
        !fault_victim_suitable(program, inject.kind, victim)) {
      throw core::TFluxError(
          "Runtime: thread " + std::to_string(victim) +
          " cannot carry fault '" + std::string(to_string(inject.kind)) +
          "'");
    }
  } else {
    for (core::ThreadId tid = 0; tid < program.num_threads(); ++tid) {
      if (fault_victim_suitable(program, inject.kind, tid)) {
        victim = tid;
        break;
      }
    }
    if (victim == core::kInvalidThread) {
      throw core::TFluxError(
          "Runtime: no DThread in program '" + program.name() +
          "' can carry fault '" + std::string(to_string(inject.kind)) +
          "'");
    }
  }
  plan.victim = victim;
  if (inject.kind == FaultInjection::Kind::kStaleGeneration) {
    for (core::ThreadId c : program.thread(victim).consumers) {
      if (program.thread(c).is_application() &&
          program.thread(c).block == program.thread(victim).block) {
        plan.consumer = c;
        break;
      }
    }
  }
  plan.armed.store(true, std::memory_order_release);
}

}  // namespace

Runtime::Runtime(const core::Program& program, RuntimeOptions options)
    : program_(program), options_(options) {
  if (options_.num_kernels == 0) {
    throw core::TFluxError("Runtime: num_kernels must be >= 1");
  }
  // Reject a TSU-group or shard count the kernels cannot hold now,
  // rather than at the first run().
  core::ShardMap::resolve(options_.num_kernels, options_.run.tsu_groups,
                          options_.run.shards);
}

RuntimeStats Runtime::run() {
  ++runs_;

  // The plan is resolved after the frame exists, so a rejected
  // injection unwinds through an armed TraceLog like any other error;
  // no actor reads it before the threads start.
  FaultPlan fault;
  const bool inject =
      options_.inject_fault.kind != FaultInjection::Kind::kNone;
  RunFrame frame(program_, options_, options_.guard, options_.trace,
                 inject ? &fault : nullptr);
  if (frame.trace_log() != nullptr && options_.trace_emergency) {
    // Abnormal teardown (exception unwinding through this frame, or
    // exit() mid-run): persist the record prefix as a trace marked
    // truncated. The header is captured by value; the callback lives
    // in options_, which outlives the TraceLog.
    core::ExecTrace header;
    frame.describe(header);
    header.truncated = true;
    frame.trace_log()->arm_emergency(
        [this, header](std::vector<core::TraceRecord>&& records) mutable {
          header.records = std::move(records);
          options_.trace_emergency(header);
        });
  }
  if (frame.guard() != nullptr && frame.trace_log() != nullptr) {
    // First violation => persist the in-flight trace prefix, so the
    // online finding and the offline replay triage the same run.
    frame.guard()->set_on_first_violation(
        [log = frame.trace_log()] { log->request_emergency_dump(); });
  }
  if (inject) {
    if (options_.guard.mode != core::GuardMode::kFull) {
      throw core::TFluxError(
          "Runtime: fault injection requires --guard=full (the guard "
          "must account every block to contain the injected fault)");
    }
    resolve_fault(program_, options_.inject_fault, fault);
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(frame.kernels().size() + frame.emulators().size());
  for (Kernel& k : frame.kernels()) {
    threads.emplace_back([&k] { k.run(); });
    if (options_.run.pin_threads) pin_to_cpu(threads.back(), k.id());
  }
  for (TsuEmulator& e : frame.emulators()) {
    threads.emplace_back([&e] { e.run(); });
    if (options_.run.pin_threads) {
      pin_to_cpu(threads.back(), options_.num_kernels + e.group());
    }
  }
  for (std::thread& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  frame.finish_trace();
  RuntimeStats stats =
      frame.stats(std::chrono::duration<double>(t1 - t0).count());
  stats.epoch = runs_;
  return stats;
}

}  // namespace tflux::runtime
