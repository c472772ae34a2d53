// One-kernel runs: the kernel drives its own TSU Emulator on one thread
// (Kernel::run_inline) - no emulator thread, no cross-thread TUB or
// mailbox handoff.
//
// What must hold:
//   - Every app, through Runtime at one kernel and through a width-1
//     Executor tenant, under the full online guard and a trace:
//     results validate, every DThread executes exactly once, the guard
//     stays clean, and the trace replays through ddmcheck with zero
//     findings and counters that reconcile with the run's own stats
//     (dispatches, completions, published updates, data plane).
//   - A one-kernel Runtime::run() runs on the caller's thread; a
//     width-1 tenant runs each instance on one worker.
//   - A run that cannot make progress throws instead of waiting on
//     itself, and a completion wider than the requested TUB still
//     publishes (the one-kernel TUB is sized to fit it).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/suite.h"
#include "core/builder.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "core/error.h"
#include "core/executor.h"
#include "runtime/executor.h"
#include "runtime/runtime.h"

namespace tflux {
namespace {

std::shared_ptr<apps::AppRun> make_app(apps::AppKind kind) {
  apps::DdmParams params;
  params.num_kernels = 1;
  params.unroll = 4;
  params.tsu_capacity = 64;  // several DDM Blocks: block chaining inline
  return std::make_shared<apps::AppRun>(apps::build_app(
      kind, apps::SizeClass::kSmall, apps::Platform::kNative, params));
}

core::GuardOptions full_guard() {
  core::GuardOptions guard;
  guard.mode = core::GuardMode::kFull;
  return guard;
}

/// Everything a clean one-kernel run of `app` must show in its stats
/// and in the trace it recorded.
void expect_clean_one_kernel_run(const apps::AppRun& app,
                                 const runtime::RuntimeStats& st,
                                 const core::ExecTrace& trace) {
  const core::Program& program = app.program;
  EXPECT_TRUE(app.validate());
  ASSERT_EQ(st.kernels.size(), 1u);
  ASSERT_EQ(st.emulators.size(), 1u);
  const runtime::KernelStats& k = st.kernels[0];

  // Exactly once: every DThread (Inlets and Outlets included) was
  // dispatched and executed once, and completed once in the trace.
  EXPECT_EQ(k.threads_executed, program.num_threads());
  EXPECT_EQ(k.app_threads_executed, program.num_app_threads());
  EXPECT_EQ(st.emulator.dispatches, program.num_threads());
  std::set<std::uint32_t> completed;
  std::uint64_t dispatches = 0;
  std::uint64_t updates = 0;
  for (const core::TraceRecord& r : trace.records) {
    switch (r.event) {
      case core::TraceEvent::kComplete:
        EXPECT_TRUE(completed.insert(r.a).second) << "thread " << r.a;
        break;
      case core::TraceEvent::kDispatch:
        ++dispatches;
        break;
      case core::TraceEvent::kUpdate:
        ++updates;
        break;
      case core::TraceEvent::kRangeUpdate:
        updates += r.c - r.b + 1;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(completed.size(), program.num_threads());
  EXPECT_EQ(dispatches, st.emulator.dispatches);
  EXPECT_EQ(updates, k.updates_published);

  EXPECT_TRUE(st.guard_violations.empty())
      << st.guard_violations.front().to_string(program);
  EXPECT_EQ(st.guard.violations, 0u);
  EXPECT_GT(st.guard.epoch_stamps, 0u);

  EXPECT_EQ(trace.kernels, 1u);
  EXPECT_EQ(trace.groups, 1u);
  const core::CheckReport report = core::check_trace(program, trace);
  EXPECT_TRUE(report.clean()) << report.to_string(program);
  EXPECT_EQ(report.records_checked, trace.records.size());
  ASSERT_TRUE(trace.dataplane);
  const core::DataPlaneTally& tally = report.dataplane;
  EXPECT_EQ(tally.forwards, k.forwards);
  EXPECT_EQ(tally.bytes_forwarded, k.bytes_forwarded);
  EXPECT_EQ(tally.affinity_hits, st.emulator.affinity_hits);
  EXPECT_EQ(tally.affinity_misses, st.emulator.affinity_misses);
  EXPECT_EQ(tally.affinity_cold, st.emulator.affinity_cold);
  EXPECT_EQ(tally.cross_shard_bytes, st.emulator.cross_shard_bytes);
}

class OneKernelAppTest : public ::testing::TestWithParam<apps::AppKind> {};

TEST_P(OneKernelAppTest, RuntimeRunIsCleanAndReplays) {
  const std::shared_ptr<apps::AppRun> app = make_app(GetParam());
  core::ExecTrace trace;
  runtime::RuntimeOptions options;
  options.num_kernels = 1;
  options.guard = full_guard();
  options.trace = &trace;
  runtime::Runtime rt(app->program, options);
  const runtime::RuntimeStats st = rt.run();
  expect_clean_one_kernel_run(*app, st, trace);
}

TEST_P(OneKernelAppTest, WidthOneTenantIsCleanAndReplays) {
  const std::shared_ptr<apps::AppRun> app = make_app(GetParam());
  core::ProgramRegistry registry;
  const core::ProgramHandle handle =
      registry.add(app->program, app, app->reset, app->name);
  runtime::ExecutorOptions options;
  options.pool_kernels = 1;
  options.partition_width = 1;
  runtime::Executor executor(registry, options);

  // Two requests: the second runs on the same resident worker after
  // the first, so a width-1 partition's one role is reused cleanly.
  for (int i = 0; i < 2; ++i) {
    core::ExecTrace trace;
    runtime::RunRequest request;
    request.handle = handle;
    request.guard = full_guard();
    request.trace = &trace;
    const runtime::RunResult r = executor.submit(request).get();
    EXPECT_TRUE(r.guard_clean);
    expect_clean_one_kernel_run(*app, r.stats, trace);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, OneKernelAppTest,
                         ::testing::ValuesIn(apps::all_apps()),
                         [](const auto& info) {
                           return std::string(apps::to_string(info.param));
                         });

/// A one-block program of `n` independent DThreads recording the thread
/// each body ran on.
core::Program make_recording_program(std::size_t n, std::mutex& mu,
                                     std::set<std::thread::id>& ran_on) {
  core::ProgramBuilder b("recording");
  const core::BlockId blk = b.add_block();
  for (std::size_t i = 0; i < n; ++i) {
    b.add_thread(blk, "t" + std::to_string(i),
                 [&mu, &ran_on](const core::ExecContext&) {
                   std::lock_guard<std::mutex> lock(mu);
                   ran_on.insert(std::this_thread::get_id());
                 });
  }
  return b.build(core::BuildOptions{.num_kernels = 1});
}

TEST(OneKernelThreadsTest, RuntimeRunsOnTheCallingThread) {
  std::mutex mu;
  std::set<std::thread::id> ran_on;
  const core::Program program = make_recording_program(16, mu, ran_on);
  const runtime::RuntimeStats st =
      runtime::Runtime(program, runtime::RuntimeOptions{.num_kernels = 1})
          .run();
  EXPECT_EQ(st.total_app_threads_executed(), 16u);
  EXPECT_EQ(ran_on, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(OneKernelThreadsTest, WidthOneTenantRunsOnOneWorker) {
  std::mutex mu;
  std::set<std::thread::id> ran_on;
  auto program = std::make_shared<core::Program>(
      make_recording_program(16, mu, ran_on));
  core::ProgramRegistry registry;
  const core::ProgramHandle handle =
      registry.add(*program, program, nullptr, "recording");
  runtime::ExecutorOptions options;
  options.pool_kernels = 1;
  options.partition_width = 1;
  runtime::Executor executor(registry, options);
  for (int i = 0; i < 3; ++i) {
    runtime::RunRequest request;
    request.handle = handle;
    EXPECT_EQ(executor.submit(request).get().stats.total_app_threads_executed(),
              16u);
  }
  ASSERT_EQ(ran_on.size(), 1u);
  EXPECT_NE(*ran_on.begin(), std::this_thread::get_id());
}

TEST(OneKernelStallTest, SameBlockCycleThrowsInsteadOfHanging) {
  // x and y wait on each other: nothing in the block ever becomes
  // ready. With nothing queued and the TUB drained, the kernel driving
  // its own emulator must report the stall, not spin or park forever.
  core::ProgramBuilder b("cycle");
  const core::BlockId blk = b.add_block();
  const core::ThreadId x = b.add_thread(blk, "x", {});
  const core::ThreadId y = b.add_thread(blk, "y", {});
  b.add_arc(x, y);
  b.add_arc(y, x);
  core::BuildOptions build;
  build.num_kernels = 1;
  build.validate = false;
  const core::Program program = b.build(build);
  ASSERT_EQ(program.thread(x).ready_count_init, 1u);
  ASSERT_EQ(program.thread(y).ready_count_init, 1u);

  runtime::Runtime rt(program, runtime::RuntimeOptions{.num_kernels = 1});
  try {
    (void)rt.run();
    FAIL() << "a cyclic one-kernel run returned";
  } catch (const core::TFluxError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot make progress"),
              std::string::npos)
        << e.what();
  }
}

TEST(OneKernelLaneTest, CompletionWiderThanTheLaneStillPublishes) {
  // p feeds eight non-adjacent consumers: eight unit records from one
  // completion, four times the requested lane (or twice the whole
  // two-segment mutex TUB). A one-kernel TUB is drained only between
  // DThreads, so the run sizes it to fit.
  core::ProgramBuilder b("fanout");
  const core::BlockId blk = b.add_block();
  const core::ThreadId p = b.add_thread(blk, "p", {});
  for (int i = 0; i < 8; ++i) {
    const core::ThreadId c = b.add_thread(blk, "c" + std::to_string(i), {});
    b.add_thread(blk, "gap" + std::to_string(i), {});
    b.add_arc(p, c);
  }
  const core::Program program =
      b.build(core::BuildOptions{.num_kernels = 1});
  ASSERT_EQ(program.thread(p).consumer_runs.size(), 8u);

  for (const bool lockfree : {true, false}) {
    runtime::RuntimeOptions options;
    options.num_kernels = 1;
    options.run.lockfree = lockfree;
    options.run.tub_lane_capacity = 2;
    options.tub_segments = 2;
    options.tub_segment_capacity = 2;
    const runtime::RuntimeStats st =
        runtime::Runtime(program, options).run();
    EXPECT_EQ(st.kernels[0].threads_executed, program.num_threads())
        << (lockfree ? "lockfree" : "mutex");
    EXPECT_EQ(st.tub.full_skips, 0u);
  }
}

}  // namespace
}  // namespace tflux
