// Resident multi-program executor tests (runtime/executor.h): one
// long-lived kernel pool serving many independent DDM programs.
//
// What must hold:
//   - Re-running one Runtime warm (the executor's per-partition shape)
//     is deterministic: same dispatch/execution counters every
//     iteration, results validating against the sequential reference,
//     stats.epoch counting iterations.
//   - Concurrent mixed-app admission: every program's results validate
//     and every per-instance guard stays clean while other tenants are
//     in flight.
//   - Per-instance trace scoping: a traced run's ddmtrace replays
//     standalone through the offline checker with EXACT counter
//     reconciliation (its records account for precisely its own
//     instance's dispatches/completions), even though other tenants
//     executed concurrently.
//   - Admission control: capacity errors at submit time, bounded-queue
//     load shedding via try_submit, tenant pinning.
//   - Teardown: the destructor drains in-flight work; futures obtained
//     before destruction are completed, never dangling.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "apps/suite.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "core/error.h"
#include "core/executor.h"
#include "runtime/executor.h"
#include "runtime/runtime.h"

namespace tflux {
namespace {

using runtime::Executor;
using runtime::ExecutorOptions;
using runtime::RunRequest;
using runtime::RunResult;

std::shared_ptr<apps::AppRun> make_app(apps::AppKind kind,
                                       std::uint16_t width) {
  apps::DdmParams params;
  params.num_kernels = width;
  params.unroll = 1;
  params.tsu_capacity = 64;
  return std::make_shared<apps::AppRun>(apps::build_app(
      kind, apps::SizeClass::kSmall, apps::Platform::kNative, params));
}

core::ProgramHandle register_app(core::ProgramRegistry& registry,
                                 const std::shared_ptr<apps::AppRun>& app) {
  return registry.add(app->program, app, app->reset, app->name);
}

RunRequest request_for(core::ProgramHandle handle) {
  RunRequest req;
  req.handle = handle;
  return req;
}

TEST(RuntimeRerun, BackToBackRunsAreDeterministic) {
  auto app = make_app(apps::AppKind::kQsort, 2);
  runtime::RuntimeOptions options;
  options.num_kernels = 2;
  runtime::Runtime rt(app->program, options);

  const runtime::RuntimeStats first = rt.run();
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_TRUE(app->validate());

  std::uint64_t executed_first = 0;
  for (const runtime::KernelStats& k : first.kernels) {
    executed_first += k.threads_executed;
  }

  for (std::uint64_t round = 2; round <= 3; ++round) {
    if (app->reset) app->reset();
    const runtime::RuntimeStats st = rt.run();
    EXPECT_EQ(st.epoch, round);
    EXPECT_TRUE(app->validate());
    // Warm re-runs replay the same graph: identical dispatch and
    // execution totals, not merely a passing validation.
    EXPECT_EQ(st.emulator.dispatches, first.emulator.dispatches);
    std::uint64_t executed = 0;
    for (const runtime::KernelStats& k : st.kernels) {
      executed += k.threads_executed;
    }
    EXPECT_EQ(executed, executed_first);
  }
}

TEST(ResidentExecutor, ConcurrentMixedAppsValidateUnderGuard) {
  core::ProgramRegistry registry;
  std::vector<std::shared_ptr<apps::AppRun>> apps;
  std::vector<core::ProgramHandle> handles;
  const apps::AppKind kinds[] = {apps::AppKind::kTrapez,
                                 apps::AppKind::kQsort, apps::AppKind::kFft};
  // Two slots per kind so per-handle serialization still leaves every
  // partition admissible.
  for (int copy = 0; copy < 2; ++copy) {
    for (apps::AppKind kind : kinds) {
      apps.push_back(make_app(kind, 1));
      handles.push_back(register_app(registry, apps.back()));
    }
  }

  ExecutorOptions options;
  options.pool_kernels = 4;
  options.partition_width = 1;
  Executor executor(registry, options);
  EXPECT_EQ(executor.num_tenants(), 4);

  std::vector<std::future<RunResult>> futures;
  for (int i = 0; i < 18; ++i) {
    RunRequest req;
    req.handle = handles[i % handles.size()];
    ASSERT_TRUE(core::parse_guard_spec("sampled:8", req.guard));
    futures.push_back(executor.submit(req));
  }
  for (auto& f : futures) {
    const RunResult result = f.get();
    EXPECT_TRUE(result.guard_clean);
    EXPECT_EQ(result.stats.guard.violations, 0u);
  }
  for (const auto& app : apps) EXPECT_TRUE(app->validate());

  const runtime::ExecutorStats st = executor.stats();
  EXPECT_EQ(st.submitted, 18u);
  EXPECT_EQ(st.completed, 18u);
  EXPECT_EQ(st.latency.count, 18u);
  std::uint64_t runs = 0;
  for (const core::TenantShare& s : st.tenants) runs += s.runs;
  EXPECT_EQ(runs, 18u);
}

TEST(ResidentExecutor, MidFlightTraceReplaysStandalone) {
  core::ProgramRegistry registry;
  auto qsort_app = make_app(apps::AppKind::kQsort, 1);
  auto fft_app = make_app(apps::AppKind::kFft, 1);
  const core::ProgramHandle hq = register_app(registry, qsort_app);
  const core::ProgramHandle hf = register_app(registry, fft_app);

  ExecutorOptions options;
  options.pool_kernels = 2;
  options.partition_width = 1;
  Executor executor(registry, options);

  core::ExecTrace trace;
  std::vector<std::future<RunResult>> futures;
  std::size_t traced_index = 0;
  for (int i = 0; i < 10; ++i) {
    RunRequest req;
    req.handle = (i % 2 == 0) ? hq : hf;
    if (i == 5) {
      req.trace = &trace;
      traced_index = futures.size();
    }
    futures.push_back(executor.submit(req));
  }
  std::vector<RunResult> results;
  for (auto& f : futures) results.push_back(f.get());

  // The traced instance (an fft run) replays standalone: the offline
  // checker sees a complete, self-consistent single-run trace even
  // though nine other instances ran around it.
  const core::CheckReport report =
      core::check_trace(fft_app->program, trace);
  EXPECT_TRUE(report.clean()) << report.to_string(fft_app->program);

  // Exact counter reconciliation: the trace accounts for precisely
  // this instance's work - nothing leaked in from other tenants,
  // nothing leaked out.
  std::uint64_t trace_dispatches = 0;
  std::uint64_t trace_completes = 0;
  for (const core::TraceRecord& r : trace.records) {
    if (r.event == core::TraceEvent::kDispatch) ++trace_dispatches;
    if (r.event == core::TraceEvent::kComplete) ++trace_completes;
  }
  const RunResult& traced = results[traced_index];
  std::uint64_t executed = 0;
  for (const runtime::KernelStats& k : traced.stats.kernels) {
    executed += k.threads_executed;
  }
  EXPECT_EQ(trace_dispatches, traced.stats.emulator.dispatches);
  EXPECT_EQ(trace_completes, executed);
  EXPECT_GT(trace_dispatches, 0u);
}

TEST(ResidentExecutor, TrySubmitShedsOnFullQueue) {
  core::ProgramRegistry registry;
  auto app = make_app(apps::AppKind::kTrapez, 1);
  const core::ProgramHandle handle = register_app(registry, app);

  ExecutorOptions options;
  options.pool_kernels = 1;
  options.partition_width = 1;
  options.queue_capacity = 1;
  options.stage_depth = 1;
  Executor executor(registry, options);

  // One registered program on one partition: the first request runs,
  // the second waits in the queue (its handle is busy), and further
  // requests find the bounded queue full until the first completes.
  std::vector<std::future<RunResult>> futures;
  std::size_t shed = 0;
  for (int i = 0; i < 8; ++i) {
    std::optional<std::future<RunResult>> f = executor.try_submit(request_for(handle));
    if (f.has_value()) {
      futures.push_back(std::move(*f));
    } else {
      ++shed;
    }
  }
  EXPECT_GT(shed, 0u);
  for (auto& f : futures) f.get();
  EXPECT_TRUE(app->validate());
  const runtime::ExecutorStats st = executor.stats();
  EXPECT_EQ(st.rejected, shed);
  EXPECT_EQ(st.completed, futures.size());
}

TEST(ResidentExecutor, AdmissionErrors) {
  core::ProgramRegistry registry;
  auto narrow = make_app(apps::AppKind::kQsort, 2);
  auto wide = make_app(apps::AppKind::kQsort, 4);
  const core::ProgramHandle hn = register_app(registry, narrow);
  const core::ProgramHandle hw = register_app(registry, wide);

  ExecutorOptions options;
  options.pool_kernels = 4;
  options.partition_width = 2;
  Executor executor(registry, options);

  // A program built for 4 kernels cannot run on a width-2 slice.
  EXPECT_THROW(executor.submit(request_for(hw)), core::TFluxError);
  // Unknown handle.
  RunRequest bad;
  bad.handle = 99;
  EXPECT_THROW(executor.submit(bad), core::TFluxError);
  // Tenant pin past the partition count.
  RunRequest pinned;
  pinned.handle = hn;
  pinned.tenant = 2;
  EXPECT_THROW(executor.submit(pinned), core::TFluxError);

  // A valid pin runs on exactly that partition.
  pinned.tenant = 1;
  const RunResult result = executor.submit(pinned).get();
  EXPECT_EQ(result.tenant, 1);
  EXPECT_TRUE(narrow->validate());

  // TSU geometry a width-2 partition cannot hold is rejected up front:
  // no TSU group, more groups than kernels, more shards than kernels.
  for (const auto& [groups, shards] :
       {std::pair<std::uint16_t, std::uint16_t>{0, 0}, {3, 0}, {1, 3}}) {
    ExecutorOptions geometry = options;
    geometry.run.tsu_groups = groups;
    geometry.run.shards = shards;
    EXPECT_THROW(Executor(registry, geometry), core::TFluxError)
        << groups << " groups, " << shards << " shards";
  }
}

TEST(ResidentExecutor, DestructorDrainsOutstandingWork) {
  core::ProgramRegistry registry;
  auto a = make_app(apps::AppKind::kQsort, 1);
  auto b = make_app(apps::AppKind::kFft, 1);
  const core::ProgramHandle ha = register_app(registry, a);
  const core::ProgramHandle hb = register_app(registry, b);

  std::vector<std::future<RunResult>> futures;
  {
    ExecutorOptions options;
    options.pool_kernels = 2;
    options.partition_width = 1;
    Executor executor(registry, options);
    for (int i = 0; i < 6; ++i) {
      futures.push_back(executor.submit(request_for(i % 2 == 0 ? ha : hb)));
    }
    // Destructor runs here with work still in flight: it must drain,
    // not abandon.
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(f.get().guard_clean);
  }
  EXPECT_TRUE(a->validate());
  EXPECT_TRUE(b->validate());
}

TEST(ResidentExecutor, StatsEpochReset) {
  core::ProgramRegistry registry;
  auto app = make_app(apps::AppKind::kFft, 1);
  const core::ProgramHandle handle = register_app(registry, app);

  ExecutorOptions options;
  options.pool_kernels = 2;
  options.partition_width = 1;
  Executor executor(registry, options);

  for (int i = 0; i < 3; ++i) executor.submit(request_for(handle)).get();
  runtime::ExecutorStats st = executor.stats();
  EXPECT_EQ(st.epoch, 1u);
  EXPECT_EQ(st.completed, 3u);

  executor.reset_stats_epoch();
  st = executor.stats();
  EXPECT_EQ(st.epoch, 2u);
  EXPECT_EQ(st.submitted, 0u);
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(st.latency.count, 0u);
  for (const core::TenantShare& s : st.tenants) EXPECT_EQ(s.runs, 0u);

  // The next round is accounted against the fresh epoch.
  executor.submit(request_for(handle)).get();
  st = executor.stats();
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.latency.count, 1u);
}

}  // namespace
}  // namespace tflux
