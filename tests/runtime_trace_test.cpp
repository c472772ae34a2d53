// Live tracing tests: run real benchmarks on TFluxSoft with
// RuntimeOptions::trace set, reconcile the record counts against the
// runtime's own statistics, and feed every trace through the ddmcheck
// verifier (which must come back clean - the runtime is the reference
// implementation of its own protocol).
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "apps/suite.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "runtime/runtime.h"
#include "runtime/trace_log.h"

namespace tflux {
namespace {

std::uint64_t count(const core::ExecTrace& trace, core::TraceEvent event) {
  std::uint64_t n = 0;
  for (const core::TraceRecord& r : trace.records) {
    if (r.event == event) ++n;
  }
  return n;
}

struct Config {
  apps::AppKind app;
  core::PolicyKind policy;
  std::uint16_t groups;
};

class RuntimeTraceTest : public ::testing::TestWithParam<Config> {};

TEST_P(RuntimeTraceTest, TraceReconcilesWithStatsAndChecksClean) {
  const Config& cfg = GetParam();
  apps::DdmParams params;
  params.num_kernels = 4;
  params.unroll = 8;
  params.tsu_capacity = 64;  // force several DDM Blocks
  apps::AppRun run = apps::build_app(cfg.app, apps::SizeClass::kSmall,
                                     apps::Platform::kNative, params);

  core::ExecTrace trace;
  runtime::RuntimeOptions options;
  options.num_kernels = params.num_kernels;
  options.run.policy = cfg.policy;
  options.run.tsu_groups = cfg.groups;
  options.trace = &trace;
  runtime::Runtime rt(run.program, options);
  const runtime::RuntimeStats stats = rt.run();

  EXPECT_TRUE(run.validate());
  EXPECT_EQ(trace.kernels, params.num_kernels);
  EXPECT_EQ(trace.groups, cfg.groups);

  // Every dispatch, execution and update the runtime counted must have
  // left exactly one record (and vice versa).
  std::uint64_t executed = 0;
  std::uint64_t updates = 0;
  for (const runtime::KernelStats& k : stats.kernels) {
    executed += k.threads_executed;
    updates += k.updates_published;
  }
  EXPECT_EQ(count(trace, core::TraceEvent::kComplete), executed);
  EXPECT_EQ(count(trace, core::TraceEvent::kDispatch),
            stats.emulator.dispatches);
  // Coalesced publishing records one range-update per consecutive
  // consumer run; each covers hi - lo + 1 of the published updates.
  std::uint64_t traced_updates = count(trace, core::TraceEvent::kUpdate);
  for (const core::TraceRecord& r : trace.records) {
    if (r.event == core::TraceEvent::kRangeUpdate) {
      traced_updates += r.c - r.b + 1;
    }
  }
  EXPECT_EQ(traced_updates, updates);
  EXPECT_EQ(count(trace, core::TraceEvent::kOutletDone),
            run.program.num_blocks());

  const core::CheckReport report = check_trace(run.program, trace);
  EXPECT_TRUE(report.clean()) << report.to_string(run.program);
  EXPECT_EQ(report.records_checked, trace.records.size());
}

INSTANTIATE_TEST_SUITE_P(
    Soft, RuntimeTraceTest,
    ::testing::Values(
        Config{apps::AppKind::kTrapez, core::PolicyKind::kLocality, 1},
        Config{apps::AppKind::kTrapez, core::PolicyKind::kAdaptive, 2},
        Config{apps::AppKind::kMmult, core::PolicyKind::kLocality, 2},
        Config{apps::AppKind::kQsort, core::PolicyKind::kAdaptive, 1},
        Config{apps::AppKind::kFft, core::PolicyKind::kLocality, 1}),
    [](const ::testing::TestParamInfo<Config>& info) {
      std::string name = apps::to_string(info.param.app);
      name += core::to_string(info.param.policy);
      name += "G" + std::to_string(info.param.groups);
      return name;
    });

TEST(RuntimeTraceOffTest, NullTraceLeavesNoTrace) {
  apps::DdmParams params;
  params.num_kernels = 2;
  params.unroll = 8;
  apps::AppRun run = apps::build_app(apps::AppKind::kTrapez,
                                     apps::SizeClass::kSmall,
                                     apps::Platform::kNative, params);
  runtime::RuntimeOptions options;
  options.num_kernels = 2;
  runtime::Runtime rt(run.program, options);
  (void)rt.run();
  EXPECT_TRUE(run.validate());
}

TEST(TraceLogEmergencyTest, DestructionWithoutFinishFlushesToWriter) {
  std::vector<core::TraceRecord> flushed;
  bool called = false;
  {
    runtime::TraceLog log(/*num_kernels=*/1, /*num_groups=*/1);
    log.arm_emergency([&](std::vector<core::TraceRecord>&& records) {
      called = true;
      flushed = std::move(records);
    });
    log.record(0, core::TraceEvent::kDispatch, 3, 0);
    log.record(0, core::TraceEvent::kComplete, 3, 0);
    // No finish(): simulates an exception unwinding through run().
  }
  ASSERT_TRUE(called);
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].event, core::TraceEvent::kDispatch);
  EXPECT_EQ(flushed[1].event, core::TraceEvent::kComplete);
  EXPECT_LT(flushed[0].seq, flushed[1].seq);
}

TEST(TraceLogEmergencyTest, FinishDisarmsTheEmergencyWriter) {
  bool called = false;
  {
    runtime::TraceLog log(/*num_kernels=*/1, /*num_groups=*/1);
    log.arm_emergency(
        [&](std::vector<core::TraceRecord>&&) { called = true; });
    log.record(0, core::TraceEvent::kDispatch, 3, 0);
    (void)log.finish();
  }
  EXPECT_FALSE(called);
}

TEST(TraceLogEmergencyTest, EmergencyFlushIsIdempotent) {
  int calls = 0;
  runtime::TraceLog log(/*num_kernels=*/1, /*num_groups=*/1);
  log.arm_emergency([&](std::vector<core::TraceRecord>&&) { ++calls; });
  log.record(0, core::TraceEvent::kDispatch, 3, 0);
  log.emergency_flush();
  log.emergency_flush();
  EXPECT_EQ(calls, 1);
}

TEST(RuntimeTraceMutexTest, MutexStructuresTraceChecksClean) {
  apps::DdmParams params;
  params.num_kernels = 2;
  params.unroll = 8;
  params.tsu_capacity = 64;
  apps::AppRun run = apps::build_app(apps::AppKind::kTrapez,
                                     apps::SizeClass::kSmall,
                                     apps::Platform::kNative, params);
  core::ExecTrace trace;
  runtime::RuntimeOptions options;
  options.num_kernels = 2;
  options.run.lockfree = false;
  options.trace = &trace;
  runtime::Runtime rt(run.program, options);
  (void)rt.run();
  EXPECT_TRUE(run.validate());
  EXPECT_TRUE(trace.pipelined);
  EXPECT_FALSE(trace.lockfree);
  const core::CheckReport report = check_trace(run.program, trace);
  EXPECT_TRUE(report.clean()) << report.to_string(run.program);
}

}  // namespace
}  // namespace tflux
