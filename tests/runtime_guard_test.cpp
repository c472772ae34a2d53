// ddmguard tests: the online protocol checker (core/guard.h) hooked
// into the native runtime (runtime/guard_hooks.h).
//
// Three layers:
//   1. Guard unit tests - drive the hooks by hand against a small
//      Program and assert each invariant trips with the right
//      FindingCode (and that clean sequences do not).
//   2. Clean integration - real benchmarks under every guard mode must
//      report zero violations, and the guard must not perturb the
//      run: executed/dispatch/update counts match a guard-off run.
//   3. Fault injection - RuntimeOptions::inject_fault seeds one
//      protocol violation per run; the guard must catch it online
//      with the expected code, AND replaying the same run's trace
//      through the offline checker (core/check.h) must yield the same
//      code - the online/offline parity the shared findings.h enum
//      promises.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/suite.h"
#include "core/builder.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "core/error.h"
#include "core/guard.h"
#include "core/program.h"
#include "runtime/guard_hooks.h"
#include "runtime/runtime.h"

namespace tflux {
namespace {

using core::FindingCode;
using core::Guard;
using core::GuardMode;
using core::GuardOptions;

// A fault-friendly synthetic program. Per block:
//
//     a (rc 0) ---> m (rc 1) ---> c (rc 1)
//      \                           /
//       +---------> v (rc 2) <----+          v is the block's sink
//
// The chain a -> m -> c forces v's second update to trail the first by
// two emulator round-trips, which pins the offline ticket order of a
// lost-update injection: the injected Dispatch ticket is always drawn
// before c's Update ticket, so the premature dispatch is visible in
// the trace no matter how kernels interleave.
core::Program make_guard_program(int blocks, std::uint16_t kernels) {
  core::ProgramBuilder builder("guardprog");
  for (int i = 0; i < blocks; ++i) {
    const core::BlockId blk = builder.add_block();
    const std::string s = std::to_string(i);
    const core::ThreadId a = builder.add_thread(blk, "a" + s, {});
    const core::ThreadId m = builder.add_thread(blk, "m" + s, {});
    const core::ThreadId c = builder.add_thread(blk, "c" + s, {});
    const core::ThreadId v = builder.add_thread(blk, "v" + s, {});
    builder.add_arc(a, m);
    builder.add_arc(m, c);
    builder.add_arc(a, v);
    builder.add_arc(c, v);
  }
  core::BuildOptions options;
  options.num_kernels = kernels;
  return builder.build(options);
}

bool has_code(const std::vector<core::GuardViolation>& violations,
              FindingCode code) {
  return std::any_of(violations.begin(), violations.end(),
                     [code](const core::GuardViolation& v) {
                       return v.code == code;
                     });
}

bool has_code(const core::CheckReport& report, FindingCode code) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [code](const core::CheckFinding& f) {
                       return f.code == code;
                     });
}

// --- layer 1: hook-level unit tests ---------------------------------

class GuardUnitTest : public ::testing::Test {
 protected:
  GuardUnitTest()
      : program_(make_guard_program(/*blocks=*/3, /*kernels=*/1)),
        guard_(program_, GuardOptions{GuardMode::kFull, 1},
               /*num_kernels=*/1, /*num_groups=*/1) {}

  // Block 0's instances (make_guard_program layout, +2 for the
  // block's Inlet and Outlet materialized after the app threads).
  core::Program program_;
  Guard guard_;
  static constexpr core::ThreadId kA = 0, kM = 1, kC = 2, kV = 3;
};

TEST_F(GuardUnitTest, CleanLifecycleTripsNothing) {
  guard_.on_activate(0, 0, 0);
  guard_.on_dispatch(kA, guard_.sampled(0), 0);
  guard_.on_execute(kA, 0);
  guard_.on_publish(kA, kM, 0);
  EXPECT_TRUE(guard_.on_update_applied(kM, 0));
  guard_.on_dispatch(kM, guard_.sampled(0), 0);
  guard_.on_execute(kM, 0);
  EXPECT_FALSE(guard_.tripped());
  EXPECT_EQ(guard_.epoch_state(kM), Guard::kExecuted);
  EXPECT_EQ(guard_.updates_seen(kM), 1u);
  EXPECT_GT(guard_.stats().checks, 0u);
  EXPECT_GT(guard_.stats().epoch_stamps, 0u);
}

TEST_F(GuardUnitTest, SurplusUpdateTripsAndSuppressesDecrement) {
  EXPECT_TRUE(guard_.on_update_applied(kM, 0));   // rc_init == 1
  EXPECT_FALSE(guard_.on_update_applied(kM, 0));  // would go negative
  ASSERT_TRUE(guard_.tripped());
  const std::vector<core::GuardViolation> vs = guard_.violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].code, FindingCode::kNegativeReadyCount);
  EXPECT_EQ(vs[0].thread, kM);
  EXPECT_EQ(vs[0].block, 0u);
  EXPECT_NE(vs[0].message.find("Ready Count"), std::string::npos);
}

TEST_F(GuardUnitTest, DoubleDispatchTrips) {
  guard_.on_dispatch(kA, /*deep=*/false, 0);
  guard_.on_dispatch(kA, /*deep=*/false, 0);
  ASSERT_TRUE(guard_.tripped());
  EXPECT_TRUE(has_code(guard_.violations(), FindingCode::kDoubleDispatch));
}

TEST_F(GuardUnitTest, PrematureDeepDispatchTrips) {
  EXPECT_TRUE(guard_.on_update_applied(kV, 0));  // 1 of 2 updates
  guard_.on_dispatch(kV, /*deep=*/true, 0);
  ASSERT_TRUE(guard_.tripped());
  EXPECT_TRUE(
      has_code(guard_.violations(), FindingCode::kPrematureDispatch));
}

TEST_F(GuardUnitTest, ExecutionWithoutDispatchTrips) {
  guard_.on_execute(kA, 0);
  EXPECT_TRUE(has_code(guard_.violations(),
                       FindingCode::kExecutionWithoutDispatch));
}

TEST_F(GuardUnitTest, DoubleExecutionTrips) {
  guard_.on_dispatch(kA, /*deep=*/false, 0);
  guard_.on_execute(kA, 0);
  guard_.on_execute(kA, 0);
  EXPECT_TRUE(has_code(guard_.violations(), FindingCode::kDoubleExecution));
}

TEST_F(GuardUnitTest, PublishToRetiredBlockTrips) {
  guard_.on_activate(0, 0, 0);
  guard_.on_publish(kA, kM, 0);  // active: fine
  EXPECT_FALSE(guard_.tripped());
  guard_.on_retire(0, 0);  // sweep also trips missing-execution...
  guard_.on_publish(kA, kM, 0);
  EXPECT_TRUE(has_code(guard_.violations(), FindingCode::kBlockLifecycle));
}

TEST_F(GuardUnitTest, NonAscendingActivationTrips) {
  guard_.on_activate(1, 0, 0);
  guard_.on_activate(0, 0, 0);  // descends: stale re-activation
  EXPECT_TRUE(has_code(guard_.violations(), FindingCode::kBlockLifecycle));
}

TEST_F(GuardUnitTest, RetireSweepFlagsMissingExecutions) {
  guard_.on_activate(0, 0, 0);
  // Only kA ran; kM was dispatched but never completed, kC and kV
  // were never dispatched at all.
  guard_.on_dispatch(kA, /*deep=*/true, 0);
  guard_.on_execute(kA, 0);
  guard_.on_dispatch(kM, /*deep=*/false, 0);
  guard_.on_retire(0, 0);
  const std::vector<core::GuardViolation> vs = guard_.violations();
  EXPECT_TRUE(has_code(vs, FindingCode::kMissingExecution));
  std::size_t missing = 0;
  for (const core::GuardViolation& v : vs) {
    if (v.code == FindingCode::kMissingExecution) ++missing;
  }
  EXPECT_EQ(missing, 3u);  // kM, kC, kV
}

TEST_F(GuardUnitTest, StaleApplyTrips) {
  guard_.on_stale_apply(kM, kA, 0, 0);
  const std::vector<core::GuardViolation> vs = guard_.violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].code, FindingCode::kBlockLifecycle);
  EXPECT_EQ(vs[0].thread, kM);
  EXPECT_EQ(vs[0].other, kA);
}

TEST_F(GuardUnitTest, RepeatTripsDeduplicateButCount) {
  EXPECT_TRUE(guard_.on_update_applied(kM, 0));
  EXPECT_FALSE(guard_.on_update_applied(kM, 0));
  EXPECT_FALSE(guard_.on_update_applied(kM, 0));
  EXPECT_EQ(guard_.violations().size(), 1u);  // deduped (code,thread,block)
  EXPECT_EQ(guard_.stats().violations, 2u);   // raw trip count
}

TEST_F(GuardUnitTest, FirstViolationCallbackFiresOnce) {
  int calls = 0;
  guard_.set_on_first_violation([&calls] { ++calls; });
  guard_.on_execute(kA, 0);  // execution-without-dispatch
  guard_.on_execute(kA, 0);  // double-execution
  EXPECT_EQ(calls, 1);
}

TEST(GuardSamplingTest, SamplePeriodGatesDeepChecks) {
  const core::Program program = make_guard_program(4, 1);
  Guard guard(program, GuardOptions{GuardMode::kSampled, 2}, 1, 1);
  EXPECT_TRUE(guard.sampled(0));
  EXPECT_FALSE(guard.sampled(1));
  EXPECT_TRUE(guard.sampled(2));
  EXPECT_FALSE(guard.sampled(3));
  // Unsampled block: the publish probe and retire sweep are skipped,
  // so a stale publish against block 1 goes unseen by design.
  guard.on_activate(1, 0, 0);
  guard.on_retire(1, 0);
  guard.on_publish(0, 5, 0);  // consumer m1 lives in retired block 1
  EXPECT_FALSE(guard.tripped());

  Guard full(program, GuardOptions{GuardMode::kFull, 8}, 1, 1);
  EXPECT_TRUE(full.sampled(1));
  EXPECT_TRUE(full.sampled(7));
}

TEST(GuardSpecTest, ParsesModesAndPeriods) {
  GuardOptions options;
  EXPECT_TRUE(core::parse_guard_spec("off", options));
  EXPECT_EQ(options.mode, GuardMode::kOff);
  EXPECT_TRUE(core::parse_guard_spec("full", options));
  EXPECT_EQ(options.mode, GuardMode::kFull);
  EXPECT_TRUE(core::parse_guard_spec("sampled", options));
  EXPECT_EQ(options.mode, GuardMode::kSampled);
  EXPECT_EQ(options.sample_period, 8u);
  EXPECT_TRUE(core::parse_guard_spec("sampled:3", options));
  EXPECT_EQ(options.sample_period, 3u);
  EXPECT_FALSE(core::parse_guard_spec("sampled:", options));
  EXPECT_FALSE(core::parse_guard_spec("sampled:0", options));
  EXPECT_FALSE(core::parse_guard_spec("sampled:8x", options));
  EXPECT_FALSE(core::parse_guard_spec("always", options));
  EXPECT_FALSE(core::parse_guard_spec("", options));
}

// --- layer 2: clean integration -------------------------------------

struct CleanConfig {
  apps::AppKind app;
  GuardMode mode;
  std::uint32_t period;
  std::uint16_t groups;
};

class GuardCleanRunTest : public ::testing::TestWithParam<CleanConfig> {};

TEST_P(GuardCleanRunTest, RealAppRunsReportNoViolations) {
  const CleanConfig& cfg = GetParam();
  apps::DdmParams params;
  params.num_kernels = 4;
  params.unroll = 8;
  params.tsu_capacity = 64;  // force several DDM Blocks
  apps::AppRun run = apps::build_app(cfg.app, apps::SizeClass::kSmall,
                                     apps::Platform::kNative, params);
  runtime::RuntimeOptions options;
  options.num_kernels = params.num_kernels;
  options.run.tsu_groups = cfg.groups;
  options.guard.mode = cfg.mode;
  options.guard.sample_period = cfg.period;
  runtime::Runtime rt(run.program, options);
  const runtime::RuntimeStats st = rt.run();

  EXPECT_TRUE(run.validate());
  EXPECT_EQ(st.guard.violations, 0u)
      << st.guard_violations.front().to_string(run.program);
  EXPECT_TRUE(st.guard_violations.empty());
  EXPECT_GT(st.guard.checks, 0u);
  EXPECT_GT(st.guard.epoch_stamps, 0u);
  if (cfg.mode == GuardMode::kFull) {
    EXPECT_EQ(st.guard.sampled_blocks, run.program.num_blocks());
  } else {
    EXPECT_LE(st.guard.sampled_blocks, run.program.num_blocks());
    EXPECT_GT(st.guard.sampled_blocks, 0u);  // block 0 always sampled
  }
}

INSTANTIATE_TEST_SUITE_P(
    Soft, GuardCleanRunTest,
    ::testing::Values(
        CleanConfig{apps::AppKind::kTrapez, GuardMode::kFull, 8, 1},
        CleanConfig{apps::AppKind::kTrapez, GuardMode::kSampled, 4, 2},
        CleanConfig{apps::AppKind::kMmult, GuardMode::kFull, 8, 2},
        CleanConfig{apps::AppKind::kQsort, GuardMode::kSampled, 2, 1},
        CleanConfig{apps::AppKind::kFft, GuardMode::kFull, 8, 1}),
    [](const ::testing::TestParamInfo<CleanConfig>& info) {
      std::string name = apps::to_string(info.param.app);
      name += info.param.mode == GuardMode::kFull ? "Full" : "Sampled";
      name += "G" + std::to_string(info.param.groups);
      return name;
    });

TEST(GuardNeutralityTest, GuardDoesNotPerturbTheRun) {
  // --guard=off must be behavior-neutral, and enabling the guard must
  // observe the run, not steer it: every mode executes the same
  // DThreads through the same number of dispatches and updates.
  const core::Program program = make_guard_program(/*blocks=*/6,
                                                   /*kernels=*/2);
  std::vector<runtime::RuntimeStats> stats;
  const GuardOptions modes[] = {
      {GuardMode::kOff, 8},
      {GuardMode::kSampled, 2},
      {GuardMode::kFull, 8},
  };
  for (const GuardOptions& guard : modes) {
    runtime::RuntimeOptions options;
    options.num_kernels = 2;
    options.guard = guard;
    runtime::Runtime rt(program, options);
    stats.push_back(rt.run());
  }
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].guard.checks, 0u);  // off: no guard existed
  EXPECT_EQ(stats[0].guard.epoch_stamps, 0u);
  for (const runtime::RuntimeStats& st : stats) {
    EXPECT_EQ(st.total_app_threads_executed(),
              stats[0].total_app_threads_executed());
    EXPECT_EQ(st.emulator.dispatches, stats[0].emulator.dispatches);
    EXPECT_EQ(st.emulator.updates_processed,
              stats[0].emulator.updates_processed);
    EXPECT_EQ(st.guard.violations, 0u);
  }
}

// --- layer 3: fault injection + online/offline parity ---------------

struct FaultConfig {
  runtime::FaultInjection::Kind kind;
  FindingCode expected;
  const char* name;
};

class GuardFaultTest : public ::testing::TestWithParam<FaultConfig> {};

TEST_P(GuardFaultTest, FaultIsCaughtOnlineAndOfflineWithSameCode) {
  const FaultConfig& cfg = GetParam();
  // One kernel: every publish shares kernel 0's FIFO TUB lane, so the
  // emulator applies a DThread's updates in publish order and the
  // injected event's trace ticket lands deterministically - the
  // offline replay must reach the same verdict on every run.
  const core::Program program = make_guard_program(/*blocks=*/2,
                                                   /*kernels=*/1);
  core::ExecTrace trace;
  runtime::RuntimeOptions options;
  options.num_kernels = 1;
  options.trace = &trace;
  options.guard.mode = GuardMode::kFull;
  options.inject_fault.kind = cfg.kind;
  runtime::Runtime rt(program, options);
  const runtime::RuntimeStats st = rt.run();

  // Online: the guard tripped with the expected code and a diagnosis
  // that names the instance, block and generation.
  EXPECT_GT(st.guard.violations, 0u);
  ASSERT_FALSE(st.guard_violations.empty());
  EXPECT_TRUE(has_code(st.guard_violations, cfg.expected))
      << "guard reported: "
      << st.guard_violations.front().to_string(program);
  for (const core::GuardViolation& v : st.guard_violations) {
    if (v.code != cfg.expected) continue;
    EXPECT_LT(v.block, program.num_blocks());
    EXPECT_FALSE(v.message.empty());
    const std::string line = v.to_string(program);
    EXPECT_NE(line.find("block"), std::string::npos);
    EXPECT_NE(line.find("gen"), std::string::npos);
    break;
  }

  // Offline parity: replaying the very trace this run recorded must
  // yield the same finding code.
  const core::CheckReport report = core::check_trace(program, trace);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_code(report, cfg.expected))
      << "offline findings:\n" << report.to_string(program);
}

INSTANTIATE_TEST_SUITE_P(
    Soft, GuardFaultTest,
    ::testing::Values(
        FaultConfig{runtime::FaultInjection::Kind::kDoublePublish,
                    FindingCode::kNegativeReadyCount, "DoublePublish"},
        FaultConfig{runtime::FaultInjection::Kind::kLostUpdate,
                    FindingCode::kPrematureDispatch, "LostUpdate"},
        FaultConfig{runtime::FaultInjection::Kind::kStaleGeneration,
                    FindingCode::kBlockLifecycle, "StaleGeneration"}),
    [](const ::testing::TestParamInfo<FaultConfig>& info) {
      return std::string(info.param.name);
    });

TEST(GuardFaultValidationTest, InjectionRequiresFullGuard) {
  const core::Program program = make_guard_program(2, 1);
  runtime::RuntimeOptions options;
  options.num_kernels = 1;
  options.inject_fault.kind =
      runtime::FaultInjection::Kind::kDoublePublish;
  {
    runtime::Runtime rt(program, options);  // guard off
    EXPECT_THROW((void)rt.run(), core::TFluxError);
  }
  options.guard.mode = GuardMode::kSampled;
  {
    runtime::Runtime rt(program, options);  // sampled is not enough
    EXPECT_THROW((void)rt.run(), core::TFluxError);
  }
}

TEST(GuardFaultValidationTest, UnsuitableVictimIsRejected) {
  const core::Program program = make_guard_program(2, 1);
  runtime::RuntimeOptions options;
  options.num_kernels = 1;
  options.guard.mode = GuardMode::kFull;
  options.inject_fault.kind = runtime::FaultInjection::Kind::kLostUpdate;
  options.inject_fault.victim = 0;  // 'a0' has rc 0: nothing to lose
  runtime::Runtime rt(program, options);
  EXPECT_THROW((void)rt.run(), core::TFluxError);
}

TEST(GuardEmergencyTest, GuardTripDumpsTheTracePrefix) {
  // A guard trip must persist the in-flight trace prefix through the
  // PR 5 emergency machinery - marked truncated, so tflux_check says
  // "truncated trace" instead of inventing lifecycle findings.
  const core::Program program = make_guard_program(2, 2);
  core::ExecTrace trace;
  core::ExecTrace dumped;
  bool dump_called = false;
  runtime::RuntimeOptions options;
  options.num_kernels = 2;
  options.trace = &trace;
  options.trace_emergency = [&](core::ExecTrace& partial) {
    dump_called = true;
    dumped = partial;
  };
  options.guard.mode = GuardMode::kFull;
  options.inject_fault.kind =
      runtime::FaultInjection::Kind::kDoublePublish;
  runtime::Runtime rt(program, options);
  const runtime::RuntimeStats st = rt.run();

  EXPECT_GT(st.guard.violations, 0u);
  ASSERT_TRUE(dump_called);
  EXPECT_TRUE(dumped.truncated);
  EXPECT_EQ(dumped.program, program.name());
  const core::CheckReport report = core::check_trace(program, dumped);
  EXPECT_TRUE(has_code(report, FindingCode::kTruncatedTrace))
      << report.to_string(program);
}

}  // namespace
}  // namespace tflux
