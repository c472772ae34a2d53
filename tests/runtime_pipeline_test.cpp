// Pipelined block transitions (shadow SM generation, flip at
// OutletDone, coordinator fast activation) under kHier, the
// backlog-adaptive dispatch policy (home while the mailbox is shallow,
// else the shallowest sibling kernel; the "Adaptive" test names refer
// to that): placement changes, the executed
// set must not - same app results, same thread counts, same updates -
// on every shipped application, at several kernel and TSU-group
// counts. Also covers the deferred-update replay path.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <tuple>

#include "apps/suite.h"
#include "core/builder.h"
#include "core/error.h"
#include "core/scheduler.h"
#include "runtime/emulator.h"
#include "runtime/mailbox.h"
#include "runtime/runtime.h"
#include "runtime/sync_memory.h"
#include "runtime/tub_group.h"

namespace tflux::runtime {
namespace {

using apps::AppKind;
using apps::AppRun;
using apps::DdmParams;
using apps::Platform;
using apps::SizeClass;

struct ModeResult {
  bool valid = false;
  std::uint64_t app_threads = 0;
  std::uint64_t threads_executed = 0;
  std::uint64_t blocks_loaded = 0;
  std::uint64_t updates_processed = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t prefetch_misses = 0;
};

ModeResult run_mode(AppKind kind, std::uint16_t kernels,
                    std::uint16_t groups, core::PolicyKind policy) {
  DdmParams params;
  params.num_kernels = kernels;
  params.unroll = 8;
  params.tsu_capacity = 64;  // force multi-block programs
  AppRun run =
      apps::build_app(kind, SizeClass::kSmall, Platform::kSimulated, params);
  RuntimeOptions options;
  options.num_kernels = kernels;
  options.run.policy = policy;
  options.run.tsu_groups = groups;
  const RuntimeStats st = Runtime(run.program, options).run();
  ModeResult r;
  r.valid = run.validate();
  r.app_threads = st.total_app_threads_executed();
  for (const KernelStats& k : st.kernels) {
    r.threads_executed += k.threads_executed;
  }
  r.blocks_loaded = st.emulator.blocks_loaded;
  r.updates_processed = st.emulator.updates_processed;
  r.prefetch_hits = st.emulator.prefetch_hits;
  r.prefetch_misses = st.emulator.prefetch_misses;
  return r;
}

using Config = std::tuple<AppKind, std::uint16_t, std::uint16_t>;

class BlockPipelineTest : public ::testing::TestWithParam<Config> {};

TEST_P(BlockPipelineTest, AdaptivePolicyMatchesLocalityAccounting) {
  const auto [kind, kernels, groups] = GetParam();
  if (groups > kernels) GTEST_SKIP() << "more groups than kernels";
  const ModeResult hier =
      run_mode(kind, kernels, groups, core::PolicyKind::kHier);
  const ModeResult locality =
      run_mode(kind, kernels, groups, core::PolicyKind::kLocality);
  EXPECT_TRUE(hier.valid) << "hier run produced wrong results";
  EXPECT_TRUE(locality.valid) << "locality run produced wrong results";
  EXPECT_EQ(hier.app_threads, locality.app_threads);
  EXPECT_EQ(hier.threads_executed, locality.threads_executed);
  EXPECT_EQ(hier.updates_processed, locality.updates_processed);
  EXPECT_EQ(hier.blocks_loaded, locality.blocks_loaded);
  // Every activation is either a prefetch hit or a miss.
  EXPECT_EQ(hier.prefetch_hits + hier.prefetch_misses,
            hier.blocks_loaded);
  EXPECT_EQ(locality.prefetch_hits + locality.prefetch_misses,
            locality.blocks_loaded);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, BlockPipelineTest,
    ::testing::Combine(::testing::ValuesIn(apps::all_apps()),
                       ::testing::Values<std::uint16_t>(1, 2, 4),
                       ::testing::Values<std::uint16_t>(1, 2)),
    [](const auto& info) {
      return std::string(apps::to_string(std::get<0>(info.param))) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_g" +
             std::to_string(std::get<2>(info.param));
    });

TEST(BlockPipelineAdaptiveTest, MatchesReferenceSchedulerThreadCount) {
  // The single-threaded oracle executes the same DThread set the
  // native runtime dispatches under kHier (where ReadySet, without a
  // shard map, degenerates to locality).
  DdmParams params;
  params.num_kernels = 4;
  params.unroll = 8;
  params.tsu_capacity = 64;
  AppRun run = apps::build_app(AppKind::kTrapez, SizeClass::kSmall,
                               Platform::kSimulated, params);
  core::ReferenceScheduler sched(run.program, 4, core::PolicyKind::kHier);
  const core::ScheduleResult oracle = sched.run();
  ASSERT_TRUE(run.validate());

  AppRun native = apps::build_app(AppKind::kTrapez, SizeClass::kSmall,
                                  Platform::kSimulated, params);
  RuntimeOptions options;
  options.num_kernels = 4;
  options.run.policy = core::PolicyKind::kHier;
  const RuntimeStats st = Runtime(native.program, options).run();
  EXPECT_TRUE(native.validate());
  std::uint64_t executed = 0;
  for (const KernelStats& k : st.kernels) executed += k.threads_executed;
  EXPECT_EQ(executed, oracle.records.size());
}

TEST(DeferredReplayTest, UpdateAheadOfActivationIsDeferredThenReplayed) {
  // Drive a non-coordinator TsuEmulator (group 1 of 2) directly. An
  // update for block 1 arriving before the group activated anything is
  // two blocks ahead of it (only block 0 is shadow-applicable), so it
  // must park in the deferred queue and replay exactly once at block
  // 1's activation - which finds block 0, not 1, staged in the shadow.
  core::ProgramBuilder b("deferred");
  const core::BlockId b0 = b.add_block();
  b.add_thread(b0, "p0", {}, {}, /*home=*/0);
  b.add_thread(b0, "p1", {}, {}, /*home=*/1);
  const core::BlockId b1 = b.add_block();
  const core::ThreadId y = b.add_thread(b1, "y", {}, {}, /*home=*/0);
  const core::ThreadId x = b.add_thread(b1, "x", {}, {}, /*home=*/1);
  b.add_arc(y, x);  // x has Ready Count 1
  const core::Program program = b.build(core::BuildOptions{.num_kernels = 2});

  const core::ShardMap map = core::ShardMap::interleaved(2, 2);
  SyncMemoryGroup sm(program, map);
  TubGroup tubs(program, sm,
                TubGroupOptions{.lockfree = true,
                                .num_lanes = 2,
                                .lane_capacity = 64});
  std::deque<Mailbox> mailboxes;
  mailboxes.emplace_back(true, 64);
  mailboxes.emplace_back(true, 64);
  ASSERT_EQ(tubs.group_of_thread(x), 1);  // x is homed on kernel 1

  // Same lane (hint 0) keeps the three commands FIFO: the update
  // arrives while the group's current block is still invalid.
  tubs.publish_update(x, /*hint=*/0);
  tubs.publish_load_block(b1, /*hint=*/0);
  tubs.broadcast_shutdown();

  TsuEmulator emu(program, tubs, sm, mailboxes,
                  TsuEmulator::Options{.group = 1});
  std::thread t([&emu] { emu.run(); });
  t.join();

  EXPECT_EQ(emu.stats().deferred_replays, 1u);
  EXPECT_EQ(emu.stats().blocks_loaded, 1u);
  EXPECT_EQ(emu.stats().prefetch_misses, 1u);
  EXPECT_EQ(emu.stats().updates_processed, 1u);
  // The replayed update zeroed x's Ready Count: x was dispatched to
  // its home mailbox, followed by the shutdown sentinel.
  EXPECT_EQ(mailboxes[1].take(), x);
  EXPECT_EQ(mailboxes[1].take(), core::kInvalidThread);
}

TEST(TsuEmulatorTest, GroupOutsideTheMapRejected) {
  core::ProgramBuilder b("groups");
  b.add_thread(b.add_block(), "t", {}, {}, /*home=*/0);
  const core::Program program = b.build(core::BuildOptions{.num_kernels = 2});
  const core::ShardMap map = core::ShardMap::interleaved(2, 2);
  SyncMemoryGroup sm(program, map);
  TubGroup tubs(program, sm, TubGroupOptions{.num_lanes = 2});
  std::deque<Mailbox> mailboxes;
  mailboxes.emplace_back(true, 64);
  mailboxes.emplace_back(true, 64);
  EXPECT_THROW(TsuEmulator(program, tubs, sm, mailboxes,
                           TsuEmulator::Options{.group = 2}),
               core::TFluxError);
}

TEST(DeferredReplayTest, AdaptiveMultiBlockRunsAccountDeferredReplays) {
  // The live deferred path: kHier routing across 2 TSU Groups over
  // a program with more than two DDM Blocks. Deferred replays are
  // schedule-dependent (usually zero with the shadow generation in
  // front), but whatever raced ahead must be replayed - never lost -
  // so the run processes exactly one update per declared arc and
  // produces correct results.
  DdmParams params;
  params.num_kernels = 4;
  params.unroll = 8;
  params.tsu_capacity = 64;
  AppRun probe = apps::build_app(AppKind::kTrapez, SizeClass::kSmall,
                                 Platform::kSimulated, params);
  ASSERT_GT(probe.program.num_blocks(), 2u);

  std::uint64_t arcs = 0;
  for (const core::DThread& t : probe.program.threads()) {
    if (t.is_application()) arcs += t.consumers.size();
  }
  const ModeResult run =
      run_mode(AppKind::kTrapez, 4, 2, core::PolicyKind::kHier);
  EXPECT_TRUE(run.valid);
  EXPECT_EQ(run.app_threads, probe.program.num_app_threads());
  EXPECT_EQ(run.updates_processed, arcs);
}

}  // namespace
}  // namespace tflux::runtime
