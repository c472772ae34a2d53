// Coalesced range updates: the range primitives must respect partition
// and generation boundaries, and a wide fan-out must flow as range
// records end to end - one decrement per declared arc, fewer TUB
// entries than arcs, and a trace that verifies clean.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/builder.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "runtime/runtime.h"
#include "runtime/sync_memory.h"

namespace tflux {
namespace {

void noop(const core::ExecContext&) {}

/// Make `block` current for `group`'s partition: stage it in the
/// shadow generation and flip.
void activate(runtime::SyncMemoryGroup& sm, core::BlockId block,
              std::uint16_t group) {
  sm.preload_shadow(block, group);
  sm.promote_shadow(group);
}

// --- SyncMemoryGroup range primitives ---------------------------------

TEST(SyncMemoryRangeTest, RangeSweepsOnlyTheOwnedPartition) {
  core::ProgramBuilder b("part");
  const core::BlockId blk = b.add_block();
  const core::ThreadId p = b.add_thread(blk, "p", noop, {}, 0);
  std::vector<core::ThreadId> consumers;
  for (int i = 0; i < 6; ++i) {
    // Alternate home kernels so the range straddles both partitions.
    consumers.push_back(b.add_thread(blk, "c", noop, {},
                                     static_cast<core::KernelId>(i % 2)));
  }
  b.add_arc_range(p, consumers.front(), consumers.back());
  const core::Program program =
      b.build(core::BuildOptions{.num_kernels = 2});

  const core::ShardMap map = core::ShardMap::interleaved(2, 2);
  runtime::SyncMemoryGroup sm(program, map);
  activate(sm, blk, /*group=*/0);
  activate(sm, blk, /*group=*/1);

  std::vector<core::ThreadId> zeroed;
  const std::size_t n0 = sm.decrement_range(consumers.front(),
                                            consumers.back(), /*group=*/0,
                                            zeroed);
  // Group 0 owns kernel 0: consumers 0, 2, 4 of the run.
  EXPECT_EQ(n0, 3u);
  EXPECT_EQ(zeroed, (std::vector<core::ThreadId>{
                        consumers[0], consumers[2], consumers[4]}));
  // The other partition's counts are untouched.
  EXPECT_EQ(sm.count(consumers[1]), 1u);
  EXPECT_EQ(sm.count(consumers[3]), 1u);

  zeroed.clear();
  const std::size_t n1 = sm.decrement_range(consumers.front(),
                                            consumers.back(), /*group=*/1,
                                            zeroed);
  EXPECT_EQ(n1, 3u);
  EXPECT_EQ(n0 + n1, consumers.size());
  for (core::ThreadId c : consumers) EXPECT_EQ(sm.count(c), 0u);
}

TEST(SyncMemoryRangeTest, SubrangeLeavesNeighborsUntouched) {
  core::ProgramBuilder b("sub");
  const core::BlockId blk = b.add_block();
  const core::ThreadId p = b.add_thread(blk, "p", noop, {}, 0);
  std::vector<core::ThreadId> consumers;
  for (int i = 0; i < 5; ++i) {
    consumers.push_back(b.add_thread(blk, "c", noop, {}, 0));
  }
  b.add_arc_range(p, consumers.front(), consumers.back());
  const core::Program program =
      b.build(core::BuildOptions{.num_kernels = 1});

  const core::ShardMap map = core::ShardMap::interleaved(1, 1);
  runtime::SyncMemoryGroup sm(program, map);
  activate(sm, blk, 0);
  std::vector<core::ThreadId> zeroed;
  EXPECT_EQ(sm.decrement_range(consumers[1], consumers[3], 0, zeroed),
            3u);
  EXPECT_EQ(sm.count(consumers[0]), 1u);
  EXPECT_EQ(sm.count(consumers[2]), 0u);
  EXPECT_EQ(sm.count(consumers[4]), 1u);
}

TEST(SyncMemoryRangeTest, ShadowRangeStaysInShadowUntilPromoted) {
  core::ProgramBuilder b("shadow");
  const core::BlockId b0 = b.add_block();
  b.add_thread(b0, "t", noop, {}, 0);
  const core::BlockId b1 = b.add_block();
  const core::ThreadId q = b.add_thread(b1, "q", noop, {}, 0);
  std::vector<core::ThreadId> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.push_back(b.add_thread(b1, "d", noop, {}, 0));
  }
  b.add_arc_range(q, consumers.front(), consumers.back());
  const core::Program program =
      b.build(core::BuildOptions{.num_kernels = 1});

  const core::ShardMap map = core::ShardMap::interleaved(1, 1);
  runtime::SyncMemoryGroup sm(program, map);
  activate(sm, b0, 0);
  sm.preload_shadow(b1, /*group=*/0);
  ASSERT_EQ(sm.shadow_block(0), b1);

  std::vector<core::ThreadId> zeroed;
  EXPECT_EQ(sm.decrement_range_shadow(consumers.front(), consumers.back(),
                                      0, zeroed),
            consumers.size());
  EXPECT_EQ(zeroed.size(), consumers.size());
  for (core::ThreadId c : consumers) EXPECT_EQ(sm.shadow_count(c), 0u);
  // The current generation still holds block 0.
  EXPECT_EQ(sm.current_block(0), b0);

  sm.promote_shadow(/*group=*/0);
  EXPECT_EQ(sm.current_block(0), b1);
  for (core::ThreadId c : consumers) EXPECT_EQ(sm.count(c), 0u);
}

// --- end to end --------------------------------------------------------

struct RunResult {
  runtime::RuntimeStats stats;
  core::ExecTrace trace;
};

RunResult run_once(const core::Program& program, std::uint16_t kernels,
                   core::PolicyKind policy, std::uint16_t groups) {
  RunResult r;
  runtime::RuntimeOptions options;
  options.num_kernels = kernels;
  options.run.policy = policy;
  options.run.tsu_groups = groups;
  options.trace = &r.trace;
  runtime::Runtime rt(program, options);
  r.stats = rt.run();
  return r;
}

// A synthetic wide fan-out guarantees range records actually flow
// (applications may or may not produce wide consecutive runs).
TEST(CoalesceFanoutTest, WideFanoutPublishesRangesAndStaysCorrect) {
  for (const std::uint16_t groups : {std::uint16_t{1}, std::uint16_t{2}}) {
    core::ProgramBuilder b("fanout");
    for (int blk = 0; blk < 3; ++blk) {
      const core::BlockId id = b.add_block();
      std::vector<core::ThreadId> prods;
      for (int i = 0; i < 4; ++i) {
        prods.push_back(b.add_thread(id, "p", noop));
      }
      core::ThreadId lo = core::kInvalidThread;
      core::ThreadId hi = core::kInvalidThread;
      for (int i = 0; i < 40; ++i) {
        const core::ThreadId c = b.add_thread(id, "c", noop);
        if (i == 0) lo = c;
        hi = c;
      }
      for (core::ThreadId p : prods) b.add_arc_range(p, lo, hi);
    }
    const core::Program program =
        b.build(core::BuildOptions{.num_kernels = 4});
    std::uint64_t arcs = 0;
    for (const core::DThread& t : program.threads()) {
      if (t.is_application()) arcs += t.consumers.size();
    }

    const RunResult coal =
        run_once(program, 4, core::PolicyKind::kLocality, groups);
    // 3 blocks x 4 producers x 40 consumers, plus sink->outlet units.
    EXPECT_GT(coal.stats.emulator.range_updates_processed, 0u);
    EXPECT_GE(coal.stats.emulator.range_members, 3u * 4u * 40u);
    EXPECT_EQ(coal.stats.emulator.updates_processed, arcs);
    EXPECT_LT(coal.stats.tub.entries_published, arcs);
    const core::CheckReport report = core::check_trace(program, coal.trace);
    EXPECT_TRUE(report.clean()) << report.to_string(program);
  }
}

}  // namespace
}  // namespace tflux
