// ddmlint unit tests: one test per diagnostic class, each asserting
// the exact diagnostic code the verifier must emit, plus a "lint is
// clean" sweep over every shipped benchmark program. Broken graphs are
// obtained two ways: ProgramBuilder with BuildOptions::validate off
// (materializes representable defects), and ProgramTestPeer (corrupts
// invariants the builder always gets right, e.g. Ready Counts).
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/suite.h"
#include "core/builder.h"
#include "core/error.h"
#include "core/footprint.h"
#include "core/verify.h"
#include "testing/program_test_peer.h"

namespace tflux::core {
namespace {

Footprint write_range(SimAddr addr, std::uint32_t bytes) {
  Footprint fp;
  fp.compute(100);
  fp.write(addr, bytes);
  return fp;
}

Footprint read_range(SimAddr addr, std::uint32_t bytes) {
  Footprint fp;
  fp.compute(100);
  fp.read(addr, bytes);
  return fp;
}

/// a -> {l, r} -> j, all in one block: the smallest interesting DAG.
Program make_diamond() {
  ProgramBuilder builder("diamond");
  const BlockId blk = builder.add_block();
  const ThreadId a = builder.add_thread(blk, "a", {});
  const ThreadId l = builder.add_thread(blk, "l", {});
  const ThreadId r = builder.add_thread(blk, "r", {});
  const ThreadId j = builder.add_thread(blk, "j", {});
  builder.add_arc(a, l);
  builder.add_arc(a, r);
  builder.add_arc(l, j);
  builder.add_arc(r, j);
  return builder.build();
}

std::vector<const Diagnostic*> with_code(const VerifyReport& report,
                                         Diag code) {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) out.push_back(&d);
  }
  return out;
}

TEST(VerifyTest, CleanProgramHasNoDiagnostics) {
  const Program program = make_diamond();
  const VerifyReport report = verify(program);
  EXPECT_TRUE(report.clean()) << report.to_string(program);
  EXPECT_EQ(report.num_errors, 0u);
  EXPECT_EQ(report.num_warnings, 0u);
}

// -- 1. Ready Count consistency ---------------------------------------

TEST(VerifyTest, ReadyCountBelowInDegreeIsAnError) {
  Program program = make_diamond();
  // Join thread has two producers; pretend a buggy TSU image said one.
  const ThreadId join = 3;
  ASSERT_EQ(program.thread(join).ready_count_init, 2u);
  ProgramTestPeer::thread(program, join).ready_count_init = 1;

  const VerifyReport report = verify(program);
  const auto found = with_code(report, Diag::kReadyCountMismatch);
  ASSERT_EQ(found.size(), 1u) << report.to_string(program);
  EXPECT_EQ(found[0]->severity, Severity::kError);
  EXPECT_EQ(found[0]->thread, join);
  EXPECT_EQ(found[0]->block, 0u);
  EXPECT_TRUE(report.has_errors());
}

TEST(VerifyTest, ReadyCountAboveInDegreeIsAnOrphan) {
  Program program = make_diamond();
  const ThreadId join = 3;
  ProgramTestPeer::thread(program, join).ready_count_init = 3;

  const VerifyReport report = verify(program);
  const auto found = with_code(report, Diag::kOrphanThread);
  ASSERT_EQ(found.size(), 1u) << report.to_string(program);
  EXPECT_EQ(found[0]->severity, Severity::kError);
  EXPECT_EQ(found[0]->thread, join);
}

TEST(VerifyTest, CorruptedOutletReadyCountIsAnError) {
  Program program = make_diamond();
  // One sink (the join); claim two so the Outlet deadlocks.
  ASSERT_EQ(program.block(0).sink_count, 1u);
  ProgramTestPeer::block(program, 0).sink_count = 2;
  ProgramTestPeer::thread(program, program.block(0).outlet)
      .ready_count_init = 2;

  // Both sub-checks fire: sink_count disagrees with the actual sinks,
  // and the Outlet's Ready Count does too.
  const VerifyReport report = verify(program);
  EXPECT_EQ(with_code(report, Diag::kOutletReadyCountMismatch).size(), 2u)
      << report.to_string(program);
}

TEST(VerifyTest, InletWithReadyCountIsAnError) {
  Program program = make_diamond();
  ProgramTestPeer::thread(program, program.block(0).inlet)
      .ready_count_init = 1;

  const VerifyReport report = verify(program);
  EXPECT_EQ(with_code(report, Diag::kInletNotQuiescent).size(), 1u)
      << report.to_string(program);
}

// -- 2. Deadlock -------------------------------------------------------

TEST(VerifyTest, IntraBlockCycleIsDetected) {
  ProgramBuilder builder("cycle");
  const BlockId blk = builder.add_block();
  const ThreadId a = builder.add_thread(blk, "a", {});
  const ThreadId b = builder.add_thread(blk, "b", {});
  const ThreadId c = builder.add_thread(blk, "c", {});
  builder.add_arc(a, b);
  builder.add_arc(b, c);
  builder.add_arc(c, a);

  BuildOptions options;
  options.validate = false;
  const Program program = builder.build(options);

  const VerifyReport report = verify(program);
  const auto found = with_code(report, Diag::kIntraBlockCycle);
  ASSERT_EQ(found.size(), 1u) << report.to_string(program);
  EXPECT_EQ(found[0]->severity, Severity::kError);
  EXPECT_EQ(found[0]->block, 0u);
  // Each thread has exactly one producer and RC 1, so the cycle is the
  // *only* finding - no spurious Ready Count noise.
  EXPECT_EQ(report.num_errors, static_cast<std::uint32_t>(found.size()))
      << report.to_string(program);
}

TEST(VerifyTest, SelfArcIsACycleOfLengthOne) {
  ProgramBuilder builder("self");
  const BlockId blk = builder.add_block();
  const ThreadId a = builder.add_thread(blk, "a", {});
  builder.add_arc(a, a);

  BuildOptions options;
  options.validate = false;
  const Program program = builder.build(options);

  const VerifyReport report = verify(program);
  EXPECT_GE(with_code(report, Diag::kIntraBlockCycle).size(), 1u)
      << report.to_string(program);
}

// -- 3. Cross-block arcs ----------------------------------------------

TEST(VerifyTest, BackwardCrossBlockArcIsAnError) {
  ProgramBuilder builder("backward");
  const BlockId b0 = builder.add_block();
  const BlockId b1 = builder.add_block();
  const ThreadId early = builder.add_thread(b0, "early", {});
  const ThreadId late = builder.add_thread(b1, "late", {});
  builder.add_arc(late, early);  // later block feeds an earlier one

  BuildOptions options;
  options.validate = false;
  const Program program = builder.build(options);

  const VerifyReport report = verify(program);
  const auto found = with_code(report, Diag::kBackwardCrossBlockArc);
  ASSERT_EQ(found.size(), 1u) << report.to_string(program);
  EXPECT_EQ(found[0]->thread, late);
  EXPECT_EQ(found[0]->other, early);
}

TEST(VerifyTest, ValidatingBuildStillRejectsBackwardArc) {
  ProgramBuilder builder("backward");
  const BlockId b0 = builder.add_block();
  const BlockId b1 = builder.add_block();
  const ThreadId early = builder.add_thread(b0, "early", {});
  const ThreadId late = builder.add_thread(b1, "late", {});
  builder.add_arc(late, early);
  EXPECT_THROW(builder.build(), TFluxError);
}

TEST(VerifyTest, DanglingCrossBlockArcIsAnError) {
  Program program = make_diamond();
  ProgramTestPeer::cross_block_arcs(program)
      .push_back({/*producer=*/0, /*consumer=*/999});

  const VerifyReport report = verify(program);
  EXPECT_EQ(with_code(report, Diag::kDanglingArc).size(), 1u)
      << report.to_string(program);
}

// -- 4. Footprint races -----------------------------------------------

TEST(VerifyTest, ConcurrentOverlappingWritesAreARace) {
  ProgramBuilder builder("race");
  const BlockId blk = builder.add_block();
  const ThreadId w1 =
      builder.add_thread(blk, "w1", {}, write_range(0x1000, 256));
  const ThreadId w2 =
      builder.add_thread(blk, "w2", {}, write_range(0x1080, 256));
  const Program program = builder.build();

  const VerifyReport report = verify(program);
  const auto found = with_code(report, Diag::kFootprintRace);
  ASSERT_EQ(found.size(), 1u) << report.to_string(program);
  EXPECT_EQ(found[0]->severity, Severity::kError);
  EXPECT_EQ(std::minmax(found[0]->thread, found[0]->other),
            std::minmax(w1, w2));
}

TEST(VerifyTest, WriteReadOverlapWithoutArcIsARace) {
  ProgramBuilder builder("race_rw");
  const BlockId blk = builder.add_block();
  builder.add_thread(blk, "w", {}, write_range(0x1000, 64));
  builder.add_thread(blk, "r", {}, read_range(0x1020, 64));
  const Program program = builder.build();

  const VerifyReport report = verify(program);
  EXPECT_EQ(with_code(report, Diag::kFootprintRace).size(), 1u)
      << report.to_string(program);
}

TEST(VerifyTest, OrderedOverlapIsNotARace) {
  ProgramBuilder builder("ordered");
  const BlockId blk = builder.add_block();
  const ThreadId w = builder.add_thread(blk, "w", {}, write_range(0x1000, 64));
  const ThreadId r = builder.add_thread(blk, "r", {}, read_range(0x1000, 64));
  builder.add_arc(w, r);  // the arc orders them: no race
  const Program program = builder.build();

  const VerifyReport report = verify(program);
  EXPECT_TRUE(report.clean()) << report.to_string(program);
}

TEST(VerifyTest, TransitivelyOrderedOverlapIsNotARace) {
  ProgramBuilder builder("transitive");
  const BlockId blk = builder.add_block();
  const ThreadId a = builder.add_thread(blk, "a", {}, write_range(0x1000, 64));
  const ThreadId m = builder.add_thread(blk, "m", {});
  const ThreadId b = builder.add_thread(blk, "b", {}, write_range(0x1000, 64));
  builder.add_arc(a, m);
  builder.add_arc(m, b);  // a -> m -> b: ordered despite no direct arc
  const Program program = builder.build();

  const VerifyReport report = verify(program);
  EXPECT_TRUE(report.clean()) << report.to_string(program);
}

TEST(VerifyTest, ReadReadOverlapIsNotARace) {
  ProgramBuilder builder("readers");
  const BlockId blk = builder.add_block();
  builder.add_thread(blk, "r1", {}, read_range(0x1000, 64));
  builder.add_thread(blk, "r2", {}, read_range(0x1000, 64));
  const Program program = builder.build();

  EXPECT_TRUE(verify(program).clean());
}

TEST(VerifyTest, CrossBlockOverlapIsNotARace) {
  // Blocks execute strictly sequentially (Inlet/Outlet barrier), so
  // identical write ranges in different blocks never race.
  ProgramBuilder builder("blocks");
  const BlockId b0 = builder.add_block();
  const BlockId b1 = builder.add_block();
  builder.add_thread(b0, "w0", {}, write_range(0x1000, 64));
  builder.add_thread(b1, "w1", {}, write_range(0x1000, 64));
  const Program program = builder.build();

  EXPECT_TRUE(verify(program).clean());
}

TEST(VerifyTest, DisjointWritesAreNotARace) {
  ProgramBuilder builder("disjoint");
  const BlockId blk = builder.add_block();
  builder.add_thread(blk, "w1", {}, write_range(0x1000, 64));
  builder.add_thread(blk, "w2", {}, write_range(0x1040, 64));
  const Program program = builder.build();

  EXPECT_TRUE(verify(program).clean());
}

TEST(VerifyTest, RaceCheckCanBeDisabled) {
  ProgramBuilder builder("race");
  const BlockId blk = builder.add_block();
  builder.add_thread(blk, "w1", {}, write_range(0x1000, 64));
  builder.add_thread(blk, "w2", {}, write_range(0x1000, 64));
  const Program program = builder.build();

  VerifyOptions options;
  options.check_races = false;
  EXPECT_TRUE(verify(program, options).clean());
}

TEST(VerifyTest, OversizedBlockSkipsRaceCheckWithWarning) {
  ProgramBuilder builder("big");
  const BlockId blk = builder.add_block();
  for (int i = 0; i < 4; ++i) {
    builder.add_thread(blk, "w", {}, write_range(0x1000, 64));
  }
  const Program program = builder.build();

  VerifyOptions options;
  options.race_check_max_threads = 2;
  const VerifyReport report = verify(program, options);
  EXPECT_EQ(with_code(report, Diag::kRaceCheckSkipped).size(), 1u)
      << report.to_string(program);
  EXPECT_EQ(with_code(report, Diag::kFootprintRace).size(), 0u);
  EXPECT_FALSE(report.has_errors());
}

TEST(VerifyTest, EmptyRangeIsRecordedAndWarned) {
  // Regression: Footprint::read/write used to silently drop zero-byte
  // ranges; they must be recorded so the verifier can flag them.
  Footprint fp;
  fp.read(0x1000, 0);
  ASSERT_EQ(fp.ranges.size(), 1u);
  EXPECT_EQ(fp.ranges[0].bytes, 0u);

  ProgramBuilder builder("empty_range");
  const BlockId blk = builder.add_block();
  const ThreadId t = builder.add_thread(blk, "t", {}, std::move(fp));
  const Program program = builder.build();

  const VerifyReport report = verify(program);
  const auto found = with_code(report, Diag::kEmptyRange);
  ASSERT_EQ(found.size(), 1u) << report.to_string(program);
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  EXPECT_EQ(found[0]->thread, t);
  EXPECT_FALSE(report.has_errors());
}

TEST(VerifyTest, OverflowingRangeIsWarned) {
  Footprint fp;
  fp.write(~SimAddr{0} - 8, 64);  // addr + bytes wraps the address space
  ProgramBuilder builder("overflow");
  const BlockId blk = builder.add_block();
  builder.add_thread(blk, "t", {}, std::move(fp));
  const Program program = builder.build();

  const VerifyReport report = verify(program);
  EXPECT_EQ(with_code(report, Diag::kRangeOverflow).size(), 1u)
      << report.to_string(program);
  EXPECT_FALSE(report.has_errors());
}

// -- 5. Capacity / placement ------------------------------------------

TEST(VerifyTest, BlockExceedingTsuCapacityIsAnError) {
  ProgramBuilder builder("fat");
  const BlockId blk = builder.add_block();
  for (int i = 0; i < 3; ++i) builder.add_thread(blk, "t", {});
  const Program program = builder.build();  // unlimited capacity: fine

  VerifyOptions options;
  options.tsu_capacity = 4;  // 3 app + inlet + outlet = 5 > 4
  const VerifyReport report = verify(program, options);
  const auto found = with_code(report, Diag::kCapacityExceeded);
  ASSERT_EQ(found.size(), 1u) << report.to_string(program);
  EXPECT_EQ(found[0]->severity, Severity::kError);

  options.tsu_capacity = 5;
  EXPECT_TRUE(verify(program, options).clean());
}

TEST(VerifyTest, FanOutBeyondLaneCapacityIsWarned) {
  // source -> 6 consumers: publishing the source's completion in the
  // lock-free runtime needs 6 lane slots; a 4-entry lane forces a
  // chunked, possibly-stalling publish.
  ProgramBuilder builder("fanout");
  const BlockId blk = builder.add_block();
  const ThreadId source = builder.add_thread(blk, "source", {});
  for (int i = 0; i < 6; ++i) {
    builder.add_arc(source, builder.add_thread(blk, "w", {}));
  }
  const Program program = builder.build();

  VerifyOptions options;
  options.tub_lane_capacity = 4;
  const VerifyReport report = verify(program, options);
  const auto found = with_code(report, Diag::kLaneCapacityStall);
  ASSERT_EQ(found.size(), 1u) << report.to_string(program);
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  EXPECT_EQ(found[0]->thread, source);
  EXPECT_FALSE(report.has_errors());

  options.tub_lane_capacity = 6;
  EXPECT_TRUE(verify(program, options).clean());
  options.tub_lane_capacity = 0;  // disabled
  EXPECT_TRUE(verify(program, options).clean());
}

TEST(VerifyTest, StallProneBlockIsWarned) {
  // Two-block program: block 0 has 2 app threads, block 1 has 6. With
  // a threshold of 4 (kernels x 2 for 2 kernels), block 0 cannot keep
  // the kernels busy across its transition; block 1, being last, has
  // no following transition and is exempt however small.
  ProgramBuilder builder("thin");
  const BlockId b0 = builder.add_block();
  for (int i = 0; i < 2; ++i) builder.add_thread(b0, "a", {});
  const BlockId b1 = builder.add_block();
  for (int i = 0; i < 6; ++i) builder.add_thread(b1, "b", {});
  const Program program = builder.build();

  VerifyOptions options;
  options.min_block_threads = 4;
  const VerifyReport report = verify(program, options);
  const auto found = with_code(report, Diag::kStallProneBlock);
  ASSERT_EQ(found.size(), 1u) << report.to_string(program);
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  EXPECT_EQ(found[0]->block, b0);
  EXPECT_FALSE(report.has_errors());

  options.min_block_threads = 2;  // block 0 meets the bar
  EXPECT_TRUE(verify(program, options).clean());
  options.min_block_threads = 0;  // disabled (the default)
  EXPECT_TRUE(verify(program, options).clean());
}

TEST(VerifyTest, CoalescableUnitArcFanOutIsWarned) {
  // source declares 5 unit arcs to 5 consecutively-created consumers:
  // with a threshold of 4 that run should be one range arc.
  ProgramBuilder builder("coalescable");
  const BlockId blk = builder.add_block();
  const ThreadId source = builder.add_thread(blk, "source", {});
  for (int i = 0; i < 5; ++i) {
    builder.add_arc(source, builder.add_thread(blk, "w", {}));
  }
  const Program program = builder.build();

  VerifyOptions options;
  options.coalescable_arc_min = 4;
  const VerifyReport report = verify(program, options);
  const auto found = with_code(report, Diag::kCoalescableArcs);
  ASSERT_EQ(found.size(), 1u) << report.to_string(program);
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  EXPECT_EQ(found[0]->thread, source);
  EXPECT_FALSE(report.has_errors());

  options.coalescable_arc_min = 6;  // run of 5 is below the bar
  EXPECT_TRUE(verify(program, options).clean());
  options.coalescable_arc_min = 0;  // disabled (the default)
  EXPECT_TRUE(verify(program, options).clean());
}

TEST(VerifyTest, ScatteredFanOutIsNotFlaggedAsCoalescable) {
  // Arcs to non-consecutive consumers cannot be a range arc: the
  // longest run is 1, below any sensible threshold.
  ProgramBuilder builder("scattered");
  const BlockId blk = builder.add_block();
  const ThreadId source = builder.add_thread(blk, "source", {});
  std::vector<ThreadId> consumers;
  for (int i = 0; i < 5; ++i) {
    consumers.push_back(builder.add_thread(blk, "w", {}));
    builder.add_thread(blk, "gap", {});  // breaks id consecutiveness
  }
  for (ThreadId c : consumers) builder.add_arc(source, c);
  const Program program = builder.build();

  VerifyOptions options;
  options.coalescable_arc_min = 2;
  const VerifyReport report = verify(program, options);
  EXPECT_TRUE(with_code(report, Diag::kCoalescableArcs).empty())
      << report.to_string(program);
}

TEST(VerifyTest, SingleBlockProgramIsNeverStallProne) {
  // One block = no transitions to cover, whatever the threshold.
  ProgramBuilder builder("single");
  const BlockId blk = builder.add_block();
  builder.add_thread(blk, "t", {});
  const Program program = builder.build();

  VerifyOptions options;
  options.min_block_threads = 64;
  EXPECT_TRUE(verify(program, options).clean());
}

TEST(VerifyTest, HomeKernelOutOfRangeIsAnError) {
  ProgramBuilder builder("pinned");
  const BlockId blk = builder.add_block();
  builder.add_thread(blk, "t", {}, {}, /*home=*/5);
  BuildOptions build_options;
  build_options.num_kernels = 8;
  const Program program = builder.build(build_options);

  VerifyOptions options;
  options.num_kernels = 2;  // target machine has fewer kernels
  const VerifyReport report = verify(program, options);
  EXPECT_EQ(with_code(report, Diag::kHomeKernelOutOfRange).size(), 1u)
      << report.to_string(program);

  options.num_kernels = 8;
  EXPECT_TRUE(verify(program, options).clean());
}

// -- Affinity-split (data-plane locality smell) ------------------------

/// Four producers homed on kernels 0..3, each writing a distinct 64 B
/// range, all feeding one consumer that reads all four.
Program make_split_consumer() {
  ProgramBuilder builder("split");
  const BlockId blk = builder.add_block();
  Footprint rc;
  rc.compute(100);
  std::vector<ThreadId> producers;
  for (KernelId k = 0; k < 4; ++k) {
    const SimAddr addr = 0x1000 + static_cast<SimAddr>(k) * 0x100;
    producers.push_back(builder.add_thread(
        blk, "p" + std::to_string(k), {}, write_range(addr, 64), k));
    rc.read(addr, 64);
  }
  const ThreadId c = builder.add_thread(blk, "c", {}, std::move(rc));
  for (ThreadId p : producers) builder.add_arc(p, c);
  BuildOptions build_options;
  build_options.num_kernels = 4;
  return builder.build(build_options);
}

TEST(VerifyTest, AffinitySplitFlagsManyProducerConsumers) {
  const Program program = make_split_consumer();

  VerifyOptions options;
  options.num_kernels = 4;
  options.affinity_split = 2;  // input spans 4 kernels > 2
  const VerifyReport report = verify(program, options);
  const auto found = with_code(report, Diag::kAffinitySplit);
  ASSERT_EQ(found.size(), 1u) << report.to_string(program);
  EXPECT_EQ(found[0]->severity, Severity::kWarning);
  EXPECT_FALSE(report.has_errors());

  options.affinity_split = 4;  // exactly at the threshold: allowed
  EXPECT_TRUE(verify(program, options).clean());
  options.affinity_split = 0;  // disabled (the default)
  EXPECT_TRUE(verify(program, options).clean());
}

TEST(VerifyTest, AffinitySplitCountsShardsWhenTopologyGiven) {
  const Program program = make_split_consumer();

  // Kernels 0..3 clustered into 2 shards: the same consumer spans only
  // 2 shards, so the kernel-level split disappears at shard level.
  VerifyOptions options;
  options.num_kernels = 4;
  options.tsu_groups = 2;
  options.affinity_split = 2;
  EXPECT_TRUE(verify(program, options).clean());

  options.affinity_split = 1;
  const VerifyReport report = verify(program, options);
  const auto found = with_code(report, Diag::kAffinitySplit);
  ASSERT_EQ(found.size(), 1u) << report.to_string(program);
  EXPECT_NE(found[0]->message.find("shards"), std::string::npos);
}

// -- Strict build mode -------------------------------------------------

TEST(VerifyTest, StrictBuildThrowsOnRace) {
  ProgramBuilder builder("race");
  const BlockId blk = builder.add_block();
  builder.add_thread(blk, "w1", {}, write_range(0x1000, 64));
  builder.add_thread(blk, "w2", {}, write_range(0x1000, 64));

  BuildOptions options;
  options.strict = true;
  try {
    builder.build(options);
    FAIL() << "strict build of a racy program must throw";
  } catch (const TFluxError& e) {
    EXPECT_NE(std::string(e.what()).find("footprint-race"),
              std::string::npos)
        << e.what();
  }
}

TEST(VerifyTest, StrictBuildAcceptsCleanProgram) {
  ProgramBuilder builder("clean");
  const BlockId blk = builder.add_block();
  const ThreadId w = builder.add_thread(blk, "w", {}, write_range(0x1000, 64));
  const ThreadId r = builder.add_thread(blk, "r", {}, read_range(0x1000, 64));
  builder.add_arc(w, r);

  BuildOptions options;
  options.strict = true;
  EXPECT_NO_THROW(builder.build(options));
}

// -- Formatting --------------------------------------------------------

TEST(VerifyTest, DiagnosticToStringNamesThreadsAndCode) {
  ProgramBuilder builder("race");
  const BlockId blk = builder.add_block();
  builder.add_thread(blk, "alpha", {}, write_range(0x1000, 64));
  builder.add_thread(blk, "beta", {}, write_range(0x1000, 64));
  const Program program = builder.build();

  const VerifyReport report = verify(program);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  const std::string text = report.diagnostics[0].to_string(program);
  EXPECT_NE(text.find("error"), std::string::npos) << text;
  EXPECT_NE(text.find("footprint-race"), std::string::npos) << text;
  EXPECT_NE(text.find("alpha"), std::string::npos) << text;
  EXPECT_NE(text.find("beta"), std::string::npos) << text;
}

// -- The sweep: every shipped benchmark must be lint-clean -------------

TEST(VerifyTest, AllAppsAreLintClean) {
  apps::DdmParams params;  // defaults: 4 kernels, unroll 16, TSU 512
  for (const apps::AppKind kind : apps::all_apps()) {
    for (const apps::Platform platform :
         {apps::Platform::kSimulated, apps::Platform::kNative}) {
      const apps::AppRun run = apps::build_app(
          kind, apps::SizeClass::kSmall, platform, params);
      VerifyOptions options;
      options.tsu_capacity = params.tsu_capacity;
      options.num_kernels = params.num_kernels;
      const VerifyReport report = verify(run.program, options);
      EXPECT_TRUE(report.clean())
          << run.name << ": " << report.to_string(run.program);
    }
  }
  for (const apps::AppKind kind : apps::cell_apps()) {
    const apps::AppRun run = apps::build_app(
        kind, apps::SizeClass::kSmall, apps::Platform::kCell, params);
    VerifyOptions options;
    options.tsu_capacity = params.tsu_capacity;
    options.num_kernels = params.num_kernels;
    const VerifyReport report = verify(run.program, options);
    EXPECT_TRUE(report.clean())
        << run.name << ": " << report.to_string(run.program);
  }
}

}  // namespace
}  // namespace tflux::core
