// ddmcheck unit tests: ddmtrace round-trip plus one synthesized
// violation per checker invariant class (core/check.h), and the
// happens-before model - update edges order same-block threads, the
// block barrier orders cross-block ones.
#include "core/check.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/builder.h"
#include "core/ddmtrace.h"
#include "core/error.h"

namespace tflux::core {
namespace {

/// One block: a (writes [0x1000,0x1040)) --arc--> b (reads the same),
/// plus independent c. Ids: a=0, b=1, c=2, inlet=3, outlet=4 (RC 2).
Program make_diamond() {
  ProgramBuilder b("diamond");
  const BlockId b0 = b.add_block();
  Footprint fa;
  fa.write(0x1000, 64);
  const ThreadId a = b.add_thread(b0, "a", {}, std::move(fa));
  Footprint fb;
  fb.read(0x1000, 64);
  const ThreadId x = b.add_thread(b0, "b", {}, std::move(fb));
  b.add_thread(b0, "c", {});
  b.add_arc(a, x);
  return b.build(BuildOptions{.num_kernels = 1});
}

/// Like make_diamond but WITHOUT the ordering arc: a faithful trace
/// still races on the overlapping footprints.
Program make_racy() {
  ProgramBuilder b("racy");
  const BlockId b0 = b.add_block();
  Footprint fa;
  fa.write(0x1000, 64);
  b.add_thread(b0, "a", {}, std::move(fa));
  Footprint fb;
  fb.read(0x1000, 64);
  b.add_thread(b0, "b", {}, std::move(fb));
  return b.build(BuildOptions{.num_kernels = 1});
}

void add(ExecTrace& t, TraceEvent event, std::uint16_t actor,
         std::uint32_t a, std::uint32_t b, std::uint32_t c = 0) {
  TraceRecord r;
  r.seq = t.records.size();
  r.event = event;
  r.actor = actor;
  r.a = a;
  r.b = b;
  r.c = c;
  t.records.push_back(r);
}

/// A faithful single-kernel execution of make_diamond().
ExecTrace diamond_trace() {
  ExecTrace t;
  t.program = "diamond";
  t.kernels = 1;
  t.groups = 1;
  t.pipelined = false;
  add(t, TraceEvent::kDispatch, 1, 3, 0);   // inlet
  add(t, TraceEvent::kComplete, 0, 3, 0);
  add(t, TraceEvent::kInletLoad, 1, 0, 0);
  add(t, TraceEvent::kDispatch, 1, 0, 0);   // roots a, c
  add(t, TraceEvent::kDispatch, 1, 2, 0);
  add(t, TraceEvent::kComplete, 0, 0, 0);   // a -> b
  add(t, TraceEvent::kUpdate, 0, 0, 1);
  add(t, TraceEvent::kDispatch, 1, 1, 0);
  add(t, TraceEvent::kComplete, 0, 2, 0);   // c -> outlet
  add(t, TraceEvent::kUpdate, 0, 2, 4);
  add(t, TraceEvent::kComplete, 0, 1, 0);   // b -> outlet
  add(t, TraceEvent::kUpdate, 0, 1, 4);
  add(t, TraceEvent::kDispatch, 1, 4, 0);   // outlet
  add(t, TraceEvent::kComplete, 0, 4, 0);
  add(t, TraceEvent::kOutletDone, 0, 0, 0);
  return t;
}

bool has(const CheckReport& report, CheckDiag code) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [code](const CheckFinding& f) {
                       return f.code == code;
                     });
}

TEST(DdmTraceTest, SaveLoadRoundTrip) {
  ExecTrace t = diamond_trace();
  // The policy clause is carried, not interpreted: a trace recorded
  // under the retired adaptive policy still loads.
  t.policy = "adaptive";
  t.lockfree = false;
  t.app = "trapez";
  t.size = "small";
  t.unroll = 8;
  t.tsu_capacity = 64;
  const ExecTrace back = load_trace(save_trace(t));
  EXPECT_EQ(back.program, "diamond");
  EXPECT_EQ(back.kernels, 1);
  EXPECT_EQ(back.groups, 1);
  EXPECT_EQ(back.policy, "adaptive");
  EXPECT_FALSE(back.pipelined);
  EXPECT_FALSE(back.lockfree);
  EXPECT_EQ(back.app, "trapez");
  EXPECT_EQ(back.size, "small");
  EXPECT_EQ(back.unroll, 8u);
  EXPECT_EQ(back.tsu_capacity, 64u);
  ASSERT_EQ(back.records.size(), t.records.size());
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    EXPECT_EQ(back.records[i].seq, t.records[i].seq);
    EXPECT_EQ(back.records[i].event, t.records[i].event);
    EXPECT_EQ(back.records[i].actor, t.records[i].actor);
    EXPECT_EQ(back.records[i].a, t.records[i].a);
    EXPECT_EQ(back.records[i].b, t.records[i].b);
  }
}

TEST(DdmTraceTest, LoadSortsRecordsBySeq) {
  const ExecTrace t = load_trace(
      "ddmtrace 1\n"
      "e 5 complete 0 1 0\n"
      "e 2 dispatch 1 1 0\n");
  ASSERT_EQ(t.records.size(), 2u);
  EXPECT_EQ(t.records[0].seq, 2u);
  EXPECT_EQ(t.records[1].seq, 5u);
}

TEST(DdmTraceTest, LoadRejectsMalformedInput) {
  EXPECT_THROW(load_trace(""), TFluxError);
  EXPECT_THROW(load_trace("e 0 dispatch 1 1 0\n"), TFluxError);
  EXPECT_THROW(load_trace("ddmtrace 3\n"), TFluxError);
  EXPECT_THROW(load_trace("ddmtrace 1\ne 0 teleport 1 1 0\n"),
               TFluxError);
  EXPECT_THROW(load_trace("ddmtrace 1\ne 0 dispatch\n"), TFluxError);
  EXPECT_THROW(load_trace("ddmtrace 1\nconfig kernels zero\n"),
               TFluxError);
  // A range-update record requires its third operand.
  EXPECT_THROW(load_trace("ddmtrace 2\ne 0 range-update 0 0 1\n"),
               TFluxError);
}

TEST(DdmTraceTest, UnitUpdateTracesAreRejected) {
  // The unit-update mode was removed; its traces cannot be replayed
  // faithfully, so load_trace says so instead of misreading them.
  try {
    load_trace("ddmtrace 2\nconfig kernels 1 coalesce 0\n");
    FAIL() << "coalesce 0 loaded";
  } catch (const TFluxError& e) {
    EXPECT_NE(std::string(e.what()).find("unit-update mode was removed"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(load_trace("ddmtrace 2\nconfig kernels 2 coalesce 1\n").kernels,
            2);
}

TEST(DdmTraceTest, VersionOneTracesStillLoad) {
  const ExecTrace t = load_trace(
      "ddmtrace 1\n"
      "program legacy\n"
      "e 0 dispatch 1 1 0\n"
      "e 1 update 0 0 1\n");
  EXPECT_EQ(t.program, "legacy");
  EXPECT_FALSE(t.truncated);
  ASSERT_EQ(t.records.size(), 2u);
  EXPECT_EQ(t.records[1].event, TraceEvent::kUpdate);
  EXPECT_EQ(t.records[1].c, 0u);
}

TEST(DdmTraceTest, LegacyShardsClauseStillLoads) {
  // Sharded runs once wrote `shards S` beside `groups S`; the clause
  // is accepted and ignored, and the writer emits `groups` alone.
  const std::string records =
      "e 0 dispatch 2 0 1\n"
      "e 1 complete 1 0 0\n";
  const ExecTrace legacy = load_trace(
      "ddmtrace 2\n"
      "config kernels 4 groups 2 policy hier pipeline 1 lockfree 1 "
      "shards 2\n" +
      records);
  const ExecTrace current = load_trace(
      "ddmtrace 2\n"
      "config kernels 4 groups 2 policy hier pipeline 1 lockfree 1\n" +
      records);
  EXPECT_EQ(legacy.groups, 2);
  EXPECT_EQ(save_trace(legacy), save_trace(current));
  EXPECT_EQ(save_trace(current).find("shards"), std::string::npos);
  EXPECT_THROW(load_trace("ddmtrace 2\nconfig kernels 4 shards\n"),
               TFluxError);
}

TEST(DdmTraceTest, RangeUpdateAndTruncatedRoundTrip) {
  ExecTrace t;
  t.program = "rng";
  t.truncated = true;
  add(t, TraceEvent::kRangeUpdate, 0, 0, 1, 5);
  add(t, TraceEvent::kUpdate, 0, 2, 4);
  const std::string text = save_trace(t);
  EXPECT_EQ(text.rfind("ddmtrace 2", 0), 0u);
  EXPECT_NE(text.find("truncated 1"), std::string::npos);
  EXPECT_NE(text.find("range-update 0 0 1 5"), std::string::npos);
  const ExecTrace back = load_trace(text);
  EXPECT_TRUE(back.truncated);
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0].event, TraceEvent::kRangeUpdate);
  EXPECT_EQ(back.records[0].a, 0u);
  EXPECT_EQ(back.records[0].b, 1u);
  EXPECT_EQ(back.records[0].c, 5u);
  EXPECT_EQ(back.records[1].event, TraceEvent::kUpdate);
  EXPECT_EQ(back.records[1].c, 0u);
}

TEST(CheckTest, FaithfulTraceIsClean) {
  const Program p = make_diamond();
  const CheckReport report = check_trace(p, diamond_trace());
  EXPECT_TRUE(report.clean()) << report.to_string(p);
  EXPECT_EQ(report.records_checked, 15u);
  EXPECT_FALSE(report.races_skipped);
  EXPECT_FALSE(report.truncated);
}

TEST(CheckTest, FlagsUndeclaredArc) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  t.records[6].a = 2;  // the a->b update claims to come from c
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kUndeclaredArc));
  // ...and the declared a->b arc never fired.
  EXPECT_TRUE(has(report, CheckDiag::kMissingUpdate));
}

TEST(CheckTest, FlagsDuplicateUpdateAndNegativeReadyCount) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  TraceRecord dup = t.records[6];  // a -> b fires again
  dup.seq = t.records.size();
  t.records.push_back(dup);
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kDuplicateUpdate));
  EXPECT_TRUE(has(report, CheckDiag::kNegativeReadyCount));
}

/// One block: p (id 0) --arcs--> c1 (id 1) and c2 (id 2), consecutive
/// consumers. Inlet = 3, outlet = 4 (RC 2: sinks c1, c2).
Program make_fanout() {
  ProgramBuilder b("fanout");
  const BlockId b0 = b.add_block();
  const ThreadId p = b.add_thread(b0, "p", {});
  const ThreadId c1 = b.add_thread(b0, "c1", {});
  b.add_thread(b0, "c2", {});
  b.add_arc_range(p, c1, c1 + 1);
  return b.build(BuildOptions{.num_kernels = 1});
}

/// A faithful coalesced execution of make_fanout(): p's completion is
/// one range-update covering consumers [1, 2].
ExecTrace fanout_trace() {
  ExecTrace t;
  t.program = "fanout";
  t.kernels = 1;
  t.groups = 1;
  t.pipelined = false;
  add(t, TraceEvent::kDispatch, 1, 3, 0);        // inlet
  add(t, TraceEvent::kComplete, 0, 3, 0);
  add(t, TraceEvent::kInletLoad, 1, 0, 0);
  add(t, TraceEvent::kDispatch, 1, 0, 0);        // root p
  add(t, TraceEvent::kComplete, 0, 0, 0);
  add(t, TraceEvent::kRangeUpdate, 0, 0, 1, 2);  // p -> [c1, c2]
  add(t, TraceEvent::kDispatch, 1, 1, 0);
  add(t, TraceEvent::kDispatch, 1, 2, 0);
  add(t, TraceEvent::kComplete, 0, 1, 0);
  add(t, TraceEvent::kUpdate, 0, 1, 4);
  add(t, TraceEvent::kComplete, 0, 2, 0);
  add(t, TraceEvent::kUpdate, 0, 2, 4);
  add(t, TraceEvent::kDispatch, 1, 4, 0);        // outlet
  add(t, TraceEvent::kComplete, 0, 4, 0);
  add(t, TraceEvent::kOutletDone, 0, 0, 0);
  return t;
}

TEST(CheckTest, FaithfulRangeUpdateTraceIsClean) {
  const Program p = make_fanout();
  const CheckReport report = check_trace(p, fanout_trace());
  EXPECT_TRUE(report.clean()) << report.to_string(p);
}

TEST(CheckTest, RangeUpdateExpandsToDeclaredUnitArcs) {
  // Widening the range past the declared consumers must surface the
  // exact unit-arc findings: an undeclared arc (0 -> 3 is the inlet)
  // and a malformed end past the id space.
  const Program p = make_fanout();
  ExecTrace t = fanout_trace();
  t.records[5].c = 3;  // covers [1, 3]: 0->3 was never declared
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kUndeclaredArc));
}

TEST(CheckTest, FlagsRangeUpdateWithHiBelowLo) {
  const Program p = make_fanout();
  ExecTrace t = fanout_trace();
  std::swap(t.records[5].b, t.records[5].c);  // [2, 1]
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kMalformedRecord));
}

TEST(CheckTest, RangeUpdateReplayedTwiceGoesNegative) {
  const Program p = make_fanout();
  ExecTrace t = fanout_trace();
  TraceRecord dup = t.records[5];
  dup.seq = t.records.size();
  t.records.push_back(dup);
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kDuplicateUpdate));
  EXPECT_TRUE(has(report, CheckDiag::kNegativeReadyCount));
}

TEST(CheckTest, TruncatedTraceGetsOneFindingAndSkipsCompleteness) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  t.records.resize(8);  // cut mid-run: b dispatched, never completed
  t.truncated = true;
  const CheckReport report = check_trace(p, t);
  ASSERT_EQ(report.findings.size(), 1u) << report.to_string(p);
  EXPECT_EQ(report.findings[0].code, CheckDiag::kTruncatedTrace);
  EXPECT_FALSE(has(report, CheckDiag::kMissingExecution));
  EXPECT_FALSE(has(report, CheckDiag::kMissingUpdate));
}

TEST(CheckTest, TruncatedPrefixStillFlagsProtocolViolations) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  t.records.resize(8);
  t.records[6].a = 2;  // the a->b update claims to come from c
  t.truncated = true;
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kUndeclaredArc));
  EXPECT_TRUE(has(report, CheckDiag::kTruncatedTrace));
  EXPECT_FALSE(has(report, CheckDiag::kMissingUpdate));
}

TEST(CheckTest, FlagsPrematureDispatch) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  // b's dispatch (seq 7) reordered before the a->b update (seq 6).
  std::swap(t.records[6].seq, t.records[7].seq);
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kPrematureDispatch));
}

TEST(CheckTest, FlagsDoubleDispatch) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  TraceRecord dup = t.records[7];  // b dispatched twice
  dup.seq = t.records.size();
  t.records.push_back(dup);
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kDoubleDispatch));
}

TEST(CheckTest, FlagsDoubleExecution) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  TraceRecord dup = t.records[10];  // b completed twice
  dup.seq = t.records.size();
  t.records.push_back(dup);
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kDoubleExecution));
}

TEST(CheckTest, FlagsExecutionWithoutDispatch) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  t.records.erase(t.records.begin() + 7);  // drop b's dispatch
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kExecutionWithoutDispatch));
}

TEST(CheckTest, FlagsMissingExecution) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  t.records.resize(10);  // stop before b completed
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kMissingExecution));
}

TEST(CheckTest, FlagsMissingUpdate) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  t.records.erase(t.records.begin() + 11);  // drop the b->outlet update
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kMissingUpdate));
}

TEST(CheckTest, FlagsEarlyOutletDoneAsBlockLifecycle) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  // The block retires (seq of outlet-done moved) before b completes.
  t.records[14].seq = 9;
  t.records[9].seq = 14;
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kBlockLifecycle));
}

TEST(CheckTest, FlagsDuplicateOutletDoneAsBlockLifecycle) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  TraceRecord dup = t.records[14];
  dup.seq = t.records.size();
  t.records.push_back(dup);
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kBlockLifecycle));
}

TEST(CheckTest, FlagsUnknownThreadAsMalformed) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  t.records[6].b = 99;  // update aimed at a thread that does not exist
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(has(report, CheckDiag::kMalformedRecord));
}

TEST(CheckTest, FlagsFootprintRace) {
  // racy: a=0 (writer), b=1 (reader), no arc; inlet=2, outlet=3 (RC 2).
  const Program p = make_racy();
  ExecTrace t;
  t.pipelined = false;
  add(t, TraceEvent::kDispatch, 1, 2, 0);
  add(t, TraceEvent::kComplete, 0, 2, 0);
  add(t, TraceEvent::kInletLoad, 1, 0, 0);
  add(t, TraceEvent::kDispatch, 1, 0, 0);
  add(t, TraceEvent::kDispatch, 1, 1, 0);
  add(t, TraceEvent::kComplete, 0, 0, 0);
  add(t, TraceEvent::kUpdate, 0, 0, 3);
  add(t, TraceEvent::kComplete, 0, 1, 0);
  add(t, TraceEvent::kUpdate, 0, 1, 3);
  add(t, TraceEvent::kDispatch, 1, 3, 0);
  add(t, TraceEvent::kComplete, 0, 3, 0);
  add(t, TraceEvent::kOutletDone, 0, 0, 0);
  const CheckReport report = check_trace(p, t);
  ASSERT_EQ(report.findings.size(), 1u) << report.to_string(p);
  EXPECT_EQ(report.findings[0].code, CheckDiag::kFootprintRace);
  // The race pair is reported once, with both threads named.
  EXPECT_EQ(report.findings[0].thread, 0u);
  EXPECT_EQ(report.findings[0].other, 1u);

  CheckOptions no_races;
  no_races.check_races = false;
  EXPECT_TRUE(check_trace(p, t, no_races).clean());
}

TEST(CheckTest, ObservedUpdateEdgeOrdersOverlappingFootprints) {
  // Same footprints as FlagsFootprintRace, but the diamond's a->b arc
  // fired - so the overlap is ordered and must NOT be reported.
  const Program p = make_diamond();
  const CheckReport report = check_trace(p, diamond_trace());
  EXPECT_FALSE(has(report, CheckDiag::kFootprintRace));
}

TEST(CheckTest, BlockBarrierOrdersCrossBlockFootprints) {
  // a (block 0) writes what y (block 1, RC 0) reads, with no declared
  // arc between them: the block barrier (y's root dispatch follows
  // block 0's OutletDone) is the only ordering - the checker must
  // credit it and stay silent.
  ProgramBuilder b("barrier");
  const BlockId b0 = b.add_block();
  Footprint fa;
  fa.write(0x1000, 64);
  b.add_thread(b0, "a", {}, std::move(fa));
  const BlockId b1 = b.add_block();
  Footprint fy;
  fy.read(0x1000, 64);
  b.add_thread(b1, "y", {}, std::move(fy));
  const Program p = b.build(BuildOptions{.num_kernels = 1});
  // Ids: a=0, y=1, inlet0=2, outlet0=3, inlet1=4, outlet1=5.

  ExecTrace t;
  t.pipelined = false;
  add(t, TraceEvent::kDispatch, 1, 2, 0);
  add(t, TraceEvent::kComplete, 0, 2, 0);
  add(t, TraceEvent::kInletLoad, 1, 0, 0);
  add(t, TraceEvent::kDispatch, 1, 0, 0);
  add(t, TraceEvent::kComplete, 0, 0, 0);
  add(t, TraceEvent::kUpdate, 0, 0, 3);
  add(t, TraceEvent::kDispatch, 1, 3, 0);
  add(t, TraceEvent::kComplete, 0, 3, 0);
  add(t, TraceEvent::kOutletDone, 0, 0, 0);
  add(t, TraceEvent::kDispatch, 1, 4, 0);
  add(t, TraceEvent::kComplete, 0, 4, 1);
  add(t, TraceEvent::kInletLoad, 1, 1, 0);
  add(t, TraceEvent::kDispatch, 1, 1, 0);
  add(t, TraceEvent::kComplete, 0, 1, 1);
  add(t, TraceEvent::kUpdate, 0, 1, 5);
  add(t, TraceEvent::kDispatch, 1, 5, 0);
  add(t, TraceEvent::kComplete, 0, 5, 1);
  add(t, TraceEvent::kOutletDone, 0, 1, 0);
  const CheckReport report = check_trace(p, t);
  EXPECT_TRUE(report.clean()) << report.to_string(p);
}

TEST(CheckTest, MaxFindingsTruncates) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  t.records.resize(5);  // almost nothing executed: many findings
  CheckOptions options;
  options.max_findings = 2;
  const CheckReport report = check_trace(p, t, options);
  EXPECT_EQ(report.findings.size(), 2u);
  EXPECT_TRUE(report.truncated);
}

TEST(CheckTest, RacePassSkippedAboveThreadLimit) {
  const Program p = make_racy();
  ExecTrace t;
  CheckOptions options;
  options.race_check_max_threads = 1;
  const CheckReport report = check_trace(p, t, options);
  EXPECT_TRUE(report.races_skipped);
}

TEST(CheckTest, FindingToStringNamesCodeAndThread) {
  const Program p = make_diamond();
  ExecTrace t = diamond_trace();
  t.records[6].a = 2;
  const CheckReport report = check_trace(p, t);
  ASSERT_FALSE(report.findings.empty());
  const std::string s = report.findings[0].to_string(p);
  EXPECT_NE(s.find("[undeclared-arc]"), std::string::npos) << s;
  EXPECT_NE(s.find("thread 2 'c'"), std::string::npos) << s;
  const std::string all = report.to_string(p);
  EXPECT_NE(all.find("ddmcheck:"), std::string::npos);
}

}  // namespace
}  // namespace tflux::core
