// Sharded TSU + hierarchical stealing: determinism against the flat
// baseline, forced-overflow delegation, steal-stat reconciliation with
// the ddmcheck trace replay, guarded clean runs, and the core ShardMap
// / range-trimming invariants the runtime relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "apps/suite.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "core/topology.h"
#include "runtime/runtime.h"
#include "runtime/sync_memory.h"
#include "runtime/tub_group.h"

namespace tflux {
namespace {

runtime::RuntimeStats run_app(apps::AppRun& app,
                              runtime::RuntimeOptions options) {
  runtime::Runtime rt(app.program, options);
  return rt.run();
}

// ---------------------------------------------------------------------------
// core::ShardMap
// ---------------------------------------------------------------------------

TEST(ShardMapTest, ClusteredPartitionsAreContiguousAndBalanced) {
  for (std::uint16_t kernels : {4, 7, 32, 128}) {
    for (std::uint16_t shards : {1, 2, 3, 16}) {
      if (shards > kernels) continue;
      const core::ShardMap map(kernels, shards);
      ASSERT_EQ(map.num_shards(), shards);
      std::size_t covered = 0;
      std::size_t min_size = kernels, max_size = 0;
      for (std::uint16_t s = 0; s < shards; ++s) {
        const auto& ks = map.kernels(s);
        ASSERT_FALSE(ks.empty());
        min_size = std::min(min_size, ks.size());
        max_size = std::max(max_size, ks.size());
        for (std::size_t i = 0; i < ks.size(); ++i) {
          EXPECT_EQ(map.shard_of(ks[i]), s);
          if (i > 0) {
            EXPECT_EQ(ks[i], ks[i - 1] + 1);  // contiguous
          }
        }
        EXPECT_EQ(ks.front(), map.first_kernel(s));
        EXPECT_EQ(ks.back(), map.last_kernel(s));
        covered += ks.size();
      }
      EXPECT_EQ(covered, kernels);
      EXPECT_LE(max_size - min_size, 1u);  // balanced
    }
  }
}

TEST(ShardMapTest, OnlyTwoOrMoreGroupsFormATopology) {
  // One group keeps every flat path: no topology for the hierarchical
  // pull, the cross-shard bytes or the steal-grant lanes.
  const core::ShardMap flat(4, 1);
  EXPECT_FALSE(flat.clustered());
  EXPECT_EQ(flat.topology(), nullptr);
  const core::ShardMap two(4, 2);
  EXPECT_TRUE(two.clustered());
  EXPECT_EQ(two.topology(), &two);
  EXPECT_TRUE(two.same_shard(0, 1));
  EXPECT_FALSE(two.same_shard(1, 2));
  EXPECT_THROW(core::ShardMap(4, 0), core::TFluxError);
  EXPECT_THROW(core::ShardMap(4, 5), core::TFluxError);
  EXPECT_THROW(core::ShardMap(0, 1), core::TFluxError);
}

// ---------------------------------------------------------------------------
// Range-record splitting at shard boundaries (publish side).
// ---------------------------------------------------------------------------

TEST(ShardRangeTrimTest, RangeRecordsAreTrimmedPerShard) {
  // 8 consecutive same-block consumers homed round-robin on 4 kernels,
  // split into 2 clustered groups {0,1} {2,3}: the range [0,7] must
  // reach each group trimmed to its own first/last member, and the
  // members of the two trimmed records must tile [0,7] exactly.
  apps::DdmParams params;
  params.num_kernels = 4;
  params.unroll = 1;
  apps::AppRun app =
      apps::build_app(apps::AppKind::kTrapez, apps::SizeClass::kSmall,
                      apps::Platform::kNative, params);
  const core::ShardMap map(4, 2);
  runtime::SyncMemoryGroup sm(app.program, map);
  runtime::TubGroup tubs(app.program, sm,
                         runtime::TubGroupOptions{.num_lanes = 6});

  // Pick a run of 8 consecutive application DThreads in one block.
  core::ThreadId lo = 0;
  const core::ThreadId hi = lo + 7;
  ASSERT_EQ(app.program.thread(lo).block, app.program.thread(hi).block);
  const std::size_t members = tubs.publish_range_update(lo, hi, 0);
  EXPECT_EQ(members, 8u);

  std::uint64_t members_seen = 0;
  for (std::uint16_t g = 0; g < 2; ++g) {
    std::vector<runtime::TubEntry> drained;
    tubs.tub(g).drain(drained);
    ASSERT_EQ(drained.size(), 1u) << "shard " << g;
    const runtime::TubEntry& e = drained.front();
    EXPECT_EQ(e.kind, runtime::TubEntry::Kind::kRangeUpdate);
    EXPECT_GE(e.id, lo);
    EXPECT_LE(e.hi, hi);
    // Boundary members belong to the receiving shard.
    EXPECT_EQ(tubs.group_of_thread(static_cast<core::ThreadId>(e.id)), g);
    EXPECT_EQ(tubs.group_of_thread(static_cast<core::ThreadId>(e.hi)), g);
    for (core::ThreadId t = static_cast<core::ThreadId>(e.id);
         t <= static_cast<core::ThreadId>(e.hi); ++t) {
      if (tubs.group_of_thread(t) == g) ++members_seen;
    }
  }
  // Every member of [lo, hi] is owned by exactly one trimmed record.
  EXPECT_EQ(members_seen, 8u);
}

// ---------------------------------------------------------------------------
// Hierarchical vs flat determinism: same results, every config.
// ---------------------------------------------------------------------------

TEST(ShardedRuntimeTest, HierMatchesFlatAcrossAppsKernelsShards) {
  for (apps::AppKind kind : {apps::AppKind::kTrapez, apps::AppKind::kQsort,
                             apps::AppKind::kSusan}) {
    for (std::uint16_t kernels : {4, 8}) {
      for (std::uint16_t shards : {1, 2, 4}) {
        apps::DdmParams params;
        params.num_kernels = kernels;
        apps::AppRun flat = apps::build_app(
            kind, apps::SizeClass::kSmall, apps::Platform::kNative, params);
        runtime::RuntimeOptions flat_options;
        flat_options.num_kernels = kernels;
        run_app(flat, flat_options);
        EXPECT_TRUE(flat.validate())
            << apps::to_string(kind) << " flat k=" << kernels;

        apps::AppRun sharded = apps::build_app(
            kind, apps::SizeClass::kSmall, apps::Platform::kNative, params);
        runtime::RuntimeOptions hier_options;
        hier_options.num_kernels = kernels;
        hier_options.run.tsu_groups = shards;
        hier_options.run.policy = core::PolicyKind::kHier;
        run_app(sharded, hier_options);
        EXPECT_TRUE(sharded.validate())
            << apps::to_string(kind) << " hier k=" << kernels
            << " shards=" << shards;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Forced overflow: a loaded shard must delegate, and the grant flow
// must balance (every grant out is dispatched by its receiver).
// ---------------------------------------------------------------------------

TEST(ShardedRuntimeTest, ForcedOverflowDelegatesToRemoteShard) {
  apps::DdmParams params;
  params.num_kernels = 4;
  params.unroll = 4;  // many small DThreads: dispatch bursts overflow
  apps::AppRun app =
      apps::build_app(apps::AppKind::kTrapez, apps::SizeClass::kSmall,
                      apps::Platform::kNative, params);
  runtime::RuntimeOptions options;
  options.num_kernels = 4;
  options.run.tsu_groups = 2;
  options.run.policy = core::PolicyKind::kHier;
  options.adaptive_backlog = 0;  // any backlog counts as overflow
  options.run.steal_threshold = 0;   // any less-loaded remote is a victim
  const runtime::RuntimeStats st = run_app(app, options);
  EXPECT_TRUE(app.validate());

  ASSERT_EQ(st.emulators.size(), 2u);
  std::uint64_t home = 0, local = 0, out = 0, in = 0, dispatches = 0;
  for (const runtime::EmulatorStats& e : st.emulators) {
    home += e.home_dispatches;
    local += e.steal_local;
    out += e.steal_remote;
    in += e.steals_in;
    dispatches += e.dispatches;
  }
  EXPECT_GT(out, 0u) << "zero-threshold overflow must delegate";
  EXPECT_EQ(out, in) << "every grant published must be redispatched";
  // Under kHier every dispatch is home, a sibling steal, or a grant-in.
  EXPECT_EQ(dispatches, home + local + in);
}

// ---------------------------------------------------------------------------
// Steal counters vs ddmcheck trace replay (in-process reconciliation).
// ---------------------------------------------------------------------------

TEST(ShardedRuntimeTest, StealStatsReconcileWithTraceReplay) {
  for (std::uint16_t shards : {2, 4}) {
    apps::DdmParams params;
    params.num_kernels = 8;
    apps::AppRun app =
        apps::build_app(apps::AppKind::kTrapez, apps::SizeClass::kSmall,
                        apps::Platform::kNative, params);
    runtime::RuntimeOptions options;
    options.num_kernels = 8;
    options.run.tsu_groups = shards;
    options.run.policy = core::PolicyKind::kHier;
    core::ExecTrace trace;
    options.trace = &trace;
    const runtime::RuntimeStats st = run_app(app, options);
    ASSERT_TRUE(app.validate());
    EXPECT_EQ(trace.groups, shards);

    const core::CheckReport report = core::check_trace(app.program, trace);
    EXPECT_TRUE(report.clean()) << report.to_string(app.program);
    std::uint64_t home = 0, local = 0, remote = 0, in = 0, dispatches = 0;
    for (const runtime::EmulatorStats& e : st.emulators) {
      home += e.home_dispatches;
      local += e.steal_local;
      remote += e.steal_remote;
      in += e.steals_in;
      dispatches += e.dispatches;
    }
    EXPECT_EQ(report.steals.dispatches, dispatches);
    EXPECT_EQ(report.steals.home, home);
    EXPECT_EQ(report.steals.local, local);
    EXPECT_EQ(report.steals.remote, remote);
    EXPECT_EQ(remote, in);
  }
}

// ---------------------------------------------------------------------------
// ddmguard stays clean across shard-crossing steals (TSan covers the
// epoch-word ordering via the `concurrent` ctest label).
// ---------------------------------------------------------------------------

TEST(ShardedRuntimeTest, GuardFullCleanUnderHierStealing) {
  for (apps::AppKind kind : {apps::AppKind::kTrapez, apps::AppKind::kQsort}) {
    apps::DdmParams params;
    params.num_kernels = 4;
    apps::AppRun app = apps::build_app(
        kind, apps::SizeClass::kSmall, apps::Platform::kNative, params);
    runtime::RuntimeOptions options;
    options.num_kernels = 4;
    options.run.tsu_groups = 2;
    options.run.policy = core::PolicyKind::kHier;
    options.run.steal_threshold = 0;  // maximize shard-crossing dispatches
    options.adaptive_backlog = 0;
    options.guard.mode = core::GuardMode::kFull;
    const runtime::RuntimeStats st = run_app(app, options);
    EXPECT_TRUE(app.validate()) << apps::to_string(kind);
    EXPECT_EQ(st.guard.violations, 0u) << apps::to_string(kind);
    EXPECT_TRUE(st.guard_violations.empty());
    EXPECT_GT(st.guard.checks, 0u);
  }
}

}  // namespace
}  // namespace tflux
