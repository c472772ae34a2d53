// Managed data-plane tests on the native TFluxSoft runtime: results
// stay sequential-identical under affinity placement across apps x
// shard counts x the --no-dataplane ablation; the forwarding /
// affinity statistics reconcile EXACTLY against an offline ddmcheck
// replay of the execution trace; arc-free programs fall back to
// all-cold placement; and zero-byte footprint ranges never produce a
// forwarded byte end-to-end.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/suite.h"
#include "core/builder.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "runtime/runtime.h"

namespace tflux {
namespace {

std::uint64_t total_forwards(const runtime::RuntimeStats& st) {
  std::uint64_t n = 0;
  for (const auto& k : st.kernels) n += k.forwards;
  return n;
}

std::uint64_t total_bytes_forwarded(const runtime::RuntimeStats& st) {
  std::uint64_t n = 0;
  for (const auto& k : st.kernels) n += k.bytes_forwarded;
  return n;
}

// ---------------------------------------------------------------------------
// Determinism: affinity placement (and its ablation) never changes
// results, with and without sharding.
// ---------------------------------------------------------------------------

// The parameter prints as its raw bytes (and so names the test case);
// the padding is spelled out and zeroed so those names are stable. One
// TSU group is spelled `shards = 0` for the same reason (groups_of).
struct SweepConfig {
  apps::AppKind app;
  std::uint8_t pad0 = 0;
  std::uint16_t shards;
  bool dataplane;
  std::uint8_t pad1 = 0;
};
static_assert(sizeof(SweepConfig) == 6);

SweepConfig sweep(apps::AppKind app, std::uint16_t shards, bool dataplane) {
  return {.app = app, .shards = shards, .dataplane = dataplane};
}

std::uint16_t groups_of(std::uint16_t shards) {
  return shards == 0 ? 1 : shards;
}

class DataPlaneSweepTest : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(DataPlaneSweepTest, AffinityRunsValidate) {
  const SweepConfig& cfg = GetParam();
  apps::DdmParams params;
  params.num_kernels = 4;
  params.unroll = 8;
  params.tsu_capacity = 64;  // force several DDM Blocks
  apps::AppRun run = apps::build_app(cfg.app, apps::SizeClass::kSmall,
                                     apps::Platform::kSimulated, params);

  runtime::RuntimeOptions options;
  options.num_kernels = params.num_kernels;
  options.run.policy = core::PolicyKind::kAffinity;
  options.run.tsu_groups = groups_of(cfg.shards);
  options.run.dataplane = cfg.dataplane;
  runtime::Runtime rt(run.program, options);
  const runtime::RuntimeStats stats = rt.run();

  EXPECT_TRUE(run.validate()) << run.name;
  // Every application dispatch is classified exactly once - or not at
  // all when the plane is ablated away.
  const std::uint64_t classified = stats.emulator.affinity_hits +
                                   stats.emulator.affinity_misses +
                                   stats.emulator.affinity_cold;
  if (cfg.dataplane) {
    EXPECT_EQ(classified, stats.total_app_threads_executed());
  } else {
    EXPECT_EQ(classified, 0u);
    EXPECT_EQ(total_forwards(stats), 0u);
    EXPECT_EQ(total_bytes_forwarded(stats), 0u);
    EXPECT_EQ(stats.emulator.cross_shard_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AppsByShardsByPlane, DataPlaneSweepTest,
    ::testing::Values(sweep(apps::AppKind::kSusanPipe, 0, true),
                      sweep(apps::AppKind::kSusanPipe, 0, false),
                      sweep(apps::AppKind::kSusanPipe, 2, true),
                      sweep(apps::AppKind::kSusanPipe, 2, false),
                      sweep(apps::AppKind::kMmult, 0, true),
                      sweep(apps::AppKind::kMmult, 2, true),
                      sweep(apps::AppKind::kQsort, 0, true),
                      sweep(apps::AppKind::kQsort, 2, false),
                      sweep(apps::AppKind::kFft, 2, true)));

// ---------------------------------------------------------------------------
// The pipeline workload actually exercises the plane: payload moves,
// and warm placement finds at least some of it.
// ---------------------------------------------------------------------------

TEST(DataPlanePipelineTest, PipelineForwardsBytesAndScoresHits) {
  apps::DdmParams params;
  params.num_kernels = 4;
  apps::AppRun run =
      apps::build_app(apps::AppKind::kSusanPipe, apps::SizeClass::kSmall,
                      apps::Platform::kSimulated, params);

  runtime::RuntimeOptions options;
  options.num_kernels = params.num_kernels;
  options.run.policy = core::PolicyKind::kAffinity;
  runtime::Runtime rt(run.program, options);
  const runtime::RuntimeStats stats = rt.run();

  EXPECT_TRUE(run.validate());
  EXPECT_GT(total_forwards(stats), 0u);
  EXPECT_GT(total_bytes_forwarded(stats), 0u);
  EXPECT_GT(stats.emulator.affinity_hits, 0u);
}

// ---------------------------------------------------------------------------
// Reconciliation: the live counters must match an offline ddmcheck
// replay of the trace EXACTLY, under flat and sharded topologies.
// ---------------------------------------------------------------------------

struct ReplayConfig {
  core::PolicyKind policy;
  std::uint16_t shards;
};

class DataPlaneReplayTest : public ::testing::TestWithParam<ReplayConfig> {};

TEST_P(DataPlaneReplayTest, TraceReplayReconcilesExactly) {
  const ReplayConfig& cfg = GetParam();
  apps::DdmParams params;
  params.num_kernels = 4;
  apps::AppRun run =
      apps::build_app(apps::AppKind::kSusanPipe, apps::SizeClass::kSmall,
                      apps::Platform::kSimulated, params);

  core::ExecTrace trace;
  runtime::RuntimeOptions options;
  options.num_kernels = params.num_kernels;
  options.run.policy = cfg.policy;
  options.run.tsu_groups = groups_of(cfg.shards);
  options.trace = &trace;
  runtime::Runtime rt(run.program, options);
  const runtime::RuntimeStats stats = rt.run();
  EXPECT_TRUE(run.validate());

  const core::CheckReport report = core::check_trace(run.program, trace);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.dataplane.forwards, total_forwards(stats));
  EXPECT_EQ(report.dataplane.bytes_forwarded, total_bytes_forwarded(stats));
  EXPECT_EQ(report.dataplane.affinity_hits, stats.emulator.affinity_hits);
  EXPECT_EQ(report.dataplane.affinity_misses,
            stats.emulator.affinity_misses);
  EXPECT_EQ(report.dataplane.affinity_cold, stats.emulator.affinity_cold);
  EXPECT_EQ(report.dataplane.cross_shard_bytes,
            stats.emulator.cross_shard_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesByShards, DataPlaneReplayTest,
    ::testing::Values(ReplayConfig{core::PolicyKind::kAffinity, 0},
                      ReplayConfig{core::PolicyKind::kAffinity, 2},
                      ReplayConfig{core::PolicyKind::kLocality, 0},
                      ReplayConfig{core::PolicyKind::kHier, 2}),
    [](const ::testing::TestParamInfo<ReplayConfig>& info) {
      return std::string(core::to_string(info.param.policy)) + "_s" +
             std::to_string(info.param.shards);
    });

// ---------------------------------------------------------------------------
// Forced-cold fallback: SUSAN's phases synchronize through block
// barriers alone (no arcs carry payload), so the plane records
// nothing and every placement is cold - but the run still validates
// and still classifies every dispatch.
// ---------------------------------------------------------------------------

TEST(DataPlaneColdTest, ArcFreeProgramsFallBackToColdPlacement) {
  apps::DdmParams params;
  params.num_kernels = 4;
  params.tsu_capacity = 64;
  apps::AppRun run =
      apps::build_app(apps::AppKind::kSusan, apps::SizeClass::kSmall,
                      apps::Platform::kSimulated, params);

  runtime::RuntimeOptions options;
  options.num_kernels = params.num_kernels;
  options.run.policy = core::PolicyKind::kAffinity;
  runtime::Runtime rt(run.program, options);
  const runtime::RuntimeStats stats = rt.run();

  EXPECT_TRUE(run.validate());
  EXPECT_EQ(stats.emulator.affinity_hits, 0u);
  EXPECT_EQ(stats.emulator.affinity_misses, 0u);
  EXPECT_EQ(stats.emulator.affinity_cold,
            stats.total_app_threads_executed());
  EXPECT_EQ(total_forwards(stats), 0u);
  EXPECT_EQ(total_bytes_forwarded(stats), 0u);
}

// ---------------------------------------------------------------------------
// Zero-byte ranges end-to-end: a producer whose footprint declares an
// empty write range forwards exactly the nonzero payload - never a
// zero-length copy - and the replay agrees.
// ---------------------------------------------------------------------------

TEST(DataPlaneZeroByteTest, EmptyRangesNeverForwardBytes) {
  core::ProgramBuilder b("zero_e2e");
  const core::BlockId blk = b.add_block();
  core::Footprint wp;
  wp.write(0x1000, 64);
  wp.write(0x9000, 0);  // declared but empty
  const core::ThreadId p = b.add_thread(blk, "p", {}, std::move(wp));
  core::Footprint r1;
  r1.read(0x1000, 64);
  const core::ThreadId c1 = b.add_thread(blk, "c1", {}, std::move(r1));
  core::Footprint r2;
  r2.read(0x9000, 0);  // consumes only the empty range
  const core::ThreadId c2 = b.add_thread(blk, "c2", {}, std::move(r2));
  b.add_arc(p, c1);
  b.add_arc(p, c2);
  core::Program program = b.build({.num_kernels = 2});

  core::ExecTrace trace;
  runtime::RuntimeOptions options;
  options.num_kernels = 2;
  options.run.policy = core::PolicyKind::kAffinity;
  options.trace = &trace;
  runtime::Runtime rt(program, options);
  const runtime::RuntimeStats stats = rt.run();

  // Only the 64 real bytes move; the empty range adds nothing.
  EXPECT_EQ(total_bytes_forwarded(stats), 64u);
  const core::CheckReport report = core::check_trace(program, trace);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.dataplane.bytes_forwarded, 64u);
  EXPECT_EQ(report.dataplane.forwards, total_forwards(stats));
}

}  // namespace
}  // namespace tflux
