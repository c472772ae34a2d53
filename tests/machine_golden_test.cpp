// Golden simulated-cycle pins. Any change to cache replacement, MESI
// transitions, bus timing or event order moves at least one of these
// numbers. The Figure 6 cells are the committed BENCH_fig6.json values;
// the other pins were recorded from the same simulator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/suite.h"
#include "machine/config.h"
#include "machine/machine.h"

namespace tflux::machine {
namespace {

apps::AppRun build(apps::AppKind kind, apps::SizeClass size,
                   apps::Platform platform, std::uint16_t kernels,
                   std::uint32_t unroll, std::uint32_t tsu_capacity = 512) {
  apps::DdmParams p;
  p.num_kernels = kernels;
  p.unroll = unroll;
  p.tsu_capacity = tsu_capacity;
  return apps::build_app(kind, size, platform, p);
}

// BENCH_fig6.json, Small, 4 kernels: best parallel run over unroll
// 8/16/32/64 on xeon_soft(4), and the sequential baseline.
TEST(MachineGoldenTest, Figure6SmallFourKernels) {
  struct Cell {
    apps::AppKind kind;
    Cycles parallel;
    Cycles baseline;
  };
  const Cell cells[] = {
      {apps::AppKind::kTrapez, 3992878, 15728640},
      {apps::AppKind::kMmult, 54556798, 211714048},
      {apps::AppKind::kQsort, 856081, 3412175},
      {apps::AppKind::kSusan, 6083664, 23996160},
      {apps::AppKind::kFft, 61174, 154368},
  };
  const MachineConfig config = xeon_soft(4);
  for (const Cell& cell : cells) {
    SCOPED_TRACE(apps::to_string(cell.kind));
    Cycles best = 0;
    Cycles baseline = 0;
    for (std::uint32_t unroll : {8u, 16u, 32u, 64u}) {
      const apps::AppRun run =
          build(cell.kind, apps::SizeClass::kSmall, apps::Platform::kNative,
                config.num_kernels, unroll);
      const Cycles cycles =
          Machine(config, run.program, /*invoke_bodies=*/false)
              .run()
              .total_cycles;
      if (best == 0 || cycles < best) {
        best = cycles;
        baseline = simulate_sequential(config, run.sequential_plan);
      }
    }
    EXPECT_EQ(best, cell.parallel);
    EXPECT_EQ(baseline, cell.baseline);
  }
}

// The sim-figs TFluxHard pin: TRAPEZ Small, unroll 1, 16 kernels.
TEST(MachineGoldenTest, HardTrapezSmall) {
  const MachineConfig config = bagle_sparc(16);
  const apps::AppRun run =
      build(apps::AppKind::kTrapez, apps::SizeClass::kSmall,
            apps::Platform::kSimulated, config.num_kernels, 1);
  EXPECT_EQ(Machine(config, run.program, false).run().total_cycles,
            1119528u);
}

// BENCH_shards.json, TRAPEZ 32 kernels / 4 groups: the sharded
// soft-TSU machine under hierarchical stealing (clustered ownership,
// one port per group, the TSU-to-TSU link on cross-group operations).
TEST(MachineGoldenTest, ShardedSoftTrapezFourGroups) {
  MachineConfig config = xeon_soft_sharded(32, 4);
  config.policy = core::PolicyKind::kHier;
  const apps::AppRun run =
      build(apps::AppKind::kTrapez, apps::SizeClass::kSmall,
            apps::Platform::kNative, 32, 32, 1024);
  EXPECT_EQ(Machine(config, run.program, false).run().total_cycles,
            528086u);
  EXPECT_EQ(simulate_sequential(config, run.sequential_plan), 15728640u);
}

// The section 4.1 table's 27-kernel / 4-group cell
// (bench/ablation_tsu_groups): fine TRAPEZ on a hardware TSU slowed to
// 32 cycles per operation.
TEST(MachineGoldenTest, HardTrapezTwentySevenKernelsFourGroups) {
  MachineConfig config = bagle_sparc(27);
  config.tsu.op_cycles = 32;
  config.tsu.num_groups = 4;
  const apps::AppRun run =
      build(apps::AppKind::kTrapez, apps::SizeClass::kMedium,
            apps::Platform::kSimulated, 27, 2, 1024);
  const MachineStats st = Machine(config, run.program, false).run();
  EXPECT_EQ(st.total_cycles, 2706708u);
  EXPECT_EQ(st.tsu_intergroup_updates, 24578u);
  EXPECT_EQ(st.tsu_group_busy,
            (std::vector<Cycles>{797504, 272832, 272576, 231136}));
}

void expect_stats(const MemoryStats& got, const MemoryStats& want) {
  EXPECT_EQ(got.reads, want.reads);
  EXPECT_EQ(got.writes, want.writes);
  EXPECT_EQ(got.l1_hits, want.l1_hits);
  EXPECT_EQ(got.l1_misses, want.l1_misses);
  EXPECT_EQ(got.l2_hits, want.l2_hits);
  EXPECT_EQ(got.l2_misses, want.l2_misses);
  EXPECT_EQ(got.bus_transactions, want.bus_transactions);
  EXPECT_EQ(got.upgrades, want.upgrades);
  EXPECT_EQ(got.c2c_transfers, want.c2c_transfers);
  EXPECT_EQ(got.mem_fetches, want.mem_fetches);
  EXPECT_EQ(got.writebacks, want.writebacks);
  EXPECT_EQ(got.invalidations, want.invalidations);
  EXPECT_EQ(got.bus_busy_cycles, want.bus_busy_cycles);
  EXPECT_EQ(got.bus_wait_cycles, want.bus_wait_cycles);
}

MemoryStats soft_run_stats(apps::AppKind kind, std::uint32_t unroll) {
  const MachineConfig config = xeon_soft(4);
  const apps::AppRun run = build(kind, apps::SizeClass::kSmall,
                                 apps::Platform::kNative, config.num_kernels,
                                 unroll);
  return Machine(config, run.program, false).run().mem;
}

// MMULT Small, unroll 64, xeon_soft(4): L2 hits, memory fetches and bus
// queueing on a read-shared working set.
TEST(MachineGoldenTest, MmultMemoryStats) {
  MemoryStats want;
  want.reads = 270336;
  want.writes = 8192;
  want.l1_hits = 0;
  want.l1_misses = 278528;
  want.l2_hits = 229376;
  want.l2_misses = 49152;
  want.bus_transactions = 49152;
  want.upgrades = 0;
  want.c2c_transfers = 0;
  want.mem_fetches = 49152;
  want.writebacks = 0;
  want.invalidations = 0;
  want.bus_busy_cycles = 688128;
  want.bus_wait_cycles = 42;
  expect_stats(soft_run_stats(apps::AppKind::kMmult, 64), want);
}

// FFT Small, unroll 8, xeon_soft(4): the coherence paths MMULT leaves
// idle (upgrades, dirty peer supply, invalidations).
TEST(MachineGoldenTest, FftMemoryStats) {
  MemoryStats want;
  want.reads = 512;
  want.writes = 512;
  want.l1_hits = 384;
  want.l1_misses = 640;
  want.l2_hits = 192;
  want.l2_misses = 448;
  want.bus_transactions = 640;
  want.upgrades = 192;
  want.c2c_transfers = 192;
  want.mem_fetches = 256;
  want.writebacks = 192;
  want.invalidations = 192;
  want.bus_busy_cycles = 7424;
  want.bus_wait_cycles = 22768;
  expect_stats(soft_run_stats(apps::AppKind::kFft, 8), want);
}

}  // namespace
}  // namespace tflux::machine
