// Microbenchmarks of the native TFluxSoft runtime primitives
// (google-benchmark).
//
// The paper's section 3.2 argues the Kernel<->DThread transition is
// minimal because Kernel and DThread code share one function;
// BM_NullDThread measures our equivalent: the full per-DThread cost
// (mailbox take, body call, Local-TSU publish, emulator update,
// dispatch) with empty bodies. Every benchmark that touches a hot-path
// structure carries a `lockfree` dimension so the SPSC-ring fast path
// can be compared against the paper-faithful mutex/try-lock baseline
// (RunOptions::lockfree == false).
//
// `--json <path>` mirrors the results into google-benchmark's JSON
// format (bench/run_benchmarks.sh collects them at the repo root).
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/builder.h"
#include "json_out.h"
#include "runtime/lane_tub.h"
#include "runtime/mailbox.h"
#include "runtime/runtime.h"
#include "runtime/sync_memory.h"
#include "runtime/tub.h"

namespace {

using namespace tflux;

/// Full runtime execution of `threads` empty DThreads per iteration:
/// the per-item time is the whole DThread lifecycle overhead, on
/// either hot path (lockfree=1 rings+lanes, lockfree=0 mutex TUB).
void BM_NullDThread(benchmark::State& state) {
  const auto kernels = static_cast<std::uint16_t>(state.range(0));
  const bool lockfree = state.range(1) != 0;
  constexpr int kThreads = 4096;
  for (auto _ : state) {
    state.PauseTiming();
    core::ProgramBuilder b("null");
    const core::BlockId blk = b.add_block();
    for (int i = 0; i < kThreads; ++i) {
      b.add_thread(blk, "t", [](const core::ExecContext&) {});
    }
    core::Program p = b.build(core::BuildOptions{.num_kernels = kernels});
    state.ResumeTiming();

    runtime::Runtime rt(p, runtime::RuntimeOptions{
                               .num_kernels = kernels,
                               .run = {.lockfree = lockfree}});
    rt.run();
  }
  state.SetItemsProcessed(state.iterations() * kThreads);
}
BENCHMARK(BM_NullDThread)
    ->ArgsProduct({{1, 2, 4}, {1, 0}})
    ->ArgNames({"kernels", "lockfree"})
    ->Unit(benchmark::kMillisecond);

/// Single-producer publish+drain round trip through the TUB structure
/// itself: per-kernel SPSC lane (lockfree=1) vs the segmented
/// try-lock Tub (lockfree=0).
void BM_TubPublishDrain(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  const bool lockfree = state.range(1) != 0;
  std::unique_ptr<runtime::TubQueue> tub;
  if (lockfree) {
    tub = std::make_unique<runtime::LaneTub>(/*num_lanes=*/1,
                                             /*lane_capacity=*/256);
  } else {
    tub = std::make_unique<runtime::Tub>(8, 256);
  }
  std::vector<runtime::TubEntry> batch(
      batch_size, runtime::TubEntry{runtime::TubEntry::Kind::kUpdate, 7});
  std::vector<runtime::TubEntry> out;
  for (auto _ : state) {
    tub->publish(batch, 0);
    out.clear();
    benchmark::DoNotOptimize(tub->drain(out));
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_TubPublishDrain)
    ->ArgsProduct({{1, 16, 128}, {1, 0}})
    ->ArgNames({"batch", "lockfree"});

/// Mailbox put/take round trip: SPSC ring + parker vs mutex+condvar.
void BM_MailboxPutTake(benchmark::State& state) {
  const bool lockfree = state.range(0) != 0;
  runtime::Mailbox mb(lockfree, /*capacity=*/1024);
  for (auto _ : state) {
    mb.put(42);
    benchmark::DoNotOptimize(mb.take());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MailboxPutTake)->Arg(1)->Arg(0)->ArgNames({"lockfree"});

/// The emulator's routing fast path asks every mailbox whether it is
/// backlogged before choosing a kernel; this is that probe.
void BM_MailboxProbe(benchmark::State& state) {
  const bool lockfree = state.range(0) != 0;
  runtime::Mailbox mb(lockfree, /*capacity=*/1024);
  mb.put(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mb.size());
    benchmark::DoNotOptimize(mb.probably_empty());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MailboxProbe)->Arg(1)->Arg(0)->ArgNames({"lockfree"});

core::Program make_wide_program(std::uint16_t kernels, int width) {
  core::ProgramBuilder b("wide");
  const core::BlockId blk = b.add_block();
  for (int i = 0; i < width; ++i) {
    b.add_thread(blk, "t", {});
  }
  return b.build(core::BuildOptions{.num_kernels = kernels});
}

/// Ready Count decrement through the TKT (Thread Indexing) vs the
/// sequential SM search it replaces (paper section 4.2).
void BM_SmDecrement(benchmark::State& state) {
  const bool use_tkt = state.range(0) != 0;
  const int width = static_cast<int>(state.range(1));
  core::Program program = make_wide_program(8, width);
  const core::ShardMap map(8, 1);
  runtime::SyncMemoryGroup sm(program, map);
  std::uint64_t steps = 0;
  std::size_t next = 0;
  auto load_block0 = [&sm] {
    sm.preload_shadow(0, /*group=*/0);
    sm.promote_shadow(/*group=*/0);
  };
  load_block0();
  for (auto _ : state) {
    // Cycle through threads; reload the block when all counts (all 0
    // already - threads have no producers, decrement hits the outlet
    // path) - use the outlet which has width producers.
    const core::ThreadId outlet = program.block(0).outlet;
    benchmark::DoNotOptimize(sm.decrement(outlet, use_tkt, &steps));
    if (++next == static_cast<std::size_t>(width)) {
      next = 0;
      load_block0();
    }
  }
  state.counters["search_steps_per_op"] = benchmark::Counter(
      static_cast<double>(steps),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SmDecrement)
    ->ArgsProduct({{0, 1}, {64, 512, 4096}})
    ->ArgNames({"tkt", "threads"});

}  // namespace

// BENCHMARK_MAIN plus the repo-wide `--json <path>` flag, translated
// into google-benchmark's own JSON reporter.
int main(int argc, char** argv) {
  const std::string json_path = tflux::bench::parse_json_flag(argc, argv);
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string fmt_flag;
  if (!json_path.empty()) {
    out_flag = "--benchmark_out=" + json_path;
    fmt_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
