// Reproduces the section 4.2 design-choice claims about the software
// TSU (google-benchmark):
//
//  - the segmented try-lock TUB: "to avoid long idle periods the TUB
//    is partitioned into segments... only one segment is locked by
//    each kernel at any time point". Sweeping the segment count under
//    a real multi-kernel run shows try-lock contention falling as
//    segments are added.
//
//  - Thread Indexing (the TKT): "allows the TSU Emulator to directly
//    access the correct SM, consequently eliminating any unnecessary
//    search operation". Disabling it makes the emulator pay a
//    sequential SM search per Ready Count update.
//  - the lock-free hot path vs the paper's structures: the same
//    fan-out workload run end-to-end with RunOptions::lockfree
//    toggled - SPSC TUB lanes + ring mailboxes against the segmented
//    try-lock TUB + mutex mailboxes (the acceptance ablation for the
//    lock-free runtime rework).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/builder.h"
#include "json_out.h"
#include "runtime/runtime.h"

namespace {

using namespace tflux;

core::Program make_fanout_program(std::uint16_t kernels, int width) {
  // source -> width workers -> sink: every worker completion publishes
  // updates through the TUB, stressing it.
  core::ProgramBuilder b("fanout");
  const core::BlockId blk = b.add_block();
  const core::ThreadId source = b.add_thread(blk, "source", {});
  const core::ThreadId sink = b.add_thread(blk, "sink", {});
  for (int i = 0; i < width; ++i) {
    const core::ThreadId w = b.add_thread(blk, "w", {});
    b.add_arc(source, w);
    b.add_arc(w, sink);
  }
  return b.build(core::BuildOptions{.num_kernels = kernels});
}

void BM_TubSegments(benchmark::State& state) {
  const auto segments = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint16_t kKernels = 4;
  constexpr int kWidth = 4096;
  std::uint64_t trylock_failures = 0;
  std::uint64_t publishes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::Program p = make_fanout_program(kKernels, kWidth);
    state.ResumeTiming();
    runtime::RuntimeOptions options;
    options.num_kernels = kKernels;
    options.run.lockfree = false;  // segments only exist on the mutex path
    options.tub_segments = segments;
    const runtime::RuntimeStats st = runtime::Runtime(p, options).run();
    trylock_failures += st.tub.trylock_failures;
    publishes += st.tub.publishes;
  }
  state.SetItemsProcessed(state.iterations() * kWidth);
  state.counters["trylock_fail_per_1k_publishes"] = benchmark::Counter(
      publishes ? 1000.0 * static_cast<double>(trylock_failures) /
                      static_cast<double>(publishes)
                : 0.0);
}
BENCHMARK(BM_TubSegments)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

/// End-to-end Kernel -> TUB -> Emulator -> Mailbox round trips on the
/// two hot paths. lockfree=1 is the SPSC rework; lockfree=0 the
/// paper-faithful mutex/try-lock baseline.
void BM_LockfreeVsMutex(benchmark::State& state) {
  const bool lockfree = state.range(0) != 0;
  const auto kernels = static_cast<std::uint16_t>(state.range(1));
  constexpr int kWidth = 4096;
  std::uint64_t full_stalls = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::Program p = make_fanout_program(kernels, kWidth);
    state.ResumeTiming();
    runtime::RuntimeOptions options;
    options.num_kernels = kernels;
    options.run.lockfree = lockfree;
    const runtime::RuntimeStats st = runtime::Runtime(p, options).run();
    full_stalls += st.tub.full_skips;
  }
  state.SetItemsProcessed(state.iterations() * kWidth);
  state.counters["lane_full_stalls"] = benchmark::Counter(
      static_cast<double>(full_stalls), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LockfreeVsMutex)
    ->ArgsProduct({{1, 0}, {1, 2, 4}})
    ->ArgNames({"lockfree", "kernels"})
    ->Unit(benchmark::kMillisecond);

void BM_ThreadIndexing(benchmark::State& state) {
  const bool tkt = state.range(0) != 0;
  constexpr std::uint16_t kKernels = 4;
  constexpr int kWidth = 4096;
  std::uint64_t search_steps = 0;
  std::uint64_t updates = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::Program p = make_fanout_program(kKernels, kWidth);
    state.ResumeTiming();
    runtime::RuntimeOptions options;
    options.num_kernels = kKernels;
    options.thread_indexing = tkt;
    const runtime::RuntimeStats st = runtime::Runtime(p, options).run();
    search_steps += st.emulator.sm_search_steps;
    updates += st.emulator.updates_processed;
  }
  state.SetItemsProcessed(state.iterations() * kWidth);
  state.counters["sm_slots_scanned_per_update"] = benchmark::Counter(
      updates ? static_cast<double>(search_steps) /
                    static_cast<double>(updates)
              : 0.0);
}
BENCHMARK(BM_ThreadIndexing)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"tkt"})
    ->Unit(benchmark::kMillisecond);

// Software flavor of the section 4.1 extension: multiple TSU Emulator
// threads. On a many-core host the extra emulators parallelize Ready
// Count processing; on this 1-core machine the benchmark documents the
// overhead/benefit tradeoff rather than a speedup.
void BM_EmulatorGroups(benchmark::State& state) {
  const auto groups = static_cast<std::uint16_t>(state.range(0));
  constexpr std::uint16_t kKernels = 4;
  constexpr int kWidth = 4096;
  for (auto _ : state) {
    state.PauseTiming();
    core::Program p = make_fanout_program(kKernels, kWidth);
    state.ResumeTiming();
    runtime::RuntimeOptions options;
    options.num_kernels = kKernels;
    options.run.tsu_groups = groups;
    runtime::Runtime(p, options).run();
  }
  state.SetItemsProcessed(state.iterations() * kWidth);
}
BENCHMARK(BM_EmulatorGroups)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgNames({"groups"})
    ->Unit(benchmark::kMillisecond);

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
