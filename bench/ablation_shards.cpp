// Sharded-TSU ablation: flat single-domain TSU vs multiple clustered
// TSU groups with hierarchical stealing (--tsu-groups/--policy=hier).
//
// Part 1 (simulated): every Figure 6 app x kernel counts 4..128 on the
// Xeon-like soft-TSU machine. The flat baseline keeps one serial TSU
// port (the section 4.1 scalability wall: every Ready Count update of
// every kernel serializes on it); the sharded configuration gives each
// 8-kernel shard its own port, intra-shard latency stays the xeon_soft
// handshake, and cross-shard operations pay the doubled hop. Expected
// shape: parity (within noise) at 4-8 kernels where one shard
// suffices, and a widening sharded win from 16 kernels on as the flat
// port saturates.
//
// Part 2 (native): for every app x kernel configuration, run the real
// runtime sharded with --policy=hier, record an execution trace, and
// replay it through ddmcheck: the emulators' steal counters
// (home/sibling/remote) must reconcile exactly with the trace replay's
// independently classified dispatch tally. Any mismatch fails the
// bench (exit 1), so the committed BENCH_shards.json is evidence the
// stats plumbing is truthful, not just plausible. The home/sibling/
// remote split depends on the native schedule, so it is printed but
// kept out of the JSON: every JSON field is schedule-independent and
// the file regenerates byte for byte.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/suite.h"
#include "bench_util.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "json_out.h"
#include "machine/config.h"
#include "runtime/runtime.h"

namespace {

std::uint16_t shards_for(std::uint16_t kernels) {
  return kernels < 16 ? 1 : kernels / 8;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tflux;
  const std::string json_path = bench::parse_json_flag(argc, argv);
  bench::JsonWriter json("ablation_shards");

  const std::vector<std::uint16_t> kernel_counts = {4, 8, 16, 32, 64, 128};
  apps::DdmParams params;
  params.unroll = 32;  // TFluxSoft wants coarse DThreads (section 6.2.2)
  params.tsu_capacity = 1024;

  std::printf("=== Sharded TSU vs flat (Xeon soft-TSU machine, Small) "
              "===\n\n");
  std::printf("%-7s %-8s | %10s %10s %8s\n", "app", "kernels", "flat",
              "sharded", "shards");
  std::printf("-----------------+-------------------------------\n");

  bool ok = true;
  for (apps::AppKind app : apps::table1_apps()) {
    for (std::uint16_t k : kernel_counts) {
      params.num_kernels = k;
      machine::MachineConfig flat = machine::xeon_soft(k);
      flat.policy = core::PolicyKind::kLocality;
      const bench::SpeedupCell f =
          bench::measure(app, apps::SizeClass::kSmall,
                         apps::Platform::kNative, flat, params);

      const std::uint16_t shards = shards_for(k);
      machine::MachineConfig sharded =
          machine::xeon_soft_sharded(k, shards);
      sharded.policy = core::PolicyKind::kHier;
      const bench::SpeedupCell s =
          bench::measure(app, apps::SizeClass::kSmall,
                         apps::Platform::kNative, sharded, params);

      std::printf("%-7s %-8u | %9.2fx %9.2fx %8u\n",
                  apps::to_string(app), k, f.speedup, s.speedup, shards);
      json.begin_row();
      json.field("app", apps::to_string(app));
      json.field("kernels", static_cast<std::uint32_t>(k));
      json.field("shards", static_cast<std::uint32_t>(shards));
      json.field("flat_speedup", f.speedup);
      json.field("sharded_speedup", s.speedup);
      json.field("flat_cycles", static_cast<std::uint64_t>(f.parallel_cycles));
      json.field("sharded_cycles",
                 static_cast<std::uint64_t>(s.parallel_cycles));
    }
    std::printf("-----------------+-------------------------------\n");
  }

  // --- Part 2: native steal-stat reconciliation ----------------------
  std::printf("\n=== Native hier runs: emulator steal counters vs "
              "ddmcheck trace replay ===\n\n");
  std::printf("%-7s %-8s %-7s | %10s %6s %8s %8s %8s\n", "app", "kernels",
              "shards", "dispatches", "home", "sibling", "remote",
              "status");
  for (apps::AppKind app : apps::table1_apps()) {
    for (std::uint16_t k : kernel_counts) {
      const std::uint16_t shards = shards_for(k);
      apps::DdmParams native_params = params;
      native_params.num_kernels = k;
      apps::AppRun run =
          apps::build_app(app, apps::SizeClass::kSmall,
                          apps::Platform::kNative, native_params);

      runtime::RuntimeOptions rt;
      rt.num_kernels = k;
      rt.run.policy = core::PolicyKind::kHier;
      rt.run.tsu_groups = shards;
      core::ExecTrace trace;
      rt.trace = &trace;
      runtime::Runtime runtime(run.program, rt);
      const runtime::RuntimeStats st = runtime.run();

      const core::CheckReport report =
          core::check_trace(run.program, trace);
      std::uint64_t dispatches = 0, home = 0, local = 0, remote = 0,
                    steals_in = 0;
      for (const runtime::EmulatorStats& e : st.emulators) {
        dispatches += e.dispatches;
        home += e.home_dispatches;
        local += e.steal_local;
        remote += e.steal_remote;
        steals_in += e.steals_in;
      }
      const core::StealTally& t = report.steals;
      const bool row_ok = report.clean() && run.validate() &&
                          dispatches == t.dispatches && home == t.home &&
                          local == t.local && remote == t.remote &&
                          steals_in == remote;
      ok = ok && row_ok;
      std::printf("%-7s %-8u %-7u | %10llu %6llu %8llu %8llu %8s\n",
                  apps::to_string(app), k, shards,
                  static_cast<unsigned long long>(dispatches),
                  static_cast<unsigned long long>(home),
                  static_cast<unsigned long long>(local),
                  static_cast<unsigned long long>(remote),
                  row_ok ? "ok" : "MISMATCH");
      if (!row_ok) {
        std::printf("  replay tally: dispatches=%llu home=%llu local=%llu "
                    "remote=%llu findings=%zu\n",
                    static_cast<unsigned long long>(t.dispatches),
                    static_cast<unsigned long long>(t.home),
                    static_cast<unsigned long long>(t.local),
                    static_cast<unsigned long long>(t.remote),
                    report.findings.size());
      }
      json.begin_row();
      json.field("app", apps::to_string(app));
      json.field("kernels", static_cast<std::uint32_t>(k));
      json.field("shards", static_cast<std::uint32_t>(shards));
      json.field("native_dispatches", dispatches);
      json.field("reconciled", row_ok);
    }
  }

  std::printf("\nexpected shape: flat and sharded within noise at 4-8 "
              "kernels (one shard); from 16\nkernels the flat serial TSU "
              "port saturates and the per-shard ports pull ahead.\n");
  if (!ok) {
    std::printf("FAIL: steal counters did not reconcile with the trace "
                "replay\n");
    return 1;
  }
  return json.write_file(json_path) ? 0 : 2;
}
