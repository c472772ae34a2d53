// Managed data-plane ablation: SharedVariableBuffer forwarding +
// affinity dispatch vs the implicit-shared-memory baseline
// (--no-dataplane).
//
// Part 1 (simulated): the SUSANPIPE frame pipeline (Large) on the
// Xeon-like soft-TSU machine at 4..32 kernels, three configurations
// per kernel count: the data plane off (affinity degrades to the hier
// ladder - the ablation baseline), the data plane on with hier
// stealing only, and the full affinity placement. The pipeline's
// misaligned stage tilings (T -> 2T -> T strips) defeat static home
// assignment, so the warm-placement win comes from the plane alone.
// The acceptance gate requires >= 1.3x for dataplane+affinity over
// --no-dataplane at 8 and 16 kernels (deterministic timing plane, so
// the gate is stable). Past ~32 kernels the Large frame's 48 strips
// spread too thin for alignment and the win narrows - reported, not
// gated.
//
// Part 2 (simulated, Table-1 apps): the five paper benchmarks with the
// plane on vs off under their figure-6 policy. Their phases
// synchronize through block barriers (no payload-carrying arcs), so
// the plane must be timing-neutral: any drift beyond 2% fails the
// bench.
//
// Part 3 (native): traced SUSANPIPE runs, flat and sharded, replayed
// through ddmcheck: every forwarding / affinity counter the runtime
// reports must reconcile EXACTLY with the replay's independent
// DataPlaneTally. Any mismatch exits 1, so the committed
// BENCH_dataplane.json is evidence the stats plumbing is truthful.
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
  bench::JsonWriter json("ablation_dataplane");
  bool ok = true;

  // --- Part 1: SUSANPIPE, dataplane on/off x affinity/hier ----------
  const std::vector<std::uint16_t> kernel_counts = {4, 8, 16, 32};
  apps::DdmParams params;
  params.tsu_capacity = 1024;

  std::printf("=== SUSANPIPE (Large) on the Xeon soft-TSU machine ===\n\n");
  std::printf("%-8s | %12s %12s %12s %8s\n", "kernels", "no-dataplane",
              "dp+hier", "dp+affinity", "ratio");
  std::printf("---------+--------------------------------------------\n");
  for (std::uint16_t k : kernel_counts) {
    machine::MachineConfig nodp = machine::xeon_soft(k);
    nodp.policy = core::PolicyKind::kAffinity;  // degrades without plane
    nodp.dataplane = false;
    const bench::SpeedupCell off =
        bench::measure(apps::AppKind::kSusanPipe, apps::SizeClass::kLarge,
                       apps::Platform::kSimulated, nodp, params);

    machine::MachineConfig hier =
        machine::xeon_soft_sharded(k, shards_for(k));
    hier.policy = core::PolicyKind::kHier;
    const bench::SpeedupCell h =
        bench::measure(apps::AppKind::kSusanPipe, apps::SizeClass::kLarge,
                       apps::Platform::kSimulated, hier, params);

    machine::MachineConfig aff = machine::xeon_soft(k);
    aff.policy = core::PolicyKind::kAffinity;
    const bench::SpeedupCell a =
        bench::measure(apps::AppKind::kSusanPipe, apps::SizeClass::kLarge,
                       apps::Platform::kSimulated, aff, params);

    const double ratio =
        a.parallel_cycles == 0
            ? 0.0
            : static_cast<double>(off.parallel_cycles) /
                  static_cast<double>(a.parallel_cycles);
    // The acceptance gate: warm placement must be a real win where the
    // pipeline still has strips to align (8 and 16 kernels).
    const bool gated = (k == 8 || k == 16);
    const bool row_ok = !gated || ratio >= 1.3;
    ok = ok && row_ok;
    std::printf("%-8u | %11llu %12llu %12llu %7.3fx%s\n", k,
                static_cast<unsigned long long>(off.parallel_cycles),
                static_cast<unsigned long long>(h.parallel_cycles),
                static_cast<unsigned long long>(a.parallel_cycles), ratio,
                row_ok ? "" : "  FAIL(<1.3)");
    json.begin_row();
    json.field("app", "SUSANPIPE");
    json.field("kernels", static_cast<std::uint32_t>(k));
    json.field("no_dataplane_cycles",
               static_cast<std::uint64_t>(off.parallel_cycles));
    json.field("dp_hier_cycles",
               static_cast<std::uint64_t>(h.parallel_cycles));
    json.field("dp_affinity_cycles",
               static_cast<std::uint64_t>(a.parallel_cycles));
    json.field("affinity_vs_no_dataplane", ratio);
    json.field("gated", gated);
    json.field("row_ok", row_ok);
  }

  // --- Part 2: Table-1 apps must be timing-neutral ------------------
  std::printf("\n=== Table-1 apps: plane on vs off (must be within noise) "
              "===\n\n");
  std::printf("%-8s | %12s %12s %8s\n", "app", "dp-off", "dp-on", "drift");
  for (apps::AppKind app : apps::table1_apps()) {
    apps::DdmParams p1 = params;
    p1.unroll = 32;
    machine::MachineConfig off_cfg = machine::xeon_soft(8);
    off_cfg.dataplane = false;
    const bench::SpeedupCell off =
        bench::measure(app, apps::SizeClass::kSmall,
                       apps::Platform::kNative, off_cfg, p1);
    machine::MachineConfig on_cfg = machine::xeon_soft(8);
    const bench::SpeedupCell on =
        bench::measure(app, apps::SizeClass::kSmall,
                       apps::Platform::kNative, on_cfg, p1);
    const double drift =
        off.parallel_cycles == 0
            ? 0.0
            : static_cast<double>(on.parallel_cycles) /
                      static_cast<double>(off.parallel_cycles) -
                  1.0;
    const bool row_ok = drift < 0.02 && drift > -0.02;
    ok = ok && row_ok;
    std::printf("%-8s | %11llu %12llu %7.2f%%%s\n", apps::to_string(app),
                static_cast<unsigned long long>(off.parallel_cycles),
                static_cast<unsigned long long>(on.parallel_cycles),
                drift * 100.0, row_ok ? "" : "  FAIL(>2%)");
    json.begin_row();
    json.field("app", apps::to_string(app));
    json.field("kernels", 8u);
    json.field("no_dataplane_cycles",
               static_cast<std::uint64_t>(off.parallel_cycles));
    json.field("dp_cycles", static_cast<std::uint64_t>(on.parallel_cycles));
    json.field("drift_pct", drift * 100.0);
    json.field("row_ok", row_ok);
  }

  // --- Part 3: native counters vs ddmcheck trace replay -------------
  std::printf("\n=== Native SUSANPIPE: data-plane counters vs trace replay "
              "===\n\n");
  std::printf("%-8s %-7s | %10s %14s %8s %8s %8s\n", "kernels", "groups",
              "forwards", "bytes", "hits", "misses", "status");
  struct NativeCase {
    std::uint16_t kernels;
    std::uint16_t groups;
  };
  for (const NativeCase nc : {NativeCase{4, 1}, NativeCase{4, 2}}) {
    apps::DdmParams np = params;
    np.num_kernels = nc.kernels;
    apps::AppRun run =
        apps::build_app(apps::AppKind::kSusanPipe, apps::SizeClass::kSmall,
                        apps::Platform::kNative, np);

    core::ExecTrace trace;
    runtime::RuntimeOptions rt;
    rt.num_kernels = nc.kernels;
    rt.run.policy = core::PolicyKind::kAffinity;
    rt.run.tsu_groups = nc.groups;
    rt.trace = &trace;
    runtime::Runtime runtime(run.program, rt);
    const runtime::RuntimeStats st = runtime.run();

    std::uint64_t forwards = 0, bytes = 0;
    for (const runtime::KernelStats& ks : st.kernels) {
      forwards += ks.forwards;
      bytes += ks.bytes_forwarded;
    }
    const core::CheckReport report = core::check_trace(run.program, trace);
    const core::DataPlaneTally& t = report.dataplane;
    const bool row_ok =
        report.clean() && run.validate() && forwards == t.forwards &&
        bytes == t.bytes_forwarded &&
        st.emulator.affinity_hits == t.affinity_hits &&
        st.emulator.affinity_misses == t.affinity_misses &&
        st.emulator.affinity_cold == t.affinity_cold &&
        st.emulator.cross_shard_bytes == t.cross_shard_bytes &&
        st.emulator.affinity_hits > 0 && bytes > 0;
    ok = ok && row_ok;
    std::printf("%-8u %-7u | %10llu %14llu %8llu %8llu %8s\n", nc.kernels,
                nc.groups, static_cast<unsigned long long>(forwards),
                static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(st.emulator.affinity_hits),
                static_cast<unsigned long long>(st.emulator.affinity_misses),
                row_ok ? "ok" : "MISMATCH");
    if (!row_ok) {
      std::printf("  replay tally: forwards=%llu bytes=%llu hits=%llu "
                  "misses=%llu cold=%llu xshard=%llu findings=%zu\n",
                  static_cast<unsigned long long>(t.forwards),
                  static_cast<unsigned long long>(t.bytes_forwarded),
                  static_cast<unsigned long long>(t.affinity_hits),
                  static_cast<unsigned long long>(t.affinity_misses),
                  static_cast<unsigned long long>(t.affinity_cold),
                  static_cast<unsigned long long>(t.cross_shard_bytes),
                  report.findings.size());
    }
    json.begin_row();
    json.field("app", "SUSANPIPE");
    json.field("kernels", static_cast<std::uint32_t>(nc.kernels));
    // The artifact's "shards" key counts TSU groups, 0 for one group.
    json.field("shards", nc.groups >= 2 ? std::uint32_t{nc.groups} : 0u);
    json.field("native_forwards", forwards);
    json.field("native_bytes_forwarded", bytes);
    json.field("native_affinity_hits", st.emulator.affinity_hits);
    json.field("native_affinity_misses", st.emulator.affinity_misses);
    json.field("native_affinity_cold", st.emulator.affinity_cold);
    json.field("native_cross_shard_bytes", st.emulator.cross_shard_bytes);
    json.field("reconciled", row_ok);
  }

  std::printf("\nexpected shape: warm placement wins where consecutive "
              "frames reuse planes in\nplace (first-touch amortized, "
              "cache-to-cache traffic avoided); the Table-1 apps\nare "
              "barrier-synchronized and must not move at all.\n");
  if (!ok) {
    std::printf("FAIL: data-plane gate or reconciliation failed\n");
    return 1;
  }
  return json.write_file(json_path) ? 0 : 2;
}
