// sim-figs: the single-threaded discrete-event simulator behind every
// paper figure, with no native runtime. One unit is one pass that
// simulates the Figure 6 Medium column at 4 kernels the way the figure
// bench does it (machine::xeon_soft(4), best of unroll 8/16/32/64,
// timing plane plus sequential baseline), then TFluxHard runs of TRAPEZ
// Large at unroll 1 on 16 kernels (machine::bagle_sparc(16)), which
// carry the hardware TSU and event path. Every simulated cycle count
// must equal the committed figure cell; the seed sets the app order of
// every pass.
#include <memory>

#include "apps/suite.h"
#include "machine/config.h"
#include "machine/machine.h"
#include "stats.h"
#include "workload.h"

namespace tflux::bench {

namespace {

struct Expected {
  core::Cycles parallel;
  core::Cycles baseline;
};

// BENCH_fig6.json, kernels 4: (parallel_cycles, baseline_cycles).
Expected fig6_cell(apps::AppKind kind, bool small) {
  switch (kind) {
    case apps::AppKind::kTrapez:
      return small ? Expected{3992878, 15728640} : Expected{16133226, 62914560};
    case apps::AppKind::kMmult:
      return small ? Expected{54556798, 211714048}
                   : Expected{423207552, 1666842624};
    case apps::AppKind::kQsort:
      return small ? Expected{856081, 3412175} : Expected{1804803, 7304351};
    case apps::AppKind::kSusan:
      return small ? Expected{6083664, 23996160} : Expected{24099799, 95984640};
    default:  // FFT
      return small ? Expected{61174, 154368} : Expected{203784, 694272};
  }
}

// TFluxHard TRAPEZ at unroll 1 on bagle_sparc(16), tsu_capacity 512
// (Large; Small for the tiny inputs), recorded at this benchmark's
// introduction.
constexpr core::Cycles kHardTrapezLarge = 17909109;
constexpr core::Cycles kHardTrapezSmall = 1119528;

// TFluxHard runs per pass: about a third of the pass's simulator time.
constexpr int kHardRuns = 4;

struct SimApp {
  std::string name;
  apps::AppKind kind;
  std::vector<std::unique_ptr<apps::AppRun>> builds;  ///< one per unroll
};

struct SimState {
  std::vector<SimApp> apps;
  std::unique_ptr<apps::AppRun> hard;
};

}  // namespace

WorkloadResult run_sim_figs(const RunConfig& config) {
  WorkloadResult result;
  SpanRecorder spans;
  spans.set_enabled(config.trace);
  const apps::SizeClass size =
      config.tiny ? apps::SizeClass::kSmall : apps::SizeClass::kMedium;
  const machine::MachineConfig soft = machine::xeon_soft(4);
  const machine::MachineConfig hard = machine::bagle_sparc(16);

  auto expected = [&config](const std::string& name, core::Cycles recorded) {
    const auto it = config.expected_cycles.find(name);
    return it == config.expected_cycles.end() ? recorded : it->second;
  };

  SimState state = repeated_setup(result.metrics, [&] {
    SpanRecorder::Scope setup(spans, "bench.setup");
    SimState s;
    for (apps::AppKind kind : apps::table1_apps()) {
      SimApp a{apps::to_string(kind), kind, {}};
      for (std::uint32_t unroll : {8u, 16u, 32u, 64u}) {
        apps::DdmParams p;
        p.num_kernels = soft.num_kernels;
        p.unroll = unroll;
        p.tsu_capacity = 512;
        SpanRecorder::Scope span(spans, "apps.build", a.name);
        a.builds.push_back(std::make_unique<apps::AppRun>(
            apps::build_app(kind, size, apps::Platform::kNative, p)));
      }
      s.apps.push_back(std::move(a));
    }
    apps::DdmParams p;
    p.num_kernels = hard.num_kernels;
    p.unroll = 1;
    p.tsu_capacity = 512;
    SpanRecorder::Scope span(spans, "apps.build", "hard_TRAPEZ");
    s.hard = std::make_unique<apps::AppRun>(apps::build_app(
        apps::AppKind::kTrapez,
        config.tiny ? apps::SizeClass::kSmall : apps::SizeClass::kLarge,
        apps::Platform::kSimulated, p));
    return s;
  });
  Metrics& m = result.metrics;
  m["apps.build_ms"] = per_setup_ms(spans, "apps.build");

  std::uint64_t accesses = 0;
  std::uint64_t dthreads = 0;
  auto simulate = [&](const machine::MachineConfig& cfg,
                      const core::Program& program, const std::string& name,
                      std::uint64_t pass) {
    SpanRecorder::Scope span(spans, "machine.run", name, pass);
    machine::Machine machine(cfg, program, /*invoke_bodies=*/false);
    const machine::MachineStats st = machine.run();
    if (spans.enabled()) {
      accesses += st.mem.accesses();
      dthreads += st.threads_executed;
    }
    return st.total_cycles;
  };

  auto pass = [&](std::uint64_t i) {
    const std::vector<std::size_t> order =
        seeded_order(state.apps.size(), config.seed, i);
    SpanRecorder::Scope span(spans, "bench.unit", "", i);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k : order) {
      const SimApp& a = state.apps[k];
      Expected best{0, 0};
      for (const auto& build : a.builds) {
        const core::Cycles cycles = simulate(soft, build->program, a.name, i);
        core::Cycles baseline = 0;
        {
          SpanRecorder::Scope seq(spans, "machine.sequential", a.name, i);
          baseline = machine::simulate_sequential(soft, build->sequential_plan);
        }
        if (best.parallel == 0 || cycles < best.parallel) best = {cycles, baseline};
      }
      const Expected want = fig6_cell(a.kind, config.tiny);
      result.check(best.parallel == expected(a.name, want.parallel) &&
                       best.baseline == want.baseline,
                   a.name + " cycles " + std::to_string(best.parallel) + "/" +
                       std::to_string(best.baseline));
      if (spans.enabled()) m["machine.cycles." + a.name] = double(best.parallel);
    }
    for (int r = 0; r < (config.tiny ? 1 : kHardRuns); ++r) {
      const core::Cycles cycles =
          simulate(hard, state.hard->program, "hard_TRAPEZ", i);
      const core::Cycles want = expected(
          "hard_TRAPEZ", config.tiny ? kHardTrapezSmall : kHardTrapezLarge);
      result.check(cycles == want,
                   "hard_TRAPEZ cycles " + std::to_string(cycles));
      if (spans.enabled()) m["machine.cycles.hard_TRAPEZ"] = double(cycles);
    }
    return seconds_since(t0) * 1e3;
  };

  const Phases phases = measure_units(config, spans, m, 3, pass);
  if (config.trace) {
    const double passes = static_cast<double>(phases.traced.size());
    for (const SimApp& a : state.apps) {
      m["machine.run_ms." + a.name] = spans.total_ms("machine.run", a.name) / passes;
    }
    m["machine.run_ms.hard_TRAPEZ"] =
        spans.total_ms("machine.run", "hard_TRAPEZ") / passes;
    m["machine.seq_ms"] = spans.total_ms("machine.sequential") / passes;
    const double sim_s = spans.total_ms("machine.run") / 1e3;
    m["machine.accesses_per_s"] = ratio(static_cast<double>(accesses), sim_s);
    m["machine.dthreads_per_s"] = ratio(static_cast<double>(dthreads), sim_s);
  }
  finish(result, config, spans);
  return result;
}

}  // namespace tflux::bench
