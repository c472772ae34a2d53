// soft-suite: the paper's own use on the native runtime. One unit is
// one validated warm run of each of the six apps, each app holding its
// own resident Runtime, at sizes that take a few ms each. DThread
// bodies do most of the work; SUSANPIPE and QSORT exercise the data
// plane's forwarding. The seed sets the app order of every unit.
#include <memory>

#include "apps/suite.h"
#include "core/scheduler.h"
#include "runtime_tally.h"
#include "stats.h"
#include "workload.h"

namespace tflux::bench {

namespace {

// Two Kernels plus one TSU Emulator: the fourth CPU of a 4-CPU host is
// left to the OS and the measuring process, as the paper reserves a
// core for the OS.
constexpr std::uint16_t kKernels = 2;

struct SuiteApp {
  std::string name;
  std::unique_ptr<apps::AppRun> app;
  std::unique_ptr<runtime::Runtime> runtime;
};

apps::SizeClass size_of(apps::AppKind kind, bool tiny) {
  if (tiny) return apps::SizeClass::kSmall;
  switch (kind) {
    case apps::AppKind::kTrapez:
    case apps::AppKind::kQsort:
    case apps::AppKind::kFft:
      return apps::SizeClass::kLarge;
    default:
      return apps::SizeClass::kSmall;
  }
}

/// Time one warm run (input reset outside the timed region).
runtime::RuntimeStats timed_run(SuiteApp& a, SpanRecorder& spans,
                                std::uint64_t unit, double& ms) {
  if (a.app->reset) a.app->reset();
  SpanRecorder::Scope span(spans, "runtime.run", a.name, unit);
  const Clock::time_point t0 = Clock::now();
  runtime::RuntimeStats st = a.runtime->run();
  ms = seconds_since(t0) * 1e3;
  return st;
}

/// Check one run's output, and that every DThread ran: the output
/// buffers persist between runs, so validation alone would pass a run
/// that skipped DThreads after an earlier one filled them.
void check_run(WorkloadResult& result, apps::AppRun& app,
               const runtime::RuntimeStats& st, const std::string& what) {
  result.check(app.validate(), app.name + " " + what + " validation");
  const std::uint64_t ran = st.total_app_threads_executed();
  result.check(ran == app.program.num_app_threads(),
               app.name + " " + what + " ran " + std::to_string(ran) + " of " +
                   std::to_string(app.program.num_app_threads()) +
                   " DThreads");
}

}  // namespace

WorkloadResult run_soft_suite(const RunConfig& config) {
  WorkloadResult result;
  SpanRecorder spans;
  spans.set_enabled(config.trace);

  apps::DdmParams params;
  params.num_kernels = kKernels;
  params.unroll = 16;
  runtime::RuntimeOptions options;
  options.num_kernels = kKernels;

  std::vector<SuiteApp> suite = repeated_setup(result.metrics, [&] {
    SpanRecorder::Scope setup(spans, "bench.setup");
    std::vector<SuiteApp> s;
    for (apps::AppKind kind : apps::all_apps()) {
      SuiteApp a;
      a.name = apps::to_string(kind);
      {
        SpanRecorder::Scope span(spans, "apps.build", a.name);
        a.app = std::make_unique<apps::AppRun>(apps::build_app(
            kind, size_of(kind, config.tiny), apps::Platform::kNative, params));
      }
      {
        SpanRecorder::Scope span(spans, "runtime.construct", a.name);
        a.runtime = std::make_unique<runtime::Runtime>(a.app->program, options);
      }
      check_run(result, *a.app, a.runtime->run(), "warm-up");
      s.push_back(std::move(a));
    }
    return s;
  });
  Metrics& m = result.metrics;
  m["apps.build_ms"] = per_setup_ms(spans, "apps.build");
  m["runtime.construct_ms"] = per_setup_ms(spans, "runtime.construct");

  std::uint64_t threads_per_unit = 0;
  for (const SuiteApp& a : suite) {
    threads_per_unit += a.app->program.num_app_threads();
  }

  RuntimeTally tally;
  auto unit = [&](std::uint64_t i) {
    const std::vector<std::size_t> order =
        seeded_order(suite.size(), config.seed, i);
    SpanRecorder::Scope span(spans, "bench.unit", "", i);
    double unit_ms = 0.0;
    for (std::size_t k : order) {
      SuiteApp& a = suite[k];
      double ms = 0.0;
      const runtime::RuntimeStats st = timed_run(a, spans, i, ms);
      unit_ms += ms;
      if (spans.enabled()) tally.add(st);
      check_run(result, *a.app, st, "timed run");
    }
    return unit_ms;
  };

  const Phases phases = measure_units(config, spans, m, 10, unit);
  if (config.trace) {
    const std::vector<double>& traced = phases.traced;
    tally.write(m, traced.size());
    for (const SuiteApp& a : suite) {
      m["runtime.run_ms." + a.name] =
          median(spans.durations_ms("runtime.run", a.name));
    }
    const double p50 = median(traced);
    m["runtime.ns_per_dthread"] =
        ratio(p50 * 1e6, static_cast<double>(threads_per_unit));

    // The same pass on one host thread (core::ReferenceScheduler): the
    // serial baseline of runtime.efficiency.
    std::vector<double> serial;
    for (int rep = 0; rep < 3; ++rep) {
      double pass_ms = 0.0;
      for (SuiteApp& a : suite) {
        if (a.app->reset) a.app->reset();
        SpanRecorder::Scope span(spans, "apps.serial", a.name);
        const Clock::time_point t0 = Clock::now();
        core::ReferenceScheduler(a.app->program, kKernels).run();
        pass_ms += seconds_since(t0) * 1e3;
        result.check(a.app->validate(), a.name + " serial validation");
      }
      serial.push_back(pass_ms);
    }
    m["apps.serial_ms"] = median(serial);
    m["runtime.efficiency"] = ratio(median(serial), kKernels * p50);
  }
  finish(result, config, spans);
  return result;
}

}  // namespace tflux::bench
