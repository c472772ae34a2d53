// soft-fine: a seeded synthetic graph of ~10^5 tiny DThreads on the
// native runtime (fine_graph.h), checked after every run against a
// sequential evaluation of the same graph.
#include <memory>

#include "core/scheduler.h"
#include "fine_graph.h"
#include "runtime_tally.h"
#include "stats.h"
#include "workload.h"

namespace tflux::bench {

namespace {

constexpr std::uint16_t kKernels = 2;  // plus one TSU Emulator (soft-suite)

struct FineState {
  FineGraph graph;
  std::vector<std::uint64_t> oracle;
  FineContext ctx;
  core::Program program;
  std::unique_ptr<runtime::Runtime> runtime;
};

}  // namespace

WorkloadResult run_soft_fine(const RunConfig& config) {
  WorkloadResult result;
  SpanRecorder spans;
  spans.set_enabled(config.trace);

  FineShape shape;
  if (config.tiny) {
    shape.blocks = 8;
    shape.threads_per_block = 250;
  }
  runtime::RuntimeOptions options;
  options.num_kernels = kKernels;

  auto check = [&result](FineState& s, const char* what) {
    const std::uint64_t bad = check_and_clear(s.ctx, s.oracle);
    result.check(bad == 0, std::string(what) + ": " + std::to_string(bad) +
                               " value(s) differ from the oracle");
  };

  std::unique_ptr<FineState> state = repeated_setup(result.metrics, [&] {
    SpanRecorder::Scope setup(spans, "bench.setup");
    auto s = std::make_unique<FineState>();
    {
      SpanRecorder::Scope span(spans, "apps.build", "generate+oracle");
      s->graph = generate_fine_graph(config.seed, shape);
      s->oracle = fine_oracle(s->graph);
    }
    s->ctx.graph = &s->graph;
    s->ctx.clocks.assign(kKernels, BodyClock{});
    {
      SpanRecorder::Scope span(spans, "core.build");
      s->program = build_fine_program(s->ctx, kKernels);
    }
    {
      SpanRecorder::Scope span(spans, "runtime.construct");
      s->runtime = std::make_unique<runtime::Runtime>(s->program, options);
    }
    s->runtime->run();  // warm-up
    check(*s, "warm-up run");
    return s;
  });
  Metrics& m = result.metrics;
  m["apps.build_ms"] = per_setup_ms(spans, "apps.build");
  m["core.build_ms"] = per_setup_ms(spans, "core.build");
  m["runtime.construct_ms"] = per_setup_ms(spans, "runtime.construct");

  RuntimeTally tally;
  auto unit = [&](std::uint64_t i) {
    SpanRecorder::Scope span(spans, "bench.unit", "", i);
    state->ctx.timing = spans.enabled();  // body clocks in traced units
    double ms = 0.0;
    runtime::RuntimeStats st;
    {
      SpanRecorder::Scope run(spans, "runtime.run", "", i);
      const Clock::time_point t0 = Clock::now();
      st = state->runtime->run();
      ms = seconds_since(t0) * 1e3;
    }
    if (spans.enabled()) tally.add(st);
    check(*state, "run");
    return ms;
  };

  const Phases phases = measure_units(config, spans, m, 10, unit);
  if (config.trace) {
    const std::vector<double>& traced = phases.traced;
    double body_ns = 0.0;
    for (const BodyClock& c : state->ctx.clocks) body_ns += c.ns;
    double traced_ms = 0.0;
    for (double v : traced) traced_ms += v;

    tally.write(m, traced.size());
    const double p50 = median(traced);
    m["runtime.ns_per_dthread"] =
        ratio(p50 * 1e6, static_cast<double>(state->graph.num_threads));
    m["runtime.body_share"] = ratio(body_ns, kKernels * traced_ms * 1e6);

    state->ctx.timing = false;
    std::vector<double> serial;
    for (int rep = 0; rep < 3; ++rep) {
      SpanRecorder::Scope span(spans, "apps.serial");
      const Clock::time_point t0 = Clock::now();
      core::ReferenceScheduler(state->program, kKernels).run();
      serial.push_back(seconds_since(t0) * 1e3);
      check(*state, "serial run");
    }
    m["apps.serial_ms"] = median(serial);
    m["runtime.efficiency"] = ratio(median(serial), kKernels * p50);
  }
  finish(result, config, spans);
  return result;
}

}  // namespace tflux::bench
