#include "tools/serve.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <sstream>
#include <thread>

#include "core/check.h"
#include "core/ddmtrace.h"
#include "core/error.h"
#include "core/executor.h"
#include "core/json.h"
#include "runtime/executor.h"
#include "runtime/runtime.h"
#include "sim/rng.h"
#include "tools/flags.h"

namespace tflux::tools {

using core::TFluxError;

namespace {

/// One completed request as the report sees it: open-loop latency is
/// measured from the request's *scheduled arrival*, not from when the
/// (possibly backpressured) submit finally went through - queueing
/// delay is part of what the serving bench exists to expose.
struct RequestOutcome {
  std::size_t program = 0;       ///< index into the registered mix
  double latency_seconds = 0.0;  ///< scheduled arrival -> completion
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  bool guard_clean = true;
};

Command serve_command(ServeOptions& o) {
  Flag apps_flag{"--apps", "a,b,c",
                 "benchmark mix, cycled round-robin (default "
                 "trapez,mmult,qsort)",
                 [&o](const std::string& value) {
                   o.apps.clear();
                   std::istringstream list(value);
                   std::string name;
                   while (std::getline(list, name, ',')) {
                     if (!name.empty()) o.apps.push_back(apps::parse_app(name));
                   }
                   if (o.apps.empty()) {
                     throw TFluxError("--apps expects at least one app");
                   }
                 }};
  return Command{
      "tflux_serve",
      "",
      {
          uint_flag("--pool", "N", "resident kernel pool size (default 8)",
                    o.pool_kernels, /*min_one=*/true),
          uint_flag("--width", "W",
                    "kernels per tenant partition (default 2); the pool "
                    "serves floor(N/W) programs concurrently",
                    o.partition_width, /*min_one=*/true),
          tsu_groups_flag(o.tsu_groups,
                          "clustered TSU groups per partition (default 1)"),
          uint_flag("--queue", "N", "admission queue bound (default 64)",
                    o.queue_capacity, /*min_one=*/true),
          uint_flag("--stage-depth", "N",
                    "instances admitted per partition at once (default 2)",
                    o.stage_depth, /*min_one=*/true),
          uint_flag("--requests", "N", "requests to replay (default 64)",
                    o.requests, /*min_one=*/true),
          double_flag("--rate", "R",
                      "open-loop arrival rate, requests/second "
                      "(exponential interarrivals; default 0 = closed "
                      "loop)",
                      o.rate),
          apps_flag,
          size_flag(o.size),
          unroll_flag(o.unroll, "loop unroll factor (default 4)"),
          tsu_capacity_flag(o.tsu_capacity,
                            "DThreads per DDM block (default 64)"),
          policy_flag(o.policy, "ready-thread policy (default locality)"),
          guard_flag(o.guard,
                     "per-instance ddmguard on every admitted run "
                     "(default off)"),
          no_dataplane_flag(o.dataplane,
                            "skip the per-instance managed data plane "
                            "(both modes)"),
          switch_flag("--serial",
                      "baseline: fresh full-pool Runtime per request, one "
                      "at a time (no executor)",
                      o.serial),
          switch_flag("--check-tenant",
                      "trace the mid-stream request and replay it through "
                      "ddmcheck (exact counter reconciliation) while the "
                      "other tenants are in flight",
                      o.check_midstream),
          trace_flag(o.trace_file,
                     "also save the mid-stream ddmtrace (needs "
                     "--check-tenant)"),
          switch_flag("--no-validate", "skip the post-drain result validation",
                      o.validate, false),
          uint_flag("--seed", "N", "arrival-schedule RNG seed (default 1)",
                    o.seed),
          json_flag(o.json_file, "write a JSON serving summary"),
      },
      ""};
}

}  // namespace

std::string serve_usage() {
  ServeOptions defaults;
  return usage_text(serve_command(defaults));
}

ServeOptions parse_serve_args(const std::vector<std::string>& args) {
  ServeOptions options;
  parse_command(serve_command(options), args, options.help);
  if (options.partition_width > options.pool_kernels) {
    throw TFluxError("tflux_serve: --width must be <= --pool");
  }
  if (!options.trace_file.empty() && !options.check_midstream) {
    throw TFluxError(
        "tflux_serve: --trace saves the mid-stream trace and requires "
        "--check-tenant");
  }
  return options;
}

int run_serve(const ServeOptions& options, std::ostream& out,
              ServeReport* report) {
  if (options.help) {
    out << serve_usage();
    return 0;
  }

  // Programs built once at the width they will run at: partition width
  // for the executor, the full pool for the serial baseline (which
  // gives the baseline every kernel - the comparison is resident
  // partitions vs per-request full-pool spawn, not narrow vs wide).
  const std::uint16_t run_width =
      options.serial ? options.pool_kernels : options.partition_width;
  apps::DdmParams params;
  params.num_kernels = run_width;
  params.unroll = options.unroll;
  params.tsu_capacity = options.tsu_capacity;

  // Registered program slots. The executor serializes runs of one
  // registered program (two concurrent runs would race on the buffers
  // its DThread bodies capture), so a mix of K programs caps
  // concurrency at K instances - fewer than the partition count
  // starves partitions. Registering ~2x partitions slots (cycling the
  // app kinds, each slot with its own buffers) keeps every partition
  // admissible. Slot count is a multiple of the kind count so request
  // i runs kind i % kinds in both modes - the identical stream.
  std::size_t slots = options.apps.size();
  if (!options.serial) {
    const std::size_t partitions =
        options.pool_kernels / options.partition_width;
    while (slots < 2 * partitions) slots += options.apps.size();
  }
  std::vector<std::shared_ptr<apps::AppRun>> mix;
  mix.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    mix.push_back(std::make_shared<apps::AppRun>(
        apps::build_app(options.apps[s % options.apps.size()], options.size,
                        apps::Platform::kNative, params)));
  }

  // Open-loop arrival schedule (seconds from stream start). Fixed up
  // front so executor and serial modes replay the identical stream.
  std::vector<double> arrivals(options.requests, 0.0);
  if (options.rate > 0.0) {
    sim::SplitMix64 rng(options.seed);
    double t = 0.0;
    for (std::uint32_t i = 0; i < options.requests; ++i) {
      const double u = rng.next_double();
      t += -std::log(1.0 - std::min(u, 0.999999)) / options.rate;
      arrivals[i] = t;
    }
  }

  const std::uint32_t checked_index =
      options.check_midstream ? options.requests / 2 : options.requests;
  core::ExecTrace midstream_trace;
  runtime::RuntimeStats midstream_stats;
  bool have_midstream = false;

  std::vector<RequestOutcome> outcomes(options.requests);
  std::vector<std::uint64_t> per_program_runs(mix.size(), 0);
  std::size_t rejected = 0;
  std::size_t queue_depth_peak = 0;
  std::vector<core::TenantShare> shares;
  double wall_seconds = 0.0;

  const auto start = std::chrono::steady_clock::now();
  auto scheduled_at = [&](std::uint32_t i) {
    return start + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(arrivals[i]));
  };

  if (options.serial) {
    // Baseline: the pre-executor shape. Every request constructs a
    // full-width Runtime - spawning pool+groups threads - runs one
    // program to completion, joins, and tears down.
    for (std::uint32_t i = 0; i < options.requests; ++i) {
      std::this_thread::sleep_until(scheduled_at(i));
      const std::size_t which = i % mix.size();
      apps::AppRun& app = *mix[which];
      if (per_program_runs[which] > 0 && app.reset) app.reset();
      runtime::RuntimeOptions rt;
      rt.num_kernels = options.pool_kernels;
      rt.run.tsu_groups = options.tsu_groups;
      rt.run.policy = options.policy;
      rt.run.dataplane = options.dataplane;
      rt.guard = options.guard;
      if (i == checked_index) rt.trace = &midstream_trace;
      runtime::Runtime runtime(app.program, rt);
      const runtime::RuntimeStats st = runtime.run();
      const auto done = std::chrono::steady_clock::now();
      RequestOutcome& o = outcomes[i];
      o.program = which;
      o.latency_seconds =
          std::chrono::duration<double>(done - scheduled_at(i)).count();
      o.run_seconds = st.wall_seconds;
      o.queue_seconds = o.latency_seconds - o.run_seconds;
      o.guard_clean = st.guard_violations.empty();
      ++per_program_runs[which];
      if (i == checked_index) {
        midstream_stats = st;
        have_midstream = true;
      }
    }
    wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  } else {
    core::ProgramRegistry registry;
    std::vector<core::ProgramHandle> handles;
    handles.reserve(mix.size());
    for (std::size_t m = 0; m < mix.size(); ++m) {
      handles.push_back(registry.add(mix[m]->program, mix[m],
                                     mix[m]->reset, mix[m]->name));
    }
    runtime::ExecutorOptions exec;
    exec.pool_kernels = options.pool_kernels;
    exec.partition_width = options.partition_width;
    exec.run.tsu_groups = options.tsu_groups;
    exec.queue_capacity = options.queue_capacity;
    exec.stage_depth = options.stage_depth;
    exec.run.policy = options.policy;
    exec.run.dataplane = options.dataplane;
    runtime::Executor executor(registry, exec);

    std::vector<std::future<runtime::RunResult>> futures;
    futures.reserve(options.requests);
    for (std::uint32_t i = 0; i < options.requests; ++i) {
      std::this_thread::sleep_until(scheduled_at(i));
      runtime::RunRequest req;
      req.handle = handles[i % mix.size()];
      req.guard = options.guard;
      if (i == checked_index) req.trace = &midstream_trace;
      futures.push_back(executor.submit(req));
    }
    for (std::uint32_t i = 0; i < options.requests; ++i) {
      const runtime::RunResult result = futures[i].get();
      const std::size_t which = i % mix.size();
      RequestOutcome& o = outcomes[i];
      o.program = which;
      o.latency_seconds = std::chrono::duration<double>(
                              result.completed_at - scheduled_at(i))
                              .count();
      o.queue_seconds = result.queue_seconds;
      o.run_seconds = result.run_seconds;
      o.guard_clean = result.guard_clean;
      ++per_program_runs[which];
      if (i == checked_index) {
        midstream_stats.emulator = result.stats.emulator;
        midstream_stats.kernels = result.stats.kernels;
        have_midstream = true;
      }
    }
    wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    const runtime::ExecutorStats st = executor.stats();
    rejected = static_cast<std::size_t>(st.rejected);
    queue_depth_peak = st.queue_depth_peak;
    shares = st.tenants;
  }

  // ---- Report ---------------------------------------------------------
  core::LatencyRecorder recorder;
  bool guard_failed = false;
  for (const RequestOutcome& o : outcomes) {
    recorder.add(o.latency_seconds);
    if (!o.guard_clean) guard_failed = true;
  }
  const core::LatencySummary latency = recorder.summary();
  const double throughput =
      wall_seconds > 0.0 ? options.requests / wall_seconds : 0.0;
  const double fairness = core::fairness_ratio(shares);

  out << "tflux_serve: " << options.requests << " request(s), mode "
      << (options.serial ? "serial" : "executor") << ", pool "
      << options.pool_kernels << ", width " << run_width;
  if (!options.serial) {
    out << " (" << options.pool_kernels / options.partition_width
        << " tenant partition(s), stage depth " << options.stage_depth
        << ")";
  }
  out << "\n  apps: ";
  for (std::size_t k = 0; k < options.apps.size(); ++k) {
    std::uint64_t runs = 0;
    for (std::size_t m = k; m < mix.size(); m += options.apps.size()) {
      runs += per_program_runs[m];
    }
    out << (k == 0 ? "" : ", ") << mix[k]->name << " x" << runs;
  }
  out << "\n  wall " << wall_seconds << " s, throughput " << throughput
      << " req/s"
      << (options.rate > 0.0
              ? " (offered " + std::to_string(options.rate) + " req/s)"
              : "")
      << "\n";
  out << "  latency p50 " << latency.p50_seconds * 1e3 << " ms, p90 "
      << latency.p90_seconds * 1e3 << " ms, p99 "
      << latency.p99_seconds * 1e3 << " ms, p99.9 "
      << latency.p999_seconds * 1e3 << " ms, max "
      << latency.max_seconds * 1e3 << " ms\n";
  if (!options.serial) {
    out << "  admission queue peak " << queue_depth_peak << ", rejected "
        << rejected << ", fairness ratio " << fairness << "\n";
    for (const core::TenantShare& s : shares) {
      out << "    tenant " << s.tenant << ": " << s.runs << " run(s), "
          << s.busy_seconds << " s busy\n";
    }
  }
  if (guard_failed) {
    out << "  guard: violations detected (see per-run results)\n";
  } else if (options.guard.mode != core::GuardMode::kOff) {
    out << "  guard (" << core::to_string(options.guard.mode)
        << "): clean across all " << options.requests << " run(s)\n";
  }

  // ---- Mid-stream trace replay ---------------------------------------
  bool check_failed = false;
  std::uint64_t check_findings = 0;
  bool check_reconciled = true;
  if (options.check_midstream && have_midstream) {
    const std::size_t which = checked_index % mix.size();
    const core::Program& program = mix[which]->program;
    const core::CheckReport report =
        core::check_trace(program, midstream_trace);
    check_findings = report.findings.size();
    std::istringstream lines(report.to_string(program));
    std::string line;
    while (std::getline(lines, line)) out << "  check: " << line << "\n";
    // Exact counter reconciliation: the per-instance trace must account
    // for precisely this run's dispatches and completions - proof that
    // no other tenant's events leaked into this instance's lanes.
    std::uint64_t trace_dispatches = 0;
    std::uint64_t trace_completes = 0;
    for (const core::TraceRecord& r : midstream_trace.records) {
      if (r.event == core::TraceEvent::kDispatch) ++trace_dispatches;
      if (r.event == core::TraceEvent::kComplete) ++trace_completes;
    }
    std::uint64_t executed = 0;
    for (const runtime::KernelStats& k : midstream_stats.kernels) {
      executed += k.threads_executed;
    }
    check_reconciled =
        trace_dispatches == midstream_stats.emulator.dispatches &&
        trace_completes == executed;
    out << "  check: counters "
        << (check_reconciled ? "reconcile with" : "DO NOT match")
        << " the traced instance (" << trace_dispatches << " dispatches vs "
        << midstream_stats.emulator.dispatches << ", " << trace_completes
        << " completions vs " << executed << ")\n";
    check_failed = !report.clean() || !check_reconciled;
    if (!options.trace_file.empty()) {
      midstream_trace.app =
          apps::cli_name(options.apps[which % options.apps.size()]);
      midstream_trace.size = apps::cli_name(options.size);
      midstream_trace.unroll = options.unroll;
      midstream_trace.tsu_capacity = options.tsu_capacity;
      core::write_file(options.trace_file, core::save_trace(midstream_trace));
      out << "  wrote " << options.trace_file << " ("
          << midstream_trace.records.size() << " records)\n";
    }
  }

  // ---- Validation -----------------------------------------------------
  bool validate_failed = false;
  if (options.validate) {
    for (std::size_t k = 0; k < options.apps.size(); ++k) {
      bool any_ran = false;
      bool ok = true;
      // Every slot of this kind that ran holds its own last-run output.
      for (std::size_t m = k; m < mix.size(); m += options.apps.size()) {
        if (per_program_runs[m] == 0) continue;
        any_ran = true;
        if (!mix[m]->validate()) ok = false;
      }
      if (!any_ran) continue;
      out << "  " << mix[k]->name << " results "
          << (ok ? "match" : "DO NOT match") << " the sequential reference\n";
      if (!ok) validate_failed = true;
    }
  }

  if (report != nullptr) {
    report->wall_seconds = wall_seconds;
    report->throughput_rps = throughput;
    report->latency = latency;
    report->queue_depth_peak = queue_depth_peak;
    report->rejected = rejected;
    report->fairness_ratio = fairness;
    report->guard_clean = !guard_failed;
    report->validated = options.validate && !validate_failed;
    report->check_reconciled = check_reconciled;
  }

  if (!options.json_file.empty()) {
    core::JsonWriter json;
    json.begin_object()
        .field("mode", options.serial ? "serial" : "executor")
        .field("pool_kernels", options.pool_kernels)
        .field("partition_width", run_width)
        .field("tenants",
               options.serial ? 1
                              : options.pool_kernels / options.partition_width)
        .field("stage_depth", options.stage_depth)
        .field("requests", options.requests)
        .field("offered_rate_rps", options.rate)
        .begin_array("apps");
    for (apps::AppKind kind : options.apps) json.value(apps::cli_name(kind));
    json.end_array()
        .field("size", apps::cli_name(options.size))
        .field("unroll", options.unroll)
        .field("guard", core::to_string(options.guard.mode))
        .field("wall_seconds", wall_seconds)
        .field("throughput_rps", throughput)
        .begin_object("latency_seconds")
        .field("mean", latency.mean_seconds)
        .field("p50", latency.p50_seconds)
        .field("p90", latency.p90_seconds)
        .field("p99", latency.p99_seconds)
        .field("p999", latency.p999_seconds)
        .field("max", latency.max_seconds)
        .end_object()
        .field("queue_depth_peak", queue_depth_peak)
        .field("rejected", rejected)
        .field("fairness_ratio", fairness)
        .begin_array("tenant_shares");
    for (const core::TenantShare& share : shares) {
      json.begin_object()
          .field("tenant", share.tenant)
          .field("runs", share.runs)
          .field("busy_seconds", share.busy_seconds)
          .end_object();
    }
    json.end_array()
        .begin_object("check")
        .field("enabled", options.check_midstream)
        .field("findings", check_findings)
        .field("reconciled", check_reconciled)
        .end_object()
        .field("guard_clean", !guard_failed)
        .field("validated", options.validate && !validate_failed)
        .end_object();
    core::write_file(options.json_file, json.str());
    out << "  wrote " << options.json_file << "\n";
  }

  int rc = 0;
  if (validate_failed) {
    out << "tflux_serve: validation failed\n";
    rc = 1;
  }
  if (guard_failed) {
    out << "tflux_serve: ddmguard detected protocol violations\n";
    rc = 1;
  }
  if (check_failed) {
    out << "tflux_serve: mid-stream trace check failed\n";
    rc = 1;
  }
  return rc;
}

}  // namespace tflux::tools
