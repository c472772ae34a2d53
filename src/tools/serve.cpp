#include "tools/serve.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "core/check.h"
#include "core/ddmtrace.h"
#include "core/error.h"
#include "core/executor.h"
#include "core/json.h"
#include "core/spec.h"
#include "runtime/executor.h"
#include "runtime/runtime.h"
#include "sim/rng.h"

namespace tflux::tools {

using core::TFluxError;

namespace {

apps::AppKind parse_serve_app(const std::string& name) {
  for (apps::AppKind kind : apps::all_apps()) {
    std::string lower = apps::to_string(kind);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (name == lower) return kind;
  }
  throw TFluxError("tflux_serve: unknown app '" + name +
                   "' (trapez, mmult, qsort, susan, susanpipe, fft)");
}

apps::SizeClass parse_serve_size(const std::string& name) {
  if (name == "small") return apps::SizeClass::kSmall;
  if (name == "medium") return apps::SizeClass::kMedium;
  if (name == "large") return apps::SizeClass::kLarge;
  throw TFluxError("tflux_serve: unknown size '" + name +
                   "' (small, medium, large)");
}

double parse_serve_double(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size() || v < 0.0 || !std::isfinite(v)) {
      throw std::invalid_argument(value);
    }
    return v;
  } catch (const std::exception&) {
    throw TFluxError("tflux_serve: " + flag +
                     " expects a non-negative number, got '" + value + "'");
  }
}

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

std::string json_app_list(const std::vector<apps::AppKind>& kinds) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    std::string name = apps::to_string(kinds[i]);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    out << (i == 0 ? "" : ", ") << "\"" << core::json_escape(name) << "\"";
  }
  out << "]";
  return out.str();
}

}  // namespace

std::string serve_usage() {
  return
      "usage: tflux_serve [options]\n"
      "  --pool=N              resident kernel pool size (default 8)\n"
      "  --width=W             kernels per tenant partition (default 2);\n"
      "                        the pool serves floor(N/W) programs "
      "concurrently\n"
      "  --tsu-groups=N        TSU groups per partition (default 1)\n"
      "  --shards=K            sharded TSU per partition (default 0 = "
      "flat)\n"
      "  --queue=N             admission queue bound (default 64)\n"
      "  --stage-depth=N       instances admitted per partition at once "
      "(default 2)\n"
      "  --requests=N          requests to replay (default 64)\n"
      "  --rate=R              open-loop arrival rate, requests/second\n"
      "                        (exponential interarrivals; default 0 = "
      "closed loop)\n"
      "  --apps=a,b,c          benchmark mix, cycled round-robin\n"
      "                        (default trapez,mmult,qsort)\n"
      "  --size=small|medium|large            (default small)\n"
      "  --unroll=N            loop unroll factor (default 4)\n"
      "  --tsu-capacity=N      DThreads per DDM block (default 64)\n"
      "  --policy=fifo|locality|hier|affinity\n"
      "  --guard=off|sampled[:N]|full\n"
      "                        per-instance ddmguard on every admitted "
      "run\n"
      "  --no-dataplane        skip the per-instance managed data plane "
      "(both modes)\n"
      "  --serial              baseline: fresh full-pool Runtime per "
      "request,\n"
      "                        one at a time (no executor)\n"
      "  --check-tenant        trace the mid-stream request and replay "
      "it through\n"
      "                        ddmcheck (exact counter reconciliation) "
      "while the\n"
      "                        other tenants are in flight\n"
      "  --trace=FILE          also save the mid-stream ddmtrace "
      "(needs --check-tenant)\n"
      "  --no-validate         skip the post-drain result validation\n"
      "  --seed=N              arrival-schedule RNG seed (default 1)\n"
      "  --json=FILE           write a JSON serving summary\n"
      "  --help\n";
}

ServeOptions parse_serve_args(const std::vector<std::string>& args) {
  ServeOptions options;
  for (const std::string& arg : args) {
    auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    // `--flag=N` into `field`, bounded by the field's type.
    auto uint_flag = [&arg](const char* flag, bool min_one, auto& field) {
      core::parse_flag_uint("tflux_serve", flag,
                            arg.substr(std::strlen(flag) + 1), min_one,
                            field);
    };
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg.rfind("--pool=", 0) == 0) {
      uint_flag("--pool", /*min_one=*/true, options.pool_kernels);
    } else if (arg.rfind("--width=", 0) == 0) {
      uint_flag("--width", /*min_one=*/true, options.partition_width);
    } else if (arg.rfind("--tsu-groups=", 0) == 0) {
      uint_flag("--tsu-groups", /*min_one=*/false, options.tsu_groups);
    } else if (arg.rfind("--shards=", 0) == 0) {
      uint_flag("--shards", /*min_one=*/false, options.shards);
    } else if (arg.rfind("--queue=", 0) == 0) {
      uint_flag("--queue", /*min_one=*/true, options.queue_capacity);
    } else if (arg.rfind("--stage-depth=", 0) == 0) {
      uint_flag("--stage-depth", /*min_one=*/true, options.stage_depth);
    } else if (arg.rfind("--requests=", 0) == 0) {
      uint_flag("--requests", /*min_one=*/true, options.requests);
    } else if (arg.rfind("--rate=", 0) == 0) {
      options.rate = parse_serve_double("--rate", value_of("--rate="));
    } else if (arg.rfind("--apps=", 0) == 0) {
      options.apps.clear();
      std::istringstream list(value_of("--apps="));
      std::string name;
      while (std::getline(list, name, ',')) {
        if (!name.empty()) options.apps.push_back(parse_serve_app(name));
      }
      if (options.apps.empty()) {
        throw TFluxError("tflux_serve: --apps expects at least one app");
      }
    } else if (arg.rfind("--size=", 0) == 0) {
      options.size = parse_serve_size(value_of("--size="));
    } else if (arg.rfind("--unroll=", 0) == 0) {
      uint_flag("--unroll", /*min_one=*/true, options.unroll);
    } else if (arg.rfind("--tsu-capacity=", 0) == 0) {
      uint_flag("--tsu-capacity", /*min_one=*/false, options.tsu_capacity);
    } else if (arg.rfind("--policy=", 0) == 0) {
      if (!core::parse_policy(value_of("--policy="), options.policy)) {
        throw TFluxError("tflux_serve: unknown policy '" +
                         value_of("--policy=") +
                         "' (fifo, locality, hier, affinity)");
      }
    } else if (arg.rfind("--guard=", 0) == 0) {
      if (!core::parse_guard_spec(value_of("--guard="), options.guard)) {
        throw TFluxError("tflux_serve: --guard expects off, sampled, "
                         "sampled:N (N >= 1) or full, got '" +
                         value_of("--guard=") + "'");
      }
    } else if (arg == "--no-dataplane") {
      options.dataplane = false;
    } else if (arg == "--serial") {
      options.serial = true;
    } else if (arg == "--check-tenant") {
      options.check_midstream = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace_file = value_of("--trace=");
    } else if (arg == "--no-validate") {
      options.validate = false;
    } else if (arg.rfind("--seed=", 0) == 0) {
      uint_flag("--seed", /*min_one=*/false, options.seed);
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_file = value_of("--json=");
    } else {
      throw TFluxError("tflux_serve: unknown option '" + arg + "'\n" +
                       serve_usage());
    }
  }
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
      rt.run.shards = options.shards;
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
    exec.run.shards = options.shards;
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
      std::string app_name =
          apps::to_string(options.apps[which % options.apps.size()]);
      std::string size_name = apps::to_string(options.size);
      for (char& c : app_name) c = static_cast<char>(std::tolower(c));
      for (char& c : size_name) c = static_cast<char>(std::tolower(c));
      midstream_trace.app = app_name;
      midstream_trace.size = size_name;
      midstream_trace.unroll = options.unroll;
      midstream_trace.tsu_capacity = options.tsu_capacity;
      std::ofstream(options.trace_file) << core::save_trace(midstream_trace);
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
    std::ostringstream json;
    json << "{\n"
         << "  \"mode\": \"" << (options.serial ? "serial" : "executor")
         << "\",\n"
         << "  \"pool_kernels\": " << options.pool_kernels << ",\n"
         << "  \"partition_width\": " << run_width << ",\n"
         << "  \"tenants\": "
         << (options.serial ? 1
                            : options.pool_kernels / options.partition_width)
         << ",\n"
         << "  \"stage_depth\": " << options.stage_depth << ",\n"
         << "  \"requests\": " << options.requests << ",\n"
         << "  \"offered_rate_rps\": " << options.rate << ",\n"
         << "  \"apps\": " << json_app_list(options.apps) << ",\n"
         << "  \"size\": \"" << [&] {
              std::string s = apps::to_string(options.size);
              for (char& c : s) c = static_cast<char>(std::tolower(c));
              return core::json_escape(s);
            }() << "\",\n"
         << "  \"unroll\": " << options.unroll << ",\n"
         << "  \"guard\": \"" << core::to_string(options.guard.mode)
         << "\",\n"
         << "  \"wall_seconds\": " << wall_seconds << ",\n"
         << "  \"throughput_rps\": " << throughput << ",\n"
         << "  \"latency_seconds\": {\n"
         << "    \"mean\": " << latency.mean_seconds << ",\n"
         << "    \"p50\": " << latency.p50_seconds << ",\n"
         << "    \"p90\": " << latency.p90_seconds << ",\n"
         << "    \"p99\": " << latency.p99_seconds << ",\n"
         << "    \"p999\": " << latency.p999_seconds << ",\n"
         << "    \"max\": " << latency.max_seconds << "\n"
         << "  },\n"
         << "  \"queue_depth_peak\": " << queue_depth_peak << ",\n"
         << "  \"rejected\": " << rejected << ",\n"
         << "  \"fairness_ratio\": " << fairness << ",\n"
         << "  \"tenant_shares\": [";
    for (std::size_t t = 0; t < shares.size(); ++t) {
      json << (t == 0 ? "\n" : ",\n") << "    {\"tenant\": "
           << shares[t].tenant << ", \"runs\": " << shares[t].runs
           << ", \"busy_seconds\": " << shares[t].busy_seconds << "}";
    }
    json << "\n  ],\n"
         << "  \"check\": {\n"
         << "    \"enabled\": "
         << (options.check_midstream ? "true" : "false") << ",\n"
         << "    \"findings\": " << check_findings << ",\n"
         << "    \"reconciled\": " << (check_reconciled ? "true" : "false")
         << "\n"
         << "  },\n"
         << "  \"guard_clean\": " << (guard_failed ? "false" : "true")
         << ",\n"
         << "  \"validated\": "
         << (options.validate && !validate_failed ? "true" : "false")
         << "\n"
         << "}\n";
    std::ofstream(options.json_file) << json.str();
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
