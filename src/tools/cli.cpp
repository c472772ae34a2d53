#include "tools/cli.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "cell/cell_machine.h"
#include "cell/config.h"
#include "core/analysis.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "core/graph_io.h"
#include "core/error.h"
#include "core/json.h"
#include "core/scheduler.h"
#include "core/topology.h"
#include "core/verify.h"
#include "machine/config.h"
#include "machine/machine.h"
#include "runtime/runtime.h"
#include "sim/trace.h"
#include "tools/flags.h"

namespace tflux::tools {

using core::TFluxError;

const char* to_string(CliPlatform platform) {
  switch (platform) {
    case CliPlatform::kReference:
      return "reference";
    case CliPlatform::kSoft:
      return "soft";
    case CliPlatform::kHard:
      return "hard";
    case CliPlatform::kX86Hard:
      return "x86hard";
    case CliPlatform::kSoftSim:
      return "softsim";
    case CliPlatform::kCell:
      return "cell";
  }
  return "?";
}

namespace {

bool parse_platform(const std::string& name, CliPlatform& out) {
  for (CliPlatform platform :
       {CliPlatform::kReference, CliPlatform::kSoft, CliPlatform::kHard,
        CliPlatform::kX86Hard, CliPlatform::kSoftSim, CliPlatform::kCell}) {
    if (name == to_string(platform)) {
      out = platform;
      return true;
    }
  }
  return false;
}

bool parse_fault(const std::string& name, runtime::FaultInjection& out) {
  using Kind = runtime::FaultInjection::Kind;
  for (Kind kind :
       {Kind::kDoublePublish, Kind::kLostUpdate, Kind::kStaleGeneration}) {
    if (name == runtime::to_string(kind)) {
      out.kind = kind;
      return true;
    }
  }
  return false;
}

/// Sizes use the platform-appropriate Table-1 column.
apps::Platform table1_platform(CliPlatform platform) {
  switch (platform) {
    case CliPlatform::kCell:
      return apps::Platform::kCell;
    case CliPlatform::kSoft:
    case CliPlatform::kSoftSim:
      return apps::Platform::kNative;
    default:
      return apps::Platform::kSimulated;
  }
}

Command run_command(CliOptions& o) {
  return Command{
      "tflux_run",
      "",
      {
          app_flag(o.app, "benchmark (default trapez)"),
          size_flag(o.size),
          choice_flag("--platform", "reference|soft|hard|x86hard|softsim|cell",
                      "execution platform (default hard)", o.platform,
                      parse_platform),
          uint_flag("--kernels", "N", "worker kernels/SPEs (default 4)",
                    o.kernels, /*min_one=*/true),
          unroll_flag(o.unroll, "loop unroll factor (default 4)"),
          tsu_capacity_flag(o.tsu_capacity,
                            "DThreads per DDM block (default 512)"),
          tsu_groups_flag(o.tsu_groups,
                          "TSU Groups: clustered kernel groups, one TSU "
                          "port each (default 1; pair with --policy=hier "
                          "for hierarchical stealing)"),
          policy_flag(o.policy,
                      "ready-thread policy (default locality; affinity "
                      "routes each consumer to the kernel holding most of "
                      "its input bytes and needs the data plane)"),
          switch_flag("--mutex-runtime",
                      "soft platform: use the paper-faithful mutex/try-lock "
                      "runtime (ablation)",
                      o.lockfree, false),
          no_dataplane_flag(o.dataplane,
                            "disable the managed data plane: no forward or "
                            "affinity accounting, implicit shared memory "
                            "only (ablation; --policy=affinity then "
                            "degrades to hier)"),
          switch_flag("--no-validate", "skip result validation", o.validate,
                      false),
          switch_flag("--no-baseline", "skip the sequential baseline",
                      o.baseline, false),
          switch_flag("--lint", "run the ddmlint static verifier first",
                      o.lint),
          switch_flag("--check",
                      "soft platform: replay the recorded trace through "
                      "the ddmcheck verifier (exit 1 on findings)",
                      o.check),
          uint_flag("--repeat", "N",
                    "soft platform: run N iterations on ONE warm-started "
                    "Runtime, reporting every iteration's wall time",
                    o.repeat, /*min_one=*/true),
          guard_flag(o.guard,
                     "soft platform: ddmguard online protocol checking "
                     "(sampled = deep checks on every Nth block, default "
                     "8; exit 1 on violations)"),
          choice_flag("--inject-fault",
                      "double-publish|lost-update|stale-generation",
                      "soft platform: seed one protocol fault (requires "
                      "--guard=full; validation harness)",
                      o.inject_fault, parse_fault),
          json_flag(o.json_file,
                    "soft platform: write a JSON run summary (emulator "
                    "stats under a stable key)"),
          graph_flag(o.graph_file,
                     "simulate a ddmgraph file instead of a benchmark"),
          path_flag("--dot", "FILE", "write the graph as DOT", o.dot_file),
          trace_flag(o.trace_file,
                     "write an execution trace: ddmtrace on the soft "
                     "platform, Chrome JSON on simulated ones"),
      },
      ""};
}

}  // namespace

std::string usage() {
  CliOptions defaults;
  return usage_text(run_command(defaults));
}

CliOptions parse_args(const std::vector<std::string>& args) {
  CliOptions options;
  parse_command(run_command(options), args, options.help);
  if (options.platform == CliPlatform::kCell &&
      options.app == apps::AppKind::kFft) {
    throw TFluxError(
        "tflux_run: FFT is not part of the Cell evaluation (Figure 7)");
  }
  if (options.platform == CliPlatform::kCell &&
      options.app == apps::AppKind::kSusanPipe) {
    throw TFluxError(
        "tflux_run: SUSANPIPE targets the shared-memory data plane and "
        "is not part of the Cell evaluation");
  }
  if (options.tsu_groups >= 2 && options.platform == CliPlatform::kCell) {
    throw TFluxError(
        "tflux_run: --tsu-groups models multiple TSU Groups and does not "
        "apply to the Cell platform");
  }
  if (options.check && options.platform != CliPlatform::kSoft) {
    throw TFluxError(
        "tflux_run: --check replays a native execution trace and "
        "requires --platform=soft");
  }
  if (!options.json_file.empty() &&
      options.platform != CliPlatform::kSoft) {
    throw TFluxError(
        "tflux_run: --json reports the native runtime's emulator "
        "stats and requires --platform=soft");
  }
  if (options.guard.mode != core::GuardMode::kOff &&
      options.platform != CliPlatform::kSoft) {
    throw TFluxError(
        "tflux_run: --guard hooks the native runtime and requires "
        "--platform=soft");
  }
  if (options.repeat > 1) {
    if (options.platform != CliPlatform::kSoft) {
      throw TFluxError(
          "tflux_run: --repeat re-runs the native runtime warm and "
          "requires --platform=soft");
    }
    if (options.check || !options.trace_file.empty() ||
        options.inject_fault.kind != runtime::FaultInjection::Kind::kNone) {
      throw TFluxError(
          "tflux_run: --repeat is incompatible with --check, --trace "
          "and --inject-fault (single-run machinery; they would only "
          "cover the first iteration)");
    }
  }
  if (options.inject_fault.kind != runtime::FaultInjection::Kind::kNone) {
    if (options.platform != CliPlatform::kSoft) {
      throw TFluxError(
          "tflux_run: --inject-fault seeds the native runtime and "
          "requires --platform=soft");
    }
    if (options.guard.mode != core::GuardMode::kFull) {
      throw TFluxError(
          "tflux_run: --inject-fault requires --guard=full (the guard "
          "must account every block to contain the injected fault)");
    }
  }
  return options;
}

int run_cli(const CliOptions& options, std::ostream& out) {
  if (options.help) {
    out << usage();
    return 0;
  }

  apps::AppRun run;
  bool validate = options.validate;
  if (!options.graph_file.empty()) {
    std::ifstream gin(options.graph_file);
    if (!gin) {
      throw TFluxError("tflux_run: cannot open '" + options.graph_file +
                       "'");
    }
    std::ostringstream gtext;
    gtext << gin.rdbuf();
    core::BuildOptions build_options;
    build_options.num_kernels = options.kernels;
    build_options.tsu_capacity = options.tsu_capacity;
    run.program = core::load_graph(gtext.str(), build_options);
    run.name = run.program.name();
    validate = false;  // loaded graphs have no bodies to validate
    out << "tflux_run: graph '" << options.graph_file << "' on "
        << to_string(options.platform) << ", " << options.kernels
        << " kernels\n";
  } else {
    apps::DdmParams params;
    params.num_kernels = options.kernels;
    params.unroll = options.unroll;
    params.tsu_capacity = options.tsu_capacity;
    run = apps::build_app(options.app, options.size,
                          table1_platform(options.platform), params);
    out << "tflux_run: " << run.name << " "
        << apps::to_string(options.size) << " on "
        << to_string(options.platform) << ", " << options.kernels
        << " kernels, unroll " << options.unroll << "\n";
  }

  if (options.lint) {
    core::VerifyOptions verify_options;
    verify_options.tsu_capacity = options.tsu_capacity;
    verify_options.num_kernels = options.kernels;
    if (options.platform == CliPlatform::kSoft && options.lockfree) {
      verify_options.tub_lane_capacity =
          runtime::RuntimeOptions{}.run.tub_lane_capacity;
    }
    if (options.platform == CliPlatform::kSoft) {
      // Blocks smaller than this cannot cover a pipelined transition.
      verify_options.min_block_threads = 2u * options.kernels;
    }
    const core::VerifyReport report =
        core::verify(run.program, verify_options);
    for (const core::Diagnostic& d : report.diagnostics) {
      out << "  lint: " << d.to_string(run.program) << "\n";
    }
    out << "  lint: " << report.num_errors << " error(s), "
        << report.num_warnings << " warning(s)\n";
    if (report.has_errors()) {
      out << "tflux_run: refusing to execute a program with lint errors\n";
      return 1;
    }
  }

  const core::GraphAnalysis analysis = core::analyze(run.program);
  out << "  graph: " << run.program.num_app_threads() << " DThreads in "
      << run.program.num_blocks() << " block(s), avg parallelism "
      << analysis.average_parallelism << ", peak width "
      << analysis.max_width() << "\n";

  if (!options.dot_file.empty()) {
    core::DotOptions dot_options;
    dot_options.show_inlet_outlet = true;
    dot_options.max_threads = 512;
    core::write_file(options.dot_file,
                     core::to_dot(run.program, dot_options));
    out << "  wrote " << options.dot_file << "\n";
  }

  sim::Trace trace;
  // The soft platform writes its own (ddmtrace) format below; the
  // Chrome span trace applies to the simulated targets only.
  const bool want_trace = !options.trace_file.empty() &&
                          options.platform != CliPlatform::kSoft;
  core::Cycles parallel_cycles = 0;
  core::Cycles baseline_cycles = 0;
  bool check_failed = false;
  bool guard_failed = false;
  // A TSU group beyond the kernel count would own no kernel and receive
  // no TSU operation, so every platform runs with the groups that can
  // own one.
  const std::uint16_t tsu_groups =
      std::min(options.tsu_groups, options.kernels);

  switch (options.platform) {
    case CliPlatform::kReference: {
      const core::ShardMap map(options.kernels, tsu_groups);
      core::ReferenceScheduler sched(run.program, options.kernels,
                                     options.policy, map.topology());
      const core::ScheduleResult r = sched.run();
      out << "  executed " << r.records.size()
          << " DThreads (incl. inlets/outlets)\n";
      if (map.clustered()) {
        out << "  TSU groups (" << map.num_shards()
            << "): " << r.counters.steal_local << " sibling steals, "
            << r.counters.steal_remote << " remote steals\n";
      }
      break;
    }
    case CliPlatform::kSoft: {
      runtime::RuntimeOptions rt_options;
      rt_options.num_kernels = options.kernels;
      rt_options.run.policy = options.policy;
      rt_options.run.lockfree = options.lockfree;
      rt_options.run.tsu_groups = tsu_groups;
      rt_options.run.dataplane = options.dataplane;
      rt_options.guard = options.guard;
      rt_options.inject_fault = options.inject_fault;
      core::ExecTrace exec_trace;
      const bool want_exec_trace =
          options.check || !options.trace_file.empty();
      if (want_exec_trace) rt_options.trace = &exec_trace;
      if (want_exec_trace && !options.trace_file.empty()) {
        // Abnormal exits (std::exit, uncaught exceptions) still leave
        // a replayable prefix on disk, marked truncated so
        // `tflux_check` reports it instead of a confusing failure.
        const std::string trace_file = options.trace_file;
        std::string app_name;
        std::string size_name;
        if (options.graph_file.empty()) {
          app_name = apps::cli_name(options.app);
          size_name = apps::cli_name(options.size);
        }
        const std::uint32_t unroll = options.unroll;
        const std::uint32_t tsu_capacity = options.tsu_capacity;
        rt_options.trace_emergency = [trace_file, app_name, size_name,
                                      unroll, tsu_capacity](
                                         core::ExecTrace& partial) {
          partial.app = app_name;
          partial.size = size_name;
          partial.unroll = unroll;
          partial.tsu_capacity = tsu_capacity;
          std::ofstream(trace_file) << core::save_trace(partial);
        };
      }
      runtime::Runtime rt(run.program, rt_options);
      // --repeat=N: iterate on the ONE resident Runtime (warm start),
      // resetting the app buffers between iterations; `st` and the
      // validation below cover the last iteration.
      std::vector<double> iteration_walls;
      iteration_walls.reserve(options.repeat);
      runtime::RuntimeStats st = rt.run();
      iteration_walls.push_back(st.wall_seconds);
      for (std::uint32_t r = 1; r < options.repeat; ++r) {
        if (run.reset) run.reset();
        st = rt.run();
        iteration_walls.push_back(st.wall_seconds);
      }
      if (options.repeat > 1) {
        out << "  repeat (" << options.repeat
            << " warm iterations on one runtime): wall";
        for (double w : iteration_walls) out << " " << w * 1e3;
        out << " ms (stats epoch " << st.epoch << ")\n";
      }
      out << "  " << (options.lockfree ? "lock-free" : "mutex")
          << " hot path: wall time " << st.wall_seconds * 1e3 << " ms, "
          << st.emulator.updates_processed << " Ready Count updates, "
          << st.tub.entries_published << " TUB entries\n";
      out << "  coalesced update path: "
          << st.emulator.range_updates_processed
          << " range records covering " << st.emulator.range_members
          << " consumers\n";
      std::uint64_t backlog_peak = 0;
      for (const runtime::KernelStats& k : st.kernels) {
        backlog_peak = std::max(backlog_peak, k.mailbox_backlog_peak);
      }
      out << "  pipelined block transitions: " << st.emulator.blocks_loaded
          << " partition loads, " << st.emulator.prefetch_hits
          << " prefetch hits, " << st.emulator.prefetch_misses
          << " misses, " << st.emulator.deferred_replays
          << " deferred replays\n";
      out << "  dispatch (" << core::to_string(options.policy)
          << "): " << st.emulator.dispatches << " total, "
          << st.emulator.home_dispatches << " home, "
          << st.emulator.steal_dispatches << " stolen, mailbox backlog "
          << "peak " << backlog_peak << "\n";
      std::uint64_t forwards = 0;
      std::uint64_t bytes_forwarded = 0;
      for (const runtime::KernelStats& k : st.kernels) {
        forwards += k.forwards;
        bytes_forwarded += k.bytes_forwarded;
      }
      if (options.dataplane) {
        out << "  data plane: " << forwards << " bulk forwards ("
            << bytes_forwarded << " bytes), affinity "
            << st.emulator.affinity_hits << " hits / "
            << st.emulator.affinity_misses << " misses / "
            << st.emulator.affinity_cold << " cold, "
            << st.emulator.cross_shard_bytes << " cross-shard bytes\n";
      }
      // Per-shard dispatch imbalance: max deviation from the uniform
      // share, as a percentage (0 = perfectly balanced).
      double imbalance_pct = 0.0;
      if (st.emulators.size() > 1 && st.emulator.dispatches > 0) {
        const double mean = static_cast<double>(st.emulator.dispatches) /
                            static_cast<double>(st.emulators.size());
        for (const runtime::EmulatorStats& e : st.emulators) {
          const double dev =
              (static_cast<double>(e.dispatches) - mean) / mean * 100.0;
          imbalance_pct = std::max(imbalance_pct, std::abs(dev));
        }
      }
      if (tsu_groups >= 2) {
        out << "  TSU groups (" << st.emulators.size()
            << "): " << st.emulator.steal_local << " sibling steals, "
            << st.emulator.steal_remote << " remote grants out, "
            << st.emulator.steals_in << " grants in, imbalance "
            << imbalance_pct << "%\n";
      }
      if (options.guard.mode != core::GuardMode::kOff) {
        for (const core::GuardViolation& v : st.guard_violations) {
          out << "  guard: " << v.to_string(run.program) << "\n";
        }
        out << "  guard (" << core::to_string(options.guard.mode);
        if (options.guard.mode == core::GuardMode::kSampled) {
          out << ":" << options.guard.sample_period;
        }
        out << "): " << st.guard.violations << " violation(s), "
            << st.guard.checks << " check(s), " << st.guard.epoch_stamps
            << " epoch stamp(s) over " << st.guard.sampled_blocks
            << " sampled block(s)\n";
        guard_failed = st.guard.violations != 0;
      }
      if (!options.json_file.empty()) {
        const runtime::EmulatorStats& e = st.emulator;
        core::JsonWriter json;
        json.begin_object()
            .field("app", run.name)
            .field("platform", "soft")
            .field("kernels", options.kernels)
            .field("tsu_groups", tsu_groups)
            .field("policy", core::to_string(options.policy))
            .field("lockfree", options.lockfree)
            .begin_object("dataplane")
            .field("enabled", options.dataplane)
            .field("forwards", forwards)
            .field("bytes_forwarded", bytes_forwarded)
            .field("affinity_hits", e.affinity_hits)
            .field("affinity_misses", e.affinity_misses)
            .field("affinity_cold", e.affinity_cold)
            .field("cross_shard_bytes", e.cross_shard_bytes)
            .end_object()
            .field("trace", rt_options.trace != nullptr)
            .field("check", options.check)
            .field("guard", core::to_string(options.guard.mode))
            .field("guard_sample_period", options.guard.sample_period)
            .field("guard_checks", st.guard.checks)
            .field("guard_sampled_blocks", st.guard.sampled_blocks)
            .field("guard_violations", st.guard.violations)
            .field("wall_seconds", st.wall_seconds)
            .field("repeat", options.repeat)
            .begin_array("iteration_wall_seconds");
        for (double wall : iteration_walls) json.value(wall);
        json.end_array()
            .begin_object("emulator")
            .field("dispatches", e.dispatches)
            .field("home_dispatches", e.home_dispatches)
            .field("steal_dispatches", e.steal_dispatches)
            .field("steal_local", e.steal_local)
            .field("steal_remote", e.steal_remote)
            .field("steals_in", e.steals_in)
            .field("updates_processed", e.updates_processed)
            .field("range_updates", e.range_updates_processed)
            .field("range_members", e.range_members)
            .field("blocks_loaded", e.blocks_loaded)
            .field("prefetch_hits", e.prefetch_hits)
            .field("prefetch_misses", e.prefetch_misses)
            .field("deferred_replays", e.deferred_replays)
            .end_object()
            .field("shard_imbalance_pct", imbalance_pct)
            .begin_array("per_shard");
        for (const runtime::EmulatorStats& pe : st.emulators) {
          json.begin_object()
              .field("dispatches", pe.dispatches)
              .field("home_dispatches", pe.home_dispatches)
              .field("steal_local", pe.steal_local)
              .field("steal_remote", pe.steal_remote)
              .field("steals_in", pe.steals_in)
              .end_object();
        }
        json.end_array().end_object();
        core::write_file(options.json_file, json.str());
        out << "  wrote " << options.json_file << "\n";
      }
      if (want_exec_trace) {
        if (options.graph_file.empty()) {
          // Benchmark provenance so `tflux_check` can rebuild the
          // exact Program without a saved ddmgraph.
          exec_trace.app = apps::cli_name(options.app);
          exec_trace.size = apps::cli_name(options.size);
          exec_trace.unroll = options.unroll;
          exec_trace.tsu_capacity = options.tsu_capacity;
        }
        if (!options.trace_file.empty()) {
          core::write_file(options.trace_file, core::save_trace(exec_trace));
          out << "  wrote " << options.trace_file << " ("
              << exec_trace.records.size() << " records)\n";
        }
        if (options.check) {
          const core::CheckReport report =
              core::check_trace(run.program, exec_trace);
          std::istringstream lines(report.to_string(run.program));
          std::string line;
          while (std::getline(lines, line)) {
            out << "  check: " << line << "\n";
          }
          check_failed = !report.clean();
          if (exec_trace.dataplane && !exec_trace.truncated) {
            // Reconcile the runtime's data-plane counters against the
            // independent replay: every figure must match exactly (the
            // replay sees the same producers-executed state at each
            // dispatch as the live scoring did).
            const core::DataPlaneTally& tally = report.dataplane;
            const bool reconciled =
                tally.forwards == forwards &&
                tally.bytes_forwarded == bytes_forwarded &&
                tally.affinity_hits == st.emulator.affinity_hits &&
                tally.affinity_misses == st.emulator.affinity_misses &&
                tally.affinity_cold == st.emulator.affinity_cold &&
                tally.cross_shard_bytes == st.emulator.cross_shard_bytes;
            out << "  check: data plane "
                << (reconciled ? "reconciles with" : "DOES NOT match")
                << " the trace replay (" << tally.forwards
                << " forwards, " << tally.bytes_forwarded << " bytes, "
                << tally.affinity_hits << "/" << tally.affinity_misses
                << "/" << tally.affinity_cold << " hits/misses/cold, "
                << tally.cross_shard_bytes << " cross-shard bytes)\n";
            if (!reconciled) check_failed = true;
          }
        }
      }
      break;
    }
    case CliPlatform::kHard:
    case CliPlatform::kX86Hard:
    case CliPlatform::kSoftSim: {
      machine::MachineConfig cfg =
          options.platform == CliPlatform::kHard
              ? machine::bagle_sparc(options.kernels)
              : options.platform == CliPlatform::kX86Hard
                    ? machine::x86_hard(options.kernels)
                    : machine::xeon_soft(options.kernels);
      cfg.policy = options.policy;
      cfg.tsu.num_groups = tsu_groups;
      cfg.dataplane = options.dataplane;
      machine::Machine m(cfg, run.program, validate);
      if (want_trace) m.attach_trace(&trace);
      const machine::MachineStats st = m.run();
      parallel_cycles = st.total_cycles;
      out << "  " << st.total_cycles << " cycles, kernel utilization "
          << st.kernel_utilization() * 100.0 << "%, " << st.mem.accesses()
          << " memory accesses (" << st.mem.l2_misses << " L2 misses)\n";
      out << "  DThread cycles: " << st.thread_cycles.summary() << "\n";
      if (cfg.dataplane) {
        out << "  data plane: " << st.tsu.forwards << " bulk forwards ("
            << st.tsu.bytes_forwarded << " bytes), affinity "
            << st.tsu.affinity_hits << " hits / "
            << st.tsu.affinity_misses << " misses / "
            << st.tsu.affinity_cold << " cold, "
            << st.tsu.cross_shard_bytes << " cross-shard bytes\n";
      }
      if (options.baseline) {
        baseline_cycles =
            machine::simulate_sequential(cfg, run.sequential_plan);
      }
      break;
    }
    case CliPlatform::kCell: {
      cell::CellConfig cfg = cell::ps3_cell(options.kernels);
      cell::CellMachine m(cfg, run.program, validate);
      if (want_trace) m.attach_trace(&trace);
      const cell::CellStats st = m.run();
      parallel_cycles = st.total_cycles;
      out << "  " << st.total_cycles << " cycles, SPE utilization "
          << st.spe_utilization() * 100.0 << "%, " << st.dma_bytes
          << " DMA bytes, LS peak " << st.ls_peak_bytes << " bytes\n";
      if (options.baseline) {
        baseline_cycles =
            cell::simulate_sequential_cell(cfg, run.sequential_plan);
      }
      break;
    }
  }

  if (options.baseline && !run.sequential_plan.empty() &&
      parallel_cycles != 0 && baseline_cycles != 0) {
    out << "  sequential baseline " << baseline_cycles << " cycles -> "
        << "speedup "
        << static_cast<double>(baseline_cycles) /
               static_cast<double>(parallel_cycles)
        << "x\n";
  }
  if (want_trace) {
    core::write_file(options.trace_file, trace.to_chrome_json());
    out << "  wrote " << options.trace_file << " (" << trace.size()
        << " spans)\n";
  }

  // Validation only applies when bodies ran (reference/soft always run
  // them; hard/cell run them when --no-validate was not given).
  int rc = (check_failed || guard_failed) ? 1 : 0;
  if (validate) {
    const bool ok = run.validate();
    out << "  results " << (ok ? "match" : "DO NOT match")
        << " the sequential reference\n";
    if (!ok) rc = 1;
  }
  if (check_failed) {
    out << "tflux_run: ddmcheck found protocol violations\n";
  }
  if (guard_failed) {
    out << "tflux_run: ddmguard detected protocol violations\n";
  }
  return rc;
}

}  // namespace tflux::tools
