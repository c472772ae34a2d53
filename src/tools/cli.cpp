#include "tools/cli.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
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
#include "core/spec.h"
#include "core/topology.h"
#include "core/verify.h"
#include "machine/config.h"
#include "machine/machine.h"
#include "runtime/runtime.h"
#include "sim/trace.h"

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

apps::AppKind parse_app(const std::string& name) {
  for (apps::AppKind kind : apps::all_apps()) {
    std::string lower = apps::to_string(kind);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (name == lower) return kind;
  }
  throw TFluxError("tflux_run: unknown app '" + name +
                   "' (trapez, mmult, qsort, susan, susanpipe, fft)");
}

apps::SizeClass parse_size(const std::string& name) {
  if (name == "small") return apps::SizeClass::kSmall;
  if (name == "medium") return apps::SizeClass::kMedium;
  if (name == "large") return apps::SizeClass::kLarge;
  throw TFluxError("tflux_run: unknown size '" + name +
                   "' (small, medium, large)");
}

CliPlatform parse_platform(const std::string& name) {
  if (name == "reference") return CliPlatform::kReference;
  if (name == "soft") return CliPlatform::kSoft;
  if (name == "hard") return CliPlatform::kHard;
  if (name == "x86hard") return CliPlatform::kX86Hard;
  if (name == "softsim") return CliPlatform::kSoftSim;
  if (name == "cell") return CliPlatform::kCell;
  throw TFluxError("tflux_run: unknown platform '" + name +
                   "' (reference, soft, hard, x86hard, softsim, cell)");
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

}  // namespace

std::string usage() {
  return
      "usage: tflux_run [options]\n"
      "  --app=trapez|mmult|qsort|susan|susanpipe|fft\n"
      "                                       (default trapez)\n"
      "  --size=small|medium|large            (default small)\n"
      "  --platform=reference|soft|hard|x86hard|softsim|cell\n"
      "                                       (default hard)\n"
      "  --kernels=N                          worker kernels/SPEs "
      "(default 4)\n"
      "  --unroll=N                           loop unroll factor "
      "(default 4)\n"
      "  --tsu-capacity=N                     DThreads per DDM block "
      "(default 512)\n"
      "  --tsu-groups=N                       TSU Groups, hard/soft "
      "targets (default 1)\n"
      "  --shards=K                           sharded TSU: K clustered "
      "domains\n"
      "                                       (0 = flat, the default; "
      "pair with\n"
      "                                       --policy=hier for "
      "hierarchical stealing)\n"
      "  --policy=fifo|locality|hier|affinity\n"
      "                                       ready-thread policy "
      "(affinity routes each\n"
      "                                       consumer to the kernel "
      "holding most of its\n"
      "                                       input bytes; needs the "
      "data plane)\n"
      "  --mutex-runtime                      soft platform: use the "
      "paper-faithful\n"
      "                                       mutex/try-lock runtime "
      "(ablation)\n"
      "  --no-dataplane                       disable the managed data "
      "plane: no forward\n"
      "                                       or affinity accounting, "
      "implicit shared\n"
      "                                       memory only (ablation; "
      "--policy=affinity\n"
      "                                       then degrades to hier)\n"
      "  --no-validate                        skip result validation\n"
      "  --no-baseline                        skip the sequential "
      "baseline\n"
      "  --lint                               run the ddmlint static "
      "verifier first\n"
      "  --check                              soft platform: replay the "
      "recorded trace\n"
      "                                       through the ddmcheck "
      "verifier (exit 1 on\n"
      "                                       findings)\n"
      "  --repeat=N                           soft platform: run N "
      "iterations on ONE\n"
      "                                       warm-started Runtime, "
      "reporting every\n"
      "                                       iteration's wall time\n"
      "  --guard=off|sampled[:N]|full         soft platform: ddmguard "
      "online protocol\n"
      "                                       checking (sampled = deep "
      "checks on every\n"
      "                                       Nth block, default 8; exit "
      "1 on violations)\n"
      "  --inject-fault=double-publish|lost-update|stale-generation\n"
      "                                       soft platform: seed one "
      "protocol fault\n"
      "                                       (requires --guard=full; "
      "validation harness)\n"
      "  --json=FILE                          soft platform: write a "
      "JSON run summary\n"
      "                                       (emulator stats under a "
      "stable key)\n"
      "  --graph=FILE                         simulate a ddmgraph file "
      "instead of a benchmark\n"
      "  --dot=FILE                           write the graph as DOT\n"
      "  --trace=FILE                         write an execution trace: "
      "ddmtrace on the\n"
      "                                       soft platform, Chrome JSON "
      "on simulated ones\n"
      "  --help\n";
}

CliOptions parse_args(const std::vector<std::string>& args) {
  CliOptions options;
  for (const std::string& arg : args) {
    auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    // `--flag=N` into `field`, bounded by the field's type.
    auto uint_flag = [&arg](const char* flag, bool min_one, auto& field) {
      core::parse_flag_uint("tflux_run", flag,
                            arg.substr(std::strlen(flag) + 1), min_one,
                            field);
    };
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg.rfind("--app=", 0) == 0) {
      options.app = parse_app(value_of("--app="));
    } else if (arg.rfind("--size=", 0) == 0) {
      options.size = parse_size(value_of("--size="));
    } else if (arg.rfind("--platform=", 0) == 0) {
      options.platform = parse_platform(value_of("--platform="));
    } else if (arg.rfind("--kernels=", 0) == 0) {
      uint_flag("--kernels", /*min_one=*/true, options.kernels);
    } else if (arg.rfind("--unroll=", 0) == 0) {
      uint_flag("--unroll", /*min_one=*/true, options.unroll);
    } else if (arg.rfind("--tsu-capacity=", 0) == 0) {
      uint_flag("--tsu-capacity", /*min_one=*/false, options.tsu_capacity);
    } else if (arg.rfind("--tsu-groups=", 0) == 0) {
      uint_flag("--tsu-groups", /*min_one=*/true, options.tsu_groups);
    } else if (arg.rfind("--shards=", 0) == 0) {
      uint_flag("--shards", /*min_one=*/false, options.shards);
    } else if (arg.rfind("--policy=", 0) == 0) {
      if (!core::parse_policy(value_of("--policy="), options.policy)) {
        throw TFluxError("tflux_run: unknown policy '" +
                         value_of("--policy=") +
                         "' (fifo, locality, hier, affinity)");
      }
    } else if (arg == "--mutex-runtime") {
      options.lockfree = false;
    } else if (arg == "--no-dataplane") {
      options.dataplane = false;
    } else if (arg == "--no-validate") {
      options.validate = false;
    } else if (arg == "--no-baseline") {
      options.baseline = false;
    } else if (arg == "--lint") {
      options.lint = true;
    } else if (arg == "--check") {
      options.check = true;
    } else if (arg.rfind("--repeat=", 0) == 0) {
      uint_flag("--repeat", /*min_one=*/true, options.repeat);
    } else if (arg.rfind("--guard=", 0) == 0) {
      if (!core::parse_guard_spec(value_of("--guard="), options.guard)) {
        throw TFluxError("tflux_run: --guard expects off, sampled, "
                         "sampled:N (N >= 1) or full, got '" +
                         value_of("--guard=") + "'");
      }
    } else if (arg.rfind("--inject-fault=", 0) == 0) {
      const std::string kind = value_of("--inject-fault=");
      if (kind == "double-publish") {
        options.inject_fault.kind =
            runtime::FaultInjection::Kind::kDoublePublish;
      } else if (kind == "lost-update") {
        options.inject_fault.kind =
            runtime::FaultInjection::Kind::kLostUpdate;
      } else if (kind == "stale-generation") {
        options.inject_fault.kind =
            runtime::FaultInjection::Kind::kStaleGeneration;
      } else {
        throw TFluxError("tflux_run: --inject-fault expects "
                         "double-publish, lost-update or "
                         "stale-generation, got '" + kind + "'");
      }
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_file = value_of("--json=");
    } else if (arg.rfind("--graph=", 0) == 0) {
      options.graph_file = value_of("--graph=");
    } else if (arg.rfind("--dot=", 0) == 0) {
      options.dot_file = value_of("--dot=");
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace_file = value_of("--trace=");
    } else {
      throw TFluxError("tflux_run: unknown option '" + arg + "'\n" +
                       usage());
    }
  }
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
  if (options.shards > options.kernels) {
    throw TFluxError("tflux_run: --shards must be <= --kernels");
  }
  if (options.shards != 0 && options.platform == CliPlatform::kCell) {
    throw TFluxError(
        "tflux_run: --shards models the sharded TSU and does not apply "
        "to the Cell platform");
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
    std::ofstream(options.dot_file)
        << core::to_dot(run.program, dot_options);
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
      std::optional<core::ShardMap> shard_map;
      if (options.shards >= 1) {
        shard_map =
            core::ShardMap::clustered(options.kernels, options.shards);
      }
      core::ReferenceScheduler sched(run.program, options.kernels,
                                     options.policy,
                                     shard_map ? &*shard_map : nullptr);
      const core::ScheduleResult r = sched.run();
      out << "  executed " << r.records.size()
          << " DThreads (incl. inlets/outlets)\n";
      break;
    }
    case CliPlatform::kSoft: {
      runtime::RuntimeOptions rt_options;
      rt_options.num_kernels = options.kernels;
      rt_options.run.policy = options.policy;
      rt_options.run.lockfree = options.lockfree;
      rt_options.run.tsu_groups = tsu_groups;
      rt_options.run.shards = options.shards;
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
          app_name = apps::to_string(options.app);
          size_name = apps::to_string(options.size);
          for (char& c : app_name) c = static_cast<char>(std::tolower(c));
          for (char& c : size_name) c = static_cast<char>(std::tolower(c));
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
      if (rt_options.run.shards >= 1) {
        out << "  shards (" << st.emulators.size()
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
        std::ostringstream json;
        json << "{\n"
             << "  \"app\": \"" << core::json_escape(run.name) << "\",\n"
             << "  \"platform\": \"soft\",\n"
             << "  \"kernels\": " << options.kernels << ",\n"
             << "  \"tsu_groups\": " << rt_options.run.tsu_groups << ",\n"
             << "  \"shards\": " << rt_options.run.shards << ",\n"
             << "  \"policy\": \"" << core::to_string(options.policy)
             << "\",\n"
             << "  \"lockfree\": " << (options.lockfree ? "true" : "false")
             << ",\n"
             << "  \"dataplane\": {\n"
             << "    \"enabled\": "
             << (options.dataplane ? "true" : "false") << ",\n"
             << "    \"forwards\": " << forwards << ",\n"
             << "    \"bytes_forwarded\": " << bytes_forwarded << ",\n"
             << "    \"affinity_hits\": " << e.affinity_hits << ",\n"
             << "    \"affinity_misses\": " << e.affinity_misses << ",\n"
             << "    \"affinity_cold\": " << e.affinity_cold << ",\n"
             << "    \"cross_shard_bytes\": " << e.cross_shard_bytes
             << "\n"
             << "  },\n"
             << "  \"trace\": "
             << (rt_options.trace != nullptr ? "true" : "false") << ",\n"
             << "  \"check\": " << (options.check ? "true" : "false")
             << ",\n"
             << "  \"guard\": \"" << core::to_string(options.guard.mode)
             << "\",\n"
             << "  \"guard_sample_period\": "
             << options.guard.sample_period << ",\n"
             << "  \"guard_checks\": " << st.guard.checks << ",\n"
             << "  \"guard_sampled_blocks\": " << st.guard.sampled_blocks
             << ",\n"
             << "  \"guard_violations\": " << st.guard.violations << ",\n"
             << "  \"wall_seconds\": " << st.wall_seconds << ",\n"
             << "  \"repeat\": " << options.repeat << ",\n"
             << "  \"iteration_wall_seconds\": [";
        for (std::size_t r = 0; r < iteration_walls.size(); ++r) {
          json << (r == 0 ? "" : ", ") << iteration_walls[r];
        }
        json << "],\n"
             << "  \"emulator\": {\n"
             << "    \"dispatches\": " << e.dispatches << ",\n"
             << "    \"home_dispatches\": " << e.home_dispatches << ",\n"
             << "    \"steal_dispatches\": " << e.steal_dispatches
             << ",\n"
             << "    \"steal_local\": " << e.steal_local << ",\n"
             << "    \"steal_remote\": " << e.steal_remote << ",\n"
             << "    \"steals_in\": " << e.steals_in << ",\n"
             << "    \"updates_processed\": " << e.updates_processed
             << ",\n"
             << "    \"range_updates\": " << e.range_updates_processed
             << ",\n"
             << "    \"range_members\": " << e.range_members << ",\n"
             << "    \"blocks_loaded\": " << e.blocks_loaded << ",\n"
             << "    \"prefetch_hits\": " << e.prefetch_hits << ",\n"
             << "    \"prefetch_misses\": " << e.prefetch_misses << ",\n"
             << "    \"deferred_replays\": " << e.deferred_replays << "\n"
             << "  },\n"
             << "  \"shard_imbalance_pct\": " << imbalance_pct << ",\n"
             << "  \"per_shard\": [";
        for (std::size_t g = 0; g < st.emulators.size(); ++g) {
          const runtime::EmulatorStats& pe = st.emulators[g];
          json << (g == 0 ? "\n" : ",\n")
               << "    {\"dispatches\": " << pe.dispatches
               << ", \"home_dispatches\": " << pe.home_dispatches
               << ", \"steal_local\": " << pe.steal_local
               << ", \"steal_remote\": " << pe.steal_remote
               << ", \"steals_in\": " << pe.steals_in << "}";
        }
        json << "\n  ]\n"
             << "}\n";
        std::ofstream(options.json_file) << json.str();
        out << "  wrote " << options.json_file << "\n";
      }
      if (want_exec_trace) {
        if (options.graph_file.empty()) {
          // Benchmark provenance so `tflux_check` can rebuild the
          // exact Program without a saved ddmgraph.
          std::string app_name = apps::to_string(options.app);
          std::string size_name = apps::to_string(options.size);
          for (char& c : app_name) c = static_cast<char>(std::tolower(c));
          for (char& c : size_name) {
            c = static_cast<char>(std::tolower(c));
          }
          exec_trace.app = app_name;
          exec_trace.size = size_name;
          exec_trace.unroll = options.unroll;
          exec_trace.tsu_capacity = options.tsu_capacity;
        }
        if (!options.trace_file.empty()) {
          std::ofstream(options.trace_file)
              << core::save_trace(exec_trace);
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
      if (options.shards != 0) cfg.topology.shards = options.shards;
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
    std::ofstream(options.trace_file) << trace.to_chrome_json();
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
