#include "tools/model.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "apps/susan_pipeline.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "core/error.h"
#include "core/graph_io.h"
#include "core/json.h"
#include "tools/flags.h"

namespace tflux::tools {

using core::TFluxError;

namespace {

/// One model-checking target: the program plus the benchmark metadata
/// stamped into counterexample traces (empty app = graph file; the
/// replay then needs tflux_check --graph=).
struct Target {
  std::string display;
  core::Program program;
  std::string app;
  std::string size;
  std::uint32_t unroll = 0;
  std::uint32_t tsu_capacity = 0;
};

std::vector<Target> make_targets(const ModelCliOptions& options) {
  std::vector<Target> targets;
  if (!options.graph_file.empty()) {
    std::ifstream in(options.graph_file);
    if (!in) {
      throw TFluxError("tflux_model: cannot open '" + options.graph_file +
                       "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    core::BuildOptions build_options;
    build_options.num_kernels = options.kernels;
    if (options.tsu_capacity != 0) {
      build_options.tsu_capacity = options.tsu_capacity;
    }
    // The checker wants to explore whatever the file describes -
    // including deliberately broken fixtures a strict build() would
    // reject (deadlock fixtures have cycles).
    build_options.validate = false;
    Target t;
    t.program = core::load_graph(text.str(), build_options);
    t.display = t.program.name();
    targets.push_back(std::move(t));
    return targets;
  }
  const std::vector<apps::AppKind> kinds =
      options.all ? apps::all_apps()
                  : std::vector<apps::AppKind>{options.app};
  for (apps::AppKind kind : kinds) {
    std::uint32_t unroll = options.unroll;
    std::uint32_t capacity = options.tsu_capacity;
    if (unroll == 0 || capacity == 0) {
      std::uint32_t def_unroll = 0;
      std::uint32_t def_capacity = 0;
      model_small_config(kind, def_unroll, def_capacity);
      if (unroll == 0) unroll = def_unroll;
      if (capacity == 0) capacity = def_capacity;
    }
    Target t;
    if (kind == apps::AppKind::kSusanPipe) {
      // SUSANPIPE's problem sizes scale by frame count and strip
      // count, not unroll, and even the small size (3 frames x 24
      // strips) is far beyond exhaustive exploration. Model a micro
      // pipeline instead - one frame, two strips, the same four-stage
      // block structure - so every protocol rule the pipeline
      // exercises (cross-block data arcs, per-stage block chaining)
      // is still covered. No app metadata is stamped: tflux_check
      // cannot rebuild this micro input from a size class, so the
      // replay parity leg runs in-process (and via --graph).
      apps::SusanPipeInput micro;
      micro.width = 32;
      micro.height = 8;
      micro.strips = 2;
      micro.frames = 1;
      apps::DdmParams params;
      params.num_kernels = options.kernels;
      params.unroll = unroll;
      params.tsu_capacity = capacity;
      t.program = apps::build_susan_pipeline(micro, params).program;
      t.display = t.program.name();
      targets.push_back(std::move(t));
      continue;
    }
    apps::DdmParams params;
    params.num_kernels = options.kernels;
    params.unroll = unroll;
    params.tsu_capacity = capacity;
    // Platform::kNative: the same rebuild rule tflux_check applies to
    // a trace's app metadata, so the external replay sees the exact
    // Program the model explored.
    t.program =
        apps::build_app(kind, options.size, apps::Platform::kNative, params)
            .program;
    t.display = t.program.name();
    t.app = apps::cli_name(kind);
    t.size = apps::cli_name(options.size);
    t.unroll = unroll;
    t.tsu_capacity = capacity;
    targets.push_back(std::move(t));
  }
  return targets;
}

void stamp_metadata(core::ExecTrace& trace, const Target& target) {
  trace.app = target.app;
  trace.size = target.size;
  trace.unroll = target.unroll;
  trace.tsu_capacity = target.tsu_capacity;
}

Command model_command(ModelCliOptions& o) {
  return Command{
      "tflux_model",
      "Exhaustively model-check the DDM protocol over small configurations "
      "(ddmmodel), exploring every schedule; violations come back as "
      "replayable ddmtrace counterexamples.",
      {
          app_flag(o.app, "model one benchmark (default trapez)"),
          switch_flag("--all", "model every shipped benchmark", o.all),
          graph_flag(o.graph_file, "model a ddmgraph file (fixtures)"),
          size_flag(o.size),
          uint_flag("--kernels", "N", "modeled kernel count (default 2)",
                    o.kernels, /*min_one=*/true, 64),
          unroll_flag(o.unroll,
                      "loop unroll factor (default: per-app small config)",
                      1u << 20),
          tsu_capacity_flag(o.tsu_capacity,
                            "TSU capacity (default 0 = per-app small "
                            "config)",
                            1u << 20),
          switch_flag("--no-pipeline",
                      "model the simulators' TsuState protocol: "
                      "synchronous Inlet loads instead of "
                      "promote-at-OutletDone (the native runtime always "
                      "pipelines)",
                      o.pipelined, false),
          choice_flag("--mutate",
                      "drop-retire-guard|skip-shadow-promote|unordered-grant|"
                      "double-publish|replay-stale-update",
                      "remove one protocol guard; the run must find a "
                      "counterexample",
                      o.mutation, core::parse_model_mutation),
          switch_flag("--mutate-all", "the clean check plus every mutation",
                      o.mutate_all),
          switch_flag("--no-replay", "skip the ddmcheck parity replay",
                      o.replay, false),
          uint_flag("--max-states", "N",
                    "exploration bound (default 1000000)", o.max_states,
                    /*min_one=*/false, std::uint64_t{1} << 40),
          switch_flag("--no-por", "disable partial-order reduction", o.por,
                      false),
          path_flag("--trace-out", "FILE",
                    "write the first counterexample trace", o.trace_out),
          path_flag("--cex-dir", "DIR",
                    "write every counterexample as "
                    "DIR/<program>-<mutation>.ddmtrace",
                    o.cex_dir),
          switch_flag("--quiet", "summaries only", o.quiet),
      },
      "Decision matrix: docs/CHECKING.md"};
}

}  // namespace

std::string model_usage() {
  ModelCliOptions defaults;
  return usage_text(model_command(defaults));
}

ModelCliOptions parse_model_args(const std::vector<std::string>& args) {
  ModelCliOptions options;
  parse_command(model_command(options), args, options.help);
  return options;
}

void model_small_config(apps::AppKind kind, std::uint32_t& unroll,
                        std::uint32_t& tsu_capacity) {
  // The coarsest decomposition of each app's small problem size that
  // still spans >= 2 DDM blocks (so block transitions are modeled)
  // while keeping the exhaustive exploration well under the CI budget.
  switch (kind) {
    case apps::AppKind::kTrapez:
      unroll = 2048;  // 5 DThreads in 2 blocks
      tsu_capacity = 5;
      break;
    case apps::AppKind::kMmult:
      unroll = 16;  // 4 row-chunk DThreads in 2 blocks
      tsu_capacity = 5;
      break;
    case apps::AppKind::kQsort:
      unroll = 4096;  // 6 DThreads in 2 blocks
      tsu_capacity = 6;
      break;
    case apps::AppKind::kSusan:
      unroll = 4096;  // 3 stage DThreads in 3 blocks
      tsu_capacity = 6;
      break;
    case apps::AppKind::kFft:
      unroll = 512;  // 2 stage DThreads in 2 blocks
      tsu_capacity = 6;
      break;
    case apps::AppKind::kSusanPipe:
      // Unused by the pipeline's graph shape (frames/strips scale it);
      // make_targets models a micro pipeline input instead.
      unroll = 4096;
      tsu_capacity = 6;
      break;
  }
}

int run_model(const ModelCliOptions& options, std::ostream& out) {
  if (options.help) {
    out << model_usage();
    return 0;
  }

  const std::vector<Target> targets = make_targets(options);
  std::vector<core::ModelMutation> mutations;
  if (options.mutate_all) {
    mutations.push_back(core::ModelMutation::kNone);
    for (core::ModelMutation m : core::all_model_mutations()) {
      mutations.push_back(m);
    }
  } else {
    mutations.push_back(options.mutation);
  }

  bool failed = false;
  bool wrote_first_cex = false;
  std::uint32_t runs = 0;
  for (const Target& target : targets) {
    for (core::ModelMutation mutation : mutations) {
      ++runs;
      core::ModelOptions model_options;
      model_options.kernels = options.kernels;
      model_options.pipelined = options.pipelined;
      model_options.mutation = mutation;
      model_options.max_states = options.max_states;
      model_options.por = options.por;

      const auto start = std::chrono::steady_clock::now();
      const core::ModelReport report =
          core::check_model(target.program, model_options);
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start);

      const std::string tag =
          target.display + " [mutate=" + core::to_string(mutation) + "]";
      if (!options.quiet && !report.violations.empty()) {
        for (const core::ModelViolation& v : report.violations) {
          out << tag << ": " << v.to_string(target.program) << "\n";
        }
      }
      out << tag << ": " << core::to_string(report.verdict) << " - "
          << report.states_explored << " state(s), "
          << report.states_deduped << " deduped, " << report.transitions
          << " transition(s), depth " << report.depth << ", "
          << report.por_ample_hits << " POR-reduced, " << elapsed.count()
          << " ms\n";

      // The run's outcome: clean runs must verify clean, mutation runs
      // must find a replay-confirmed counterexample.
      bool ok;
      if (mutation == core::ModelMutation::kNone) {
        ok = report.clean();
        if (!ok) {
          out << tag << ": FAIL - expected every schedule clean, got "
              << core::to_string(report.verdict) << "\n";
        }
      } else {
        ok = report.has_counterexample && !report.violations.empty();
        if (!ok) {
          out << tag
              << ": FAIL - guard removed but no counterexample found\n";
        }
      }

      if (report.has_counterexample) {
        core::ExecTrace cex = report.counterexample;
        stamp_metadata(cex, target);
        if (ok && options.replay) {
          // Parity leg: ddmcheck replays the synthetic trace and must
          // rediscover the model's primary finding. The model stops at
          // the first trip per code path while the replay sees every
          // downstream consequence, so containment - not equality - is
          // the contract.
          const core::CheckReport check =
              core::check_trace(target.program, cex);
          const core::FindingCode primary = report.violations.front().code;
          bool found = false;
          for (const core::CheckFinding& f : check.findings) {
            found |= f.code == primary;
          }
          if (found) {
            if (!options.quiet) {
              out << tag << ": replay confirmed ["
                  << core::to_string(primary) << "] via ddmcheck ("
                  << check.findings.size() << " finding(s))\n";
            }
          } else {
            ok = false;
            out << tag << ": FAIL - ddmcheck replay did not report ["
                << core::to_string(primary) << "]; replay found:\n"
                << check.to_string(target.program);
          }
        }
        if (!options.trace_out.empty() && !wrote_first_cex) {
          core::write_file(options.trace_out, core::save_trace(cex));
          wrote_first_cex = true;
          out << tag << ": counterexample written to "
              << options.trace_out << "\n";
        }
        if (!options.cex_dir.empty()) {
          std::error_code ec;  // surfaced as the write failure below
          std::filesystem::create_directories(options.cex_dir, ec);
          const std::string path = options.cex_dir + "/" + target.display +
                                   "-" + core::to_string(mutation) +
                                   ".ddmtrace";
          core::write_file(path, core::save_trace(cex));
          if (!options.quiet) {
            out << tag << ": counterexample written to " << path << "\n";
          }
        }
      }
      failed |= !ok;
    }
  }

  out << "tflux_model: " << targets.size() << " config(s), " << runs
      << " run(s) -> " << (failed ? "FAIL" : "ok") << "\n";
  return failed ? 1 : 0;
}

}  // namespace tflux::tools
