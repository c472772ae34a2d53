#include "tools/lint.h"

#include <cctype>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/error.h"
#include "core/graph_io.h"
#include "core/json.h"
#include "core/spec.h"

namespace tflux::tools {

using core::TFluxError;

namespace {

apps::AppKind parse_app(const std::string& name) {
  for (apps::AppKind kind : apps::all_apps()) {
    std::string lower = apps::to_string(kind);
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (name == lower) return kind;
  }
  throw TFluxError("tflux_lint: unknown app '" + name +
                   "' (trapez, mmult, qsort, susan, susanpipe, fft)");
}

apps::SizeClass parse_size(const std::string& name) {
  if (name == "small") return apps::SizeClass::kSmall;
  if (name == "medium") return apps::SizeClass::kMedium;
  if (name == "large") return apps::SizeClass::kLarge;
  throw TFluxError("tflux_lint: unknown size '" + name +
                   "' (small, medium, large)");
}

}  // namespace

std::string lint_usage() {
  return
      "usage: tflux_lint [options]\n"
      "Statically verify DDM synchronization graphs (ddmlint).\n"
      "  --app=trapez|mmult|qsort|susan|susanpipe|fft\n"
      "                                       lint one benchmark "
      "(default trapez)\n"
      "  --all                                lint every shipped "
      "benchmark\n"
      "  --graph=FILE                         lint a ddmgraph file\n"
      "  --size=small|medium|large            (default small)\n"
      "  --kernels=N                          target kernel count "
      "(default 4)\n"
      "  --unroll=N                           loop unroll factor "
      "(default 4)\n"
      "  --tsu-capacity=N                     target TSU capacity "
      "(default 512)\n"
      "  --lane-capacity=N                    lock-free TUB lane "
      "capacity for the\n"
      "                                       lane-capacity-stall check "
      "(0 = off)\n"
      "  --min-block-threads=N                stall-prone-block "
      "threshold: warn when a\n"
      "                                       non-final block has fewer "
      "app DThreads\n"
      "                                       (0 = off; try kernels x "
      "2)\n"
      "  --coalescable-arcs=N                 warn when a DThread "
      "declares >= N unit\n"
      "                                       arcs to consecutive "
      "instances of one\n"
      "                                       consumer instead of a "
      "range arc (0 = off)\n"
      "  --guard-hotspots=N                   warn when a block's Ready "
      "Count fan-in\n"
      "                                       exceeds N updates - a "
      "ddmguard sampled-mode\n"
      "                                       overhead hotspot (0 = "
      "off)\n"
      "  --shards=K                           clustered topology for "
      "the shard-imbalance\n"
      "                                       check (0 = no topology)\n"
      "  --shard-imbalance=N                  warn when a shard's "
      "homed DThread/update\n"
      "                                       load deviates more than "
      "N% from uniform\n"
      "                                       (0 = off; needs "
      "--shards)\n"
      "  --affinity-split=N                   warn when a consumer's "
      "input footprint is\n"
      "                                       written by producers "
      "homed on more than N\n"
      "                                       kernels (shards with "
      "--shards; 0 = off)\n"
      "  --tenant-capacity=W                  resident-executor "
      "admission: error when\n"
      "                                       the program cannot run "
      "on a W-kernel\n"
      "                                       tenant slice, warn when "
      "a block's peak\n"
      "                                       concurrency saturates "
      "the slice's lanes\n"
      "                                       (0 = off)\n"
      "  --dead-footprint                     warn when a DThread's "
      "write ranges are\n"
      "                                       read by none of its "
      "consumers\n"
      "  --json=FILE                          also write the findings "
      "as JSON\n"
      "  --strict                             exit nonzero on warnings "
      "too\n"
      "  --werror                             promote warnings to "
      "errors\n"
      "  --quiet                              summaries only\n"
      "  --help\n"
      "Diagnostic catalog: docs/LINTING.md\n";
}

LintOptions parse_lint_args(const std::vector<std::string>& args) {
  LintOptions options;
  for (const std::string& arg : args) {
    auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    // `--flag=N` into `field`, bounded by the field's type.
    auto uint_flag = [&arg](const char* flag, bool min_one, auto& field) {
      core::parse_flag_uint("tflux_lint", flag,
                            arg.substr(std::strlen(flag) + 1), min_one,
                            field);
    };
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg.rfind("--app=", 0) == 0) {
      options.app = parse_app(value_of("--app="));
    } else if (arg == "--all") {
      options.all = true;
    } else if (arg.rfind("--graph=", 0) == 0) {
      options.graph_file = value_of("--graph=");
    } else if (arg.rfind("--size=", 0) == 0) {
      options.size = parse_size(value_of("--size="));
    } else if (arg.rfind("--kernels=", 0) == 0) {
      uint_flag("--kernels", /*min_one=*/true, options.kernels);
    } else if (arg.rfind("--unroll=", 0) == 0) {
      uint_flag("--unroll", /*min_one=*/true, options.unroll);
    } else if (arg.rfind("--tsu-capacity=", 0) == 0) {
      uint_flag("--tsu-capacity", /*min_one=*/false, options.tsu_capacity);
    } else if (arg.rfind("--lane-capacity=", 0) == 0) {
      uint_flag("--lane-capacity", /*min_one=*/false,
                options.tub_lane_capacity);
    } else if (arg.rfind("--min-block-threads=", 0) == 0) {
      uint_flag("--min-block-threads", /*min_one=*/false,
                options.min_block_threads);
    } else if (arg.rfind("--coalescable-arcs=", 0) == 0) {
      uint_flag("--coalescable-arcs", /*min_one=*/false,
                options.coalescable_arcs);
    } else if (arg.rfind("--guard-hotspots=", 0) == 0) {
      uint_flag("--guard-hotspots", /*min_one=*/false,
                options.guard_hotspots);
    } else if (arg.rfind("--shards=", 0) == 0) {
      uint_flag("--shards", /*min_one=*/false, options.shards);
    } else if (arg.rfind("--shard-imbalance=", 0) == 0) {
      uint_flag("--shard-imbalance", /*min_one=*/false,
                options.shard_imbalance);
    } else if (arg.rfind("--affinity-split=", 0) == 0) {
      uint_flag("--affinity-split", /*min_one=*/false,
                options.affinity_split);
    } else if (arg.rfind("--tenant-capacity=", 0) == 0) {
      uint_flag("--tenant-capacity", /*min_one=*/false,
                options.tenant_capacity);
    } else if (arg == "--dead-footprint") {
      options.dead_footprint = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_file = value_of("--json=");
      if (options.json_file.empty()) {
        throw TFluxError("tflux_lint: --json needs a file name");
      }
    } else if (arg == "--strict") {
      options.strict = true;
    } else if (arg == "--werror") {
      options.werror = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else {
      throw TFluxError("tflux_lint: unknown option '" + arg + "'\n" +
                       lint_usage());
    }
  }
  return options;
}

core::VerifyReport lint_program(const core::Program& program,
                                const LintOptions& options,
                                std::ostream& out) {
  core::VerifyOptions verify_options;
  verify_options.tsu_capacity = options.tsu_capacity;
  verify_options.num_kernels = options.kernels;
  verify_options.tub_lane_capacity = options.tub_lane_capacity;
  verify_options.min_block_threads = options.min_block_threads;
  verify_options.coalescable_arc_min = options.coalescable_arcs;
  verify_options.guard_hotspot_budget = options.guard_hotspots;
  verify_options.shards = options.shards;
  verify_options.shard_imbalance_pct = options.shard_imbalance;
  verify_options.affinity_split = options.affinity_split;
  verify_options.tenant_width = options.tenant_capacity;
  verify_options.check_dead_footprint = options.dead_footprint;
  core::VerifyReport report = core::verify(program, verify_options);
  if (options.werror) {
    for (core::Diagnostic& d : report.diagnostics) {
      if (d.severity == core::Severity::kWarning) {
        d.severity = core::Severity::kError;
        --report.num_warnings;
        ++report.num_errors;
      }
    }
  }
  if (!options.quiet) {
    for (const core::Diagnostic& d : report.diagnostics) {
      out << program.name() << ": " << d.to_string(program) << "\n";
    }
  }
  out << program.name() << ": " << program.num_app_threads()
      << " DThreads in " << program.num_blocks() << " block(s): "
      << report.num_errors << " error(s), " << report.num_warnings
      << " warning(s)\n";
  return report;
}

std::string lint_report_json(const core::Program& program,
                             const core::VerifyReport& report) {
  std::ostringstream json;
  json << "{\"program\": \"" << core::json_escape(program.name())
       << "\", \"errors\": " << report.num_errors
       << ", \"warnings\": " << report.num_warnings
       << ", \"diagnostics\": [";
  bool first = true;
  for (const core::Diagnostic& d : report.diagnostics) {
    if (!first) json << ", ";
    first = false;
    json << "{\"severity\": \"" << core::to_string(d.severity)
         << "\", \"code\": \"" << core::to_string(d.code) << "\", ";
    json << "\"thread\": ";
    if (d.thread == core::kInvalidThread) {
      json << "null";
    } else {
      json << d.thread;
    }
    json << ", \"other\": ";
    if (d.other == core::kInvalidThread) {
      json << "null";
    } else {
      json << d.other;
    }
    json << ", \"block\": ";
    if (d.block == core::kInvalidBlock) {
      json << "null";
    } else {
      json << d.block;
    }
    json << ", \"message\": \"" << core::json_escape(d.message) << "\"}";
  }
  json << "]}";
  return json.str();
}

int run_lint(const LintOptions& options, std::ostream& out) {
  if (options.help) {
    out << lint_usage();
    return 0;
  }

  std::uint32_t errors = 0;
  std::uint32_t warnings = 0;
  std::vector<std::string> json_programs;
  auto account = [&](const core::Program& program,
                     const core::VerifyReport& report) {
    errors += report.num_errors;
    warnings += report.num_warnings;
    if (!options.json_file.empty()) {
      json_programs.push_back(lint_report_json(program, report));
    }
  };

  if (!options.graph_file.empty()) {
    std::ifstream gin(options.graph_file);
    if (!gin) {
      throw TFluxError("tflux_lint: cannot open '" + options.graph_file +
                       "'");
    }
    std::ostringstream gtext;
    gtext << gin.rdbuf();
    core::BuildOptions build_options;
    build_options.num_kernels = options.kernels;
    build_options.tsu_capacity = options.tsu_capacity;
    // Lint wants diagnostics, not a build() throw, so materialize
    // whatever the file describes and let verify() judge it.
    build_options.validate = false;
    const core::Program program =
        core::load_graph(gtext.str(), build_options);
    account(program, lint_program(program, options, out));
  } else {
    apps::DdmParams params;
    params.num_kernels = options.kernels;
    params.unroll = options.unroll;
    params.tsu_capacity = options.tsu_capacity;
    std::vector<apps::AppKind> kinds =
        options.all ? apps::all_apps()
                    : std::vector<apps::AppKind>{options.app};
    for (apps::AppKind kind : kinds) {
      const apps::AppRun run = apps::build_app(
          kind, options.size, apps::Platform::kSimulated, params);
      account(run.program, lint_program(run.program, options, out));
    }
  }

  const bool failed = errors != 0 || (options.strict && warnings != 0);
  if (!options.json_file.empty()) {
    std::ofstream json_out(options.json_file);
    if (!json_out) {
      throw TFluxError("tflux_lint: cannot write --json file '" +
                       options.json_file + "'");
    }
    json_out << "{\"tool\": \"tflux_lint\", \"errors\": " << errors
             << ", \"warnings\": " << warnings << ", \"failed\": "
             << (failed ? "true" : "false") << ", \"programs\": [";
    for (std::size_t i = 0; i < json_programs.size(); ++i) {
      if (i != 0) json_out << ", ";
      json_out << json_programs[i];
    }
    json_out << "]}\n";
  }
  out << "tflux_lint: " << errors << " error(s), " << warnings
      << " warning(s) total -> " << (failed ? "FAIL" : "ok") << "\n";
  return failed ? 1 : 0;
}

}  // namespace tflux::tools
