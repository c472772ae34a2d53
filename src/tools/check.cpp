#include "tools/check.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "apps/suite.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "core/error.h"
#include "core/graph_io.h"
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
  throw TFluxError("tflux_check: trace names unknown app '" + name +
                   "' (trapez, mmult, qsort, susan, fft)");
}

apps::SizeClass parse_size(const std::string& name) {
  if (name == "small") return apps::SizeClass::kSmall;
  if (name == "medium") return apps::SizeClass::kMedium;
  if (name == "large") return apps::SizeClass::kLarge;
  throw TFluxError("tflux_check: trace names unknown size '" + name +
                   "' (small, medium, large)");
}

std::string slurp(const std::string& path, const char* what) {
  std::ifstream in(path);
  if (!in) {
    throw TFluxError(std::string("tflux_check: cannot open ") + what +
                     " '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

std::string check_usage() {
  return
      "usage: tflux_check [options] [TRACE]\n"
      "Replay a ddmtrace execution trace through the ddmcheck "
      "verifier.\n"
      "  --trace=FILE                         the trace to verify "
      "(or positional)\n"
      "  --graph=FILE                         rebuild the program from "
      "a ddmgraph file\n"
      "                                       instead of the trace's "
      "app metadata\n"
      "  --no-races                           skip the happens-before "
      "footprint race pass\n"
      "  --max-findings=N                     stop after N findings "
      "(default 256, 0 = all)\n"
      "  --quiet                              summary only\n"
      "  --help\n"
      "Invariant catalog: docs/CHECKING.md\n";
}

CheckCliOptions parse_check_args(const std::vector<std::string>& args) {
  CheckCliOptions options;
  for (const std::string& arg : args) {
    auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace_file = value_of("--trace=");
    } else if (arg.rfind("--graph=", 0) == 0) {
      options.graph_file = value_of("--graph=");
    } else if (arg == "--no-races") {
      options.races = false;
    } else if (arg.rfind("--max-findings=", 0) == 0) {
      core::parse_flag_uint("tflux_check", "--max-findings",
                            value_of("--max-findings="), /*min_one=*/false,
                            options.max_findings);
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      throw TFluxError("tflux_check: unknown option '" + arg + "'\n" +
                       check_usage());
    } else if (options.trace_file.empty()) {
      options.trace_file = arg;
    } else {
      throw TFluxError("tflux_check: more than one trace file given\n" +
                       check_usage());
    }
  }
  if (!options.help && options.trace_file.empty()) {
    throw TFluxError("tflux_check: no trace file given\n" + check_usage());
  }
  return options;
}

int run_check(const CheckCliOptions& options, std::ostream& out) {
  if (options.help) {
    out << check_usage();
    return 0;
  }

  const core::ExecTrace trace =
      core::load_trace(slurp(options.trace_file, "trace"));

  core::Program program;
  if (!options.graph_file.empty()) {
    core::BuildOptions build_options;
    build_options.num_kernels = trace.kernels;
    if (trace.tsu_capacity != 0) {
      build_options.tsu_capacity = trace.tsu_capacity;
    }
    // The checker wants findings, not a build() throw; materialize
    // whatever the file describes (same stance as tflux_lint).
    build_options.validate = false;
    program =
        core::load_graph(slurp(options.graph_file, "graph"), build_options);
  } else if (!trace.app.empty()) {
    apps::DdmParams params;
    params.num_kernels = trace.kernels;
    if (trace.unroll != 0) params.unroll = trace.unroll;
    if (trace.tsu_capacity != 0) params.tsu_capacity = trace.tsu_capacity;
    program = apps::build_app(parse_app(trace.app),
                              parse_size(trace.size),
                              apps::Platform::kNative, params)
                  .program;
  } else {
    throw TFluxError(
        "tflux_check: trace carries no benchmark metadata; pass "
        "--graph=FILE with the ddmgraph it was recorded from");
  }

  core::CheckOptions check_options;
  check_options.check_races = options.races;
  check_options.max_findings = options.max_findings;
  const core::CheckReport report =
      core::check_trace(program, trace, check_options);

  out << "tflux_check: " << options.trace_file << ": program '"
      << trace.program << "', " << trace.kernels << " kernel(s), "
      << trace.groups << " group(s), policy " << trace.policy << ", "
      << trace.records.size() << " record(s)\n";
  if (options.quiet) {
    std::istringstream lines(report.to_string(program));
    std::string line, last;
    while (std::getline(lines, line)) last = line;
    out << last << "\n";
  } else {
    out << report.to_string(program);
  }
  return report.clean() ? 0 : 1;
}

}  // namespace tflux::tools
