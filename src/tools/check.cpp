#include "tools/check.h"

#include <fstream>
#include <sstream>

#include "apps/suite.h"
#include "core/check.h"
#include "core/ddmtrace.h"
#include "core/error.h"
#include "core/graph_io.h"
#include "tools/flags.h"

namespace tflux::tools {

using core::TFluxError;

namespace {

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

Command check_command(CheckCliOptions& o) {
  return Command{
      "tflux_check",
      "Replay a ddmtrace execution trace through the ddmcheck verifier.",
      {
          operand("TRACE", "the trace to verify (or --trace=FILE)",
                  o.trace_file),
          trace_flag(o.trace_file, "the trace to verify"),
          graph_flag(o.graph_file,
                     "rebuild the program from a ddmgraph file instead of "
                     "the trace's app metadata"),
          switch_flag("--no-races",
                      "skip the happens-before footprint race pass",
                      o.races, false),
          uint_flag("--max-findings", "N",
                    "stop after N findings (default 256, 0 = all)",
                    o.max_findings),
          switch_flag("--quiet", "summary only", o.quiet),
      },
      "Invariant catalog: docs/CHECKING.md"};
}

}  // namespace

std::string check_usage() {
  CheckCliOptions defaults;
  return usage_text(check_command(defaults));
}

CheckCliOptions parse_check_args(const std::vector<std::string>& args) {
  CheckCliOptions options;
  parse_command(check_command(options), args, options.help);
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
    apps::AppKind app;
    apps::SizeClass size;
    try {
      app = apps::parse_app(trace.app);
      size = apps::parse_size(trace.size);
    } catch (const TFluxError& e) {
      throw TFluxError(std::string("tflux_check: trace names ") + e.what());
    }
    program = apps::build_app(app, size, apps::Platform::kNative, params)
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
