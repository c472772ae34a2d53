#include "tools/lint.h"

#include <fstream>
#include <sstream>

#include "core/error.h"
#include "core/graph_io.h"
#include "core/json.h"
#include "tools/flags.h"

namespace tflux::tools {

using core::TFluxError;

namespace {

Command lint_command(LintOptions& o) {
  return Command{
      "tflux_lint",
      "Statically verify DDM synchronization graphs (ddmlint).",
      {
          app_flag(o.app, "lint one benchmark (default trapez)"),
          switch_flag("--all", "lint every shipped benchmark", o.all),
          graph_flag(o.graph_file, "lint a ddmgraph file"),
          size_flag(o.size),
          uint_flag("--kernels", "N", "target kernel count (default 4)",
                    o.kernels, /*min_one=*/true),
          unroll_flag(o.unroll, "loop unroll factor (default 4)"),
          tsu_capacity_flag(o.tsu_capacity,
                            "target TSU capacity (default 512)"),
          uint_flag("--lane-capacity", "N",
                    "lock-free TUB lane capacity for the "
                    "lane-capacity-stall check (0 = off)",
                    o.tub_lane_capacity),
          uint_flag("--min-block-threads", "N",
                    "stall-prone-block threshold: warn when a non-final "
                    "block has fewer app DThreads (0 = off; try kernels x "
                    "2)",
                    o.min_block_threads),
          uint_flag("--coalescable-arcs", "N",
                    "warn when a DThread declares >= N unit arcs to "
                    "consecutive instances of one consumer instead of a "
                    "range arc (0 = off)",
                    o.coalescable_arcs),
          uint_flag("--guard-hotspots", "N",
                    "warn when a block's Ready Count fan-in exceeds N "
                    "updates - a ddmguard sampled-mode overhead hotspot "
                    "(0 = off)",
                    o.guard_hotspots),
          tsu_groups_flag(o.tsu_groups,
                          "clustered TSU groups of the target topology for "
                          "the shard-imbalance and affinity-split checks "
                          "(default 1 = no topology)"),
          uint_flag("--shard-imbalance", "N",
                    "warn when a shard's homed DThread/update load "
                    "deviates more than N% from uniform (0 = off; needs "
                    "--tsu-groups >= 2)",
                    o.shard_imbalance),
          uint_flag("--affinity-split", "N",
                    "warn when a consumer's input footprint is written by "
                    "producers homed on more than N kernels (groups with "
                    "--tsu-groups >= 2; 0 = off)",
                    o.affinity_split),
          uint_flag("--tenant-capacity", "W",
                    "resident-executor admission: error when the program "
                    "cannot run on a W-kernel tenant slice, warn when a "
                    "block's peak concurrency saturates the slice's lanes "
                    "(0 = off)",
                    o.tenant_capacity),
          switch_flag("--dead-footprint",
                      "warn when a DThread's write ranges are read by none "
                      "of its consumers",
                      o.dead_footprint),
          json_flag(o.json_file, "also write the findings as JSON"),
          switch_flag("--strict", "exit nonzero on warnings too", o.strict),
          switch_flag("--werror", "promote warnings to errors", o.werror),
          switch_flag("--quiet", "summaries only", o.quiet),
      },
      "Diagnostic catalog: docs/LINTING.md"};
}

struct ProgramFindings {
  std::string program;
  core::VerifyReport report;
};

/// {"program": ..., "errors": N, "warnings": N, "diagnostics":
/// [{"severity", "code", "thread", "other", "block", "message"}, ...]};
/// invalid thread/block ids render as null.
void write_findings(core::JsonWriter& json, const ProgramFindings& p) {
  auto id = [&json](const char* key, std::uint32_t value,
                    std::uint32_t invalid) {
    if (value == invalid) {
      json.field(key, nullptr);
    } else {
      json.field(key, value);
    }
  };
  json.begin_object()
      .field("program", p.program)
      .field("errors", p.report.num_errors)
      .field("warnings", p.report.num_warnings)
      .begin_array("diagnostics");
  for (const core::Diagnostic& d : p.report.diagnostics) {
    json.begin_object()
        .field("severity", core::to_string(d.severity))
        .field("code", core::to_string(d.code));
    id("thread", d.thread, core::kInvalidThread);
    id("other", d.other, core::kInvalidThread);
    id("block", d.block, core::kInvalidBlock);
    json.field("message", d.message).end_object();
  }
  json.end_array().end_object();
}

}  // namespace

std::string lint_usage() {
  LintOptions defaults;
  return usage_text(lint_command(defaults));
}

LintOptions parse_lint_args(const std::vector<std::string>& args) {
  LintOptions options;
  parse_command(lint_command(options), args, options.help);
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
  verify_options.tsu_groups = options.tsu_groups;
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

int run_lint(const LintOptions& options, std::ostream& out) {
  if (options.help) {
    out << lint_usage();
    return 0;
  }

  std::uint32_t errors = 0;
  std::uint32_t warnings = 0;
  std::vector<ProgramFindings> findings;
  auto account = [&](const core::Program& program,
                     const core::VerifyReport& report) {
    errors += report.num_errors;
    warnings += report.num_warnings;
    if (!options.json_file.empty()) {
      findings.push_back(ProgramFindings{program.name(), report});
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
    core::JsonWriter json(core::JsonWriter::Layout::kLine);
    json.begin_object()
        .field("tool", "tflux_lint")
        .field("errors", errors)
        .field("warnings", warnings)
        .field("failed", failed)
        .begin_array("programs");
    for (const ProgramFindings& p : findings) write_findings(json, p);
    json.end_array().end_object();
    core::write_file(options.json_file, json.str() + "\n");
  }
  out << "tflux_lint: " << errors << " error(s), " << warnings
      << " warning(s) total -> " << (failed ? "FAIL" : "ok") << "\n";
  return failed ? 1 : 0;
}

}  // namespace tflux::tools
