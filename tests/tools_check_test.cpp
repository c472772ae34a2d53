// tflux_check driver tests: argument parsing, Program provenance
// (benchmark metadata vs --graph), and exit codes over known-good and
// known-corrupted traces.
#include "tools/check.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/error.h"
#include "tools/cli.h"

namespace tflux::tools {
namespace {

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

/// Record a real trace by running trapez on the native runtime.
std::string record_trapez_trace(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::ostringstream out;
  const CliOptions o = parse_args(
      {"--app=trapez", "--platform=soft", "--kernels=2", "--unroll=8",
       "--tsu-capacity=64", "--no-baseline",
       std::string("--trace=") + path});
  EXPECT_EQ(run_cli(o, out), 0) << out.str();
  return path;
}

TEST(ToolsCheckTest, ParsesDefaultsAndFlags) {
  const CheckCliOptions d = parse_check_args({"t.ddmtrace"});
  EXPECT_EQ(d.trace_file, "t.ddmtrace");
  EXPECT_TRUE(d.races);
  EXPECT_EQ(d.max_findings, 256u);
  EXPECT_FALSE(d.quiet);

  const CheckCliOptions o = parse_check_args(
      {"--trace=t.ddmtrace", "--graph=g.ddmg", "--no-races",
       "--max-findings=7", "--quiet"});
  EXPECT_EQ(o.trace_file, "t.ddmtrace");
  EXPECT_EQ(o.graph_file, "g.ddmg");
  EXPECT_FALSE(o.races);
  EXPECT_EQ(o.max_findings, 7u);
  EXPECT_TRUE(o.quiet);

  EXPECT_TRUE(parse_check_args({"--help"}).help);
}

TEST(ToolsCheckTest, ParseErrors) {
  EXPECT_THROW(parse_check_args({}), core::TFluxError);
  EXPECT_THROW(parse_check_args({"--bogus"}), core::TFluxError);
  EXPECT_THROW(parse_check_args({"--max-findings=lots"}),
               core::TFluxError);
  EXPECT_THROW(parse_check_args({"a.ddmtrace", "b.ddmtrace"}),
               core::TFluxError);
}

TEST(ToolsCheckTest, IntegerFlagsRejectValuesTheFieldCannotHold) {
  // --max-findings is bounded by its 32-bit field: nothing wraps.
  EXPECT_THROW(parse_check_args({"t.ddmtrace", "--max-findings=-1"}),
               core::TFluxError);
  EXPECT_THROW(
      parse_check_args({"t.ddmtrace", "--max-findings=4294967296"}),
      core::TFluxError);
  EXPECT_THROW(parse_check_args({"t.ddmtrace", "--max-findings=+3"}),
               core::TFluxError);
  EXPECT_EQ(
      parse_check_args({"t.ddmtrace", "--max-findings=4294967295"})
          .max_findings,
      4294967295u);
  EXPECT_EQ(parse_check_args({"t.ddmtrace", "--max-findings=0"}).max_findings,
            0u);
}

TEST(ToolsCheckTest, RecordedBenchmarkTraceChecksClean) {
  // Provenance path 1: the Program is rebuilt from the trace's own
  // app/size/unroll/tsu-capacity metadata.
  CheckCliOptions options;
  options.trace_file = record_trapez_trace("check_clean.ddmtrace");
  std::ostringstream out;
  EXPECT_EQ(run_check(options, out), 0) << out.str();
  EXPECT_NE(out.str().find("0 finding(s)"), std::string::npos) << out.str();
}

TEST(ToolsCheckTest, CorruptedTraceFailsWithFinding) {
  // Drop one update record from a real trace: the checker must exit 1
  // and name the violated invariant.
  const std::string src = record_trapez_trace("check_corrupt.ddmtrace");
  std::ifstream in(src);
  std::ostringstream filtered;
  std::string line;
  bool dropped = false;
  while (std::getline(in, line)) {
    if (!dropped && line.find(" update ") != std::string::npos) {
      dropped = true;
      continue;
    }
    filtered << line << '\n';
  }
  ASSERT_TRUE(dropped);
  CheckCliOptions options;
  options.trace_file = write_temp("check_corrupt2.ddmtrace",
                                  filtered.str());
  std::ostringstream out;
  EXPECT_EQ(run_check(options, out), 1) << out.str();
  EXPECT_NE(out.str().find("missing-update"), std::string::npos)
      << out.str();
}

TEST(ToolsCheckTest, GraphProvenanceOverridesMetadata) {
  // Provenance path 2: --graph rebuilds the Program from a ddmgraph
  // file (the route for traces of loaded graphs, which carry no
  // benchmark metadata).
  const std::string graph = write_temp("check_prov.ddmg", R"(ddmgraph 1
program prov
block
thread a compute 10
thread b compute 10
arc 0 1
)");
  // a=0, b=1, inlet=2, outlet=3 (Ready Count 1: b is the only sink).
  const std::string trace = write_temp("check_prov.ddmtrace",
                                       R"(ddmtrace 1
program prov
config kernels 1 groups 1 policy locality pipeline 0 lockfree 1
e 0 dispatch 1 2 0
e 1 complete 0 2 0
e 2 inlet-load 1 0 0
e 3 dispatch 1 0 0
e 4 complete 0 0 0
e 5 update 0 0 1
e 6 dispatch 1 1 0
e 7 complete 0 1 0
e 8 update 0 1 3
e 9 dispatch 1 3 0
e 10 complete 0 3 0
e 11 outlet-done 0 0 0
)");
  CheckCliOptions options;
  options.trace_file = trace;
  options.graph_file = graph;
  std::ostringstream out;
  EXPECT_EQ(run_check(options, out), 0) << out.str();

  // Without --graph the metadata-free trace cannot be checked.
  CheckCliOptions bare;
  bare.trace_file = trace;
  std::ostringstream bare_out;
  EXPECT_THROW(run_check(bare, bare_out), core::TFluxError);
}

}  // namespace
}  // namespace tflux::tools
