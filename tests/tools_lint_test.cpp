// tflux_lint driver tests: argument parsing, exit codes, and linting
// of ddmgraph files (the path a hand-written or generated graph takes
// into the verifier).
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.h"
#include "tools/lint.h"

namespace tflux::tools {
namespace {

std::string write_temp_graph(const std::string& name,
                             const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

TEST(ToolsLintTest, ParsesDefaults) {
  const LintOptions options = parse_lint_args({});
  EXPECT_FALSE(options.all);
  EXPECT_TRUE(options.graph_file.empty());
  EXPECT_EQ(options.kernels, 4u);
  EXPECT_EQ(options.tsu_capacity, 512u);
  EXPECT_FALSE(options.strict);
}

TEST(ToolsLintTest, ParsesAppAllAndStrict) {
  const LintOptions options = parse_lint_args(
      {"--app=qsort", "--size=medium", "--kernels=8", "--strict"});
  EXPECT_EQ(options.app, apps::AppKind::kQsort);
  EXPECT_EQ(options.size, apps::SizeClass::kMedium);
  EXPECT_EQ(options.kernels, 8u);
  EXPECT_TRUE(options.strict);

  EXPECT_TRUE(parse_lint_args({"--all"}).all);
}

TEST(ToolsLintTest, RejectsUnknownOption) {
  EXPECT_THROW(parse_lint_args({"--bogus"}), core::TFluxError);
  EXPECT_THROW(parse_lint_args({"--app=doom"}), core::TFluxError);
}

TEST(ToolsLintTest, IntegerFlagsRejectValuesTheFieldCannotHold) {
  // Each flag is bounded by its field's type: nothing wraps.
  EXPECT_THROW(parse_lint_args({"--kernels=65537"}), core::TFluxError);
  EXPECT_THROW(parse_lint_args({"--kernels=-65535"}), core::TFluxError);
  EXPECT_THROW(parse_lint_args({"--kernels=0"}), core::TFluxError);
  EXPECT_THROW(parse_lint_args({"--unroll=0"}), core::TFluxError);
  EXPECT_THROW(parse_lint_args({"--shards=65538"}), core::TFluxError);
  EXPECT_THROW(parse_lint_args({"--tenant-capacity=65536"}),
               core::TFluxError);
  EXPECT_THROW(parse_lint_args({"--tsu-capacity=4294967296"}),
               core::TFluxError);
  EXPECT_THROW(parse_lint_args({"--min-block-threads=-1"}),
               core::TFluxError);
  EXPECT_EQ(parse_lint_args({"--kernels=65535"}).kernels, 65535u);
  EXPECT_EQ(parse_lint_args({"--shards=2"}).shards, 2u);
  EXPECT_EQ(parse_lint_args({"--tsu-capacity=4294967295"}).tsu_capacity,
            4294967295u);
}

TEST(ToolsLintTest, ParsesMinBlockThreads) {
  EXPECT_EQ(parse_lint_args({}).min_block_threads, 0u);  // off by default
  EXPECT_EQ(parse_lint_args({"--min-block-threads=8"}).min_block_threads,
            8u);
  EXPECT_THROW(parse_lint_args({"--min-block-threads=lots"}),
               core::TFluxError);
}

TEST(ToolsLintTest, MinBlockThreadsFlagsThinBlocks) {
  // Two blocks of one thread each: block 0 (non-final) is stall-prone
  // under a threshold of 8; the final block is exempt.
  const std::string path = write_temp_graph("thin.ddmg", R"(ddmgraph 1
program thin
block
thread a compute 10
block
thread b compute 10
)");
  LintOptions options;
  options.graph_file = path;
  options.min_block_threads = 8;
  std::ostringstream out;
  EXPECT_EQ(run_lint(options, out), 0) << out.str();  // warning, not error
  EXPECT_NE(out.str().find("stall-prone-block"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("block 0"), std::string::npos) << out.str();

  options.strict = true;
  std::ostringstream strict_out;
  EXPECT_EQ(run_lint(options, strict_out), 1) << strict_out.str();

  options.min_block_threads = 0;  // disabled: clean even under strict
  std::ostringstream off_out;
  EXPECT_EQ(run_lint(options, off_out), 0) << off_out.str();
}

TEST(ToolsLintTest, ParsesAffinitySplit) {
  EXPECT_EQ(parse_lint_args({}).affinity_split, 0u);  // off by default
  EXPECT_EQ(parse_lint_args({"--affinity-split=3"}).affinity_split, 3u);
  EXPECT_THROW(parse_lint_args({"--affinity-split=wide"}),
               core::TFluxError);
}

TEST(ToolsLintTest, ParsesCoalescableArcs) {
  EXPECT_EQ(parse_lint_args({}).coalescable_arcs, 0u);  // off by default
  EXPECT_EQ(parse_lint_args({"--coalescable-arcs=4"}).coalescable_arcs,
            4u);
  EXPECT_THROW(parse_lint_args({"--coalescable-arcs=many"}),
               core::TFluxError);
}

TEST(ToolsLintTest, CoalescableArcsFlagsUnitArcFanOut) {
  // One producer with unit arcs to four consecutive consumers: under
  // a threshold of 3 that run should be a single range arc.
  const std::string path = write_temp_graph("fanout.ddmg", R"(ddmgraph 1
program fanout
block
thread p compute 10
thread c0 compute 10
thread c1 compute 10
thread c2 compute 10
thread c3 compute 10
arc 0 1
arc 0 2
arc 0 3
arc 0 4
)");
  LintOptions options;
  options.graph_file = path;
  options.coalescable_arcs = 3;
  std::ostringstream out;
  EXPECT_EQ(run_lint(options, out), 0) << out.str();  // warning, not error
  EXPECT_NE(out.str().find("coalescable-arcs"), std::string::npos)
      << out.str();

  options.strict = true;
  std::ostringstream strict_out;
  EXPECT_EQ(run_lint(options, strict_out), 1) << strict_out.str();

  options.coalescable_arcs = 0;  // disabled: clean even under strict
  std::ostringstream off_out;
  EXPECT_EQ(run_lint(options, off_out), 0) << off_out.str();
}

TEST(ToolsLintTest, AllShippedAppsAreClean) {
  LintOptions options;
  options.all = true;
  std::ostringstream out;
  EXPECT_EQ(run_lint(options, out), 0) << out.str();
  EXPECT_NE(out.str().find("-> ok"), std::string::npos) << out.str();
}

TEST(ToolsLintTest, SingleAppIsClean) {
  LintOptions options;
  options.app = apps::AppKind::kMmult;
  std::ostringstream out;
  EXPECT_EQ(run_lint(options, out), 0) << out.str();
}

TEST(ToolsLintTest, BackwardArcGraphFileFailsTheLint) {
  // Declaration order: thread 0 in block 0, thread 1 in block 1; the
  // arc makes the later block feed the earlier one.
  const std::string path = write_temp_graph("backward.ddmg", R"(ddmgraph 1
program backward
block
thread early compute 10
block
thread late compute 10
arc 1 0
)");
  LintOptions options;
  options.graph_file = path;
  std::ostringstream out;
  EXPECT_EQ(run_lint(options, out), 1) << out.str();
  EXPECT_NE(out.str().find("backward-cross-block-arc"), std::string::npos)
      << out.str();
}

TEST(ToolsLintTest, RacyGraphFileFailsTheLint) {
  const std::string path = write_temp_graph("racy.ddmg", R"(ddmgraph 1
program racy
block
thread w1 compute 10
write 4096 256
thread w2 compute 10
write 4200 256
)");
  LintOptions options;
  options.graph_file = path;
  std::ostringstream out;
  EXPECT_EQ(run_lint(options, out), 1) << out.str();
  EXPECT_NE(out.str().find("footprint-race"), std::string::npos)
      << out.str();
}

TEST(ToolsLintTest, StrictTurnsWarningsIntoFailure) {
  // A zero-byte range lints as a warning: exit 0 normally, 1 under
  // --strict.
  const std::string path = write_temp_graph("warn.ddmg", R"(ddmgraph 1
program warn
block
thread t compute 10
read 4096 0
)");
  LintOptions options;
  options.graph_file = path;
  std::ostringstream out;
  EXPECT_EQ(run_lint(options, out), 0) << out.str();
  EXPECT_NE(out.str().find("empty-range"), std::string::npos) << out.str();

  options.strict = true;
  std::ostringstream strict_out;
  EXPECT_EQ(run_lint(options, strict_out), 1) << strict_out.str();
}

TEST(ToolsLintTest, ParsesWerror) {
  EXPECT_FALSE(parse_lint_args({}).werror);
  EXPECT_TRUE(parse_lint_args({"--werror"}).werror);
}

TEST(ToolsLintTest, WerrorTurnsWarningsIntoFailure) {
  // Same zero-byte-range warning as the --strict test: --werror
  // promotes it to an error (for CI, where a warning-only report must
  // still fail the build).
  const std::string path = write_temp_graph("werror.ddmg", R"(ddmgraph 1
program werror
block
thread t compute 10
read 4096 0
)");
  LintOptions options;
  options.graph_file = path;
  std::ostringstream out;
  EXPECT_EQ(run_lint(options, out), 0) << out.str();

  options.werror = true;
  std::ostringstream werror_out;
  EXPECT_EQ(run_lint(options, werror_out), 1) << werror_out.str();
  EXPECT_NE(werror_out.str().find("empty-range"), std::string::npos)
      << werror_out.str();
}

TEST(ToolsLintTest, ParsesDeadFootprintAndJson) {
  EXPECT_FALSE(parse_lint_args({}).dead_footprint);
  EXPECT_TRUE(parse_lint_args({"--dead-footprint"}).dead_footprint);
  EXPECT_TRUE(parse_lint_args({}).json_file.empty());
  EXPECT_EQ(parse_lint_args({"--json=report.json"}).json_file,
            "report.json");
}

TEST(ToolsLintTest, DeadFootprintFlagsUnreadWrites) {
  // The producer's write is never read by its only consumer, whose
  // declared reads sit elsewhere: a warning under --dead-footprint,
  // silence without it.
  const std::string path = write_temp_graph("deadfp.ddmg", R"(ddmgraph 1
program deadfp
block
thread producer compute 10
write 4096 256
thread consumer compute 10
read 8192 256
arc 0 1
)");
  LintOptions options;
  options.graph_file = path;
  std::ostringstream quiet_out;
  EXPECT_EQ(run_lint(options, quiet_out), 0) << quiet_out.str();
  EXPECT_EQ(quiet_out.str().find("dead-footprint"), std::string::npos)
      << quiet_out.str();

  options.dead_footprint = true;
  std::ostringstream out;
  EXPECT_EQ(run_lint(options, out), 0) << out.str();  // warning, not error
  EXPECT_NE(out.str().find("dead-footprint"), std::string::npos)
      << out.str();

  options.strict = true;
  std::ostringstream strict_out;
  EXPECT_EQ(run_lint(options, strict_out), 1) << strict_out.str();
}

TEST(ToolsLintTest, JsonReportCarriesTheFindings) {
  const std::string path = write_temp_graph("jsonwarn.ddmg", R"(ddmgraph 1
program jsonwarn
block
thread t compute 10
read 4096 0
)");
  const std::string json_path = ::testing::TempDir() + "lint_report.json";
  LintOptions options;
  options.graph_file = path;
  options.json_file = json_path;
  std::ostringstream out;
  EXPECT_EQ(run_lint(options, out), 0) << out.str();

  std::ifstream in(json_path);
  ASSERT_TRUE(in.good()) << json_path;
  std::ostringstream json;
  json << in.rdbuf();
  EXPECT_NE(json.str().find("\"tool\": \"tflux_lint\""), std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"program\": \"jsonwarn\""), std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"code\": \"empty-range\""), std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"severity\": \"warning\""), std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"failed\": false"), std::string::npos)
      << json.str();
}

TEST(ToolsLintTest, JsonReportCoversAllApps) {
  const std::string json_path = ::testing::TempDir() + "lint_all.json";
  LintOptions options;
  options.all = true;
  options.json_file = json_path;
  std::ostringstream out;
  EXPECT_EQ(run_lint(options, out), 0) << out.str();

  std::ifstream in(json_path);
  ASSERT_TRUE(in.good());
  std::ostringstream json;
  json << in.rdbuf();
  EXPECT_NE(json.str().find("\"errors\": 0"), std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"program\": \"trapez\""), std::string::npos)
      << json.str();
}

TEST(ToolsLintTest, CleanGraphFilePasses) {
  const std::string path = write_temp_graph("clean.ddmg", R"(ddmgraph 1
program clean
block
thread producer compute 10
write 4096 256
thread consumer compute 10
read 4096 256
arc 0 1
)");
  LintOptions options;
  options.graph_file = path;
  options.strict = true;
  std::ostringstream out;
  EXPECT_EQ(run_lint(options, out), 0) << out.str();
}

}  // namespace
}  // namespace tflux::tools
