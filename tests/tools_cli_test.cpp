// Tests for the tflux_run CLI: argument parsing and end-to-end runs on
// fast platforms; plus tflux_serve's argument parsing.
#include "tools/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/error.h"
#include "tools/serve.h"

namespace tflux::tools {
namespace {

TEST(CliParseTest, Defaults) {
  const CliOptions o = parse_args({});
  EXPECT_EQ(o.app, apps::AppKind::kTrapez);
  EXPECT_EQ(o.size, apps::SizeClass::kSmall);
  EXPECT_EQ(o.platform, CliPlatform::kHard);
  EXPECT_EQ(o.kernels, 4u);
  EXPECT_TRUE(o.lockfree);
  EXPECT_TRUE(o.validate);
  EXPECT_TRUE(o.baseline);
  EXPECT_FALSE(o.help);
}

TEST(CliParseTest, MutexRuntimeFlagSelectsAblationPath) {
  EXPECT_FALSE(parse_args({"--mutex-runtime"}).lockfree);
}

TEST(CliParseTest, RetiredAblationFlagsAreUnknown) {
  // Synchronous block reload and unit updates are gone; their flags
  // must fail loudly instead of being silently ignored.
  for (const char* retired : {"block-pipeline", "coalesce"}) {
    EXPECT_THROW(parse_args({std::string("--no-") + retired}),
                 core::TFluxError);
  }
}

TEST(CliParseTest, IntegerFlagsRejectValuesTheFieldCannotHold) {
  // Each flag is bounded by its field's type: nothing wraps.
  EXPECT_THROW(parse_args({"--kernels=65537"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--kernels=-65535"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--kernels=+2"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--tsu-groups=65536"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--shards=-1"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--unroll=4294967296"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--tsu-capacity=4294967296"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--repeat=4294967297"}), core::TFluxError);
  EXPECT_EQ(parse_args({"--kernels=65535"}).kernels, 65535u);
  EXPECT_EQ(parse_args({"--tsu-capacity=4294967295"}).tsu_capacity,
            4294967295u);
}

TEST(CliParseTest, AllFlags) {
  const CliOptions o = parse_args(
      {"--app=mmult", "--size=large", "--platform=cell", "--kernels=6",
       "--unroll=64", "--tsu-capacity=1024", "--tsu-groups=2",
       "--policy=fifo", "--no-validate", "--no-baseline",
       "--dot=g.dot", "--trace=t.json"});
  EXPECT_EQ(o.app, apps::AppKind::kMmult);
  EXPECT_EQ(o.size, apps::SizeClass::kLarge);
  EXPECT_EQ(o.platform, CliPlatform::kCell);
  EXPECT_EQ(o.kernels, 6u);
  EXPECT_EQ(o.unroll, 64u);
  EXPECT_EQ(o.tsu_capacity, 1024u);
  EXPECT_EQ(o.tsu_groups, 2u);
  EXPECT_EQ(o.policy, core::PolicyKind::kFifo);
  EXPECT_FALSE(o.validate);
  EXPECT_FALSE(o.baseline);
  EXPECT_EQ(o.dot_file, "g.dot");
  EXPECT_EQ(o.trace_file, "t.json");
}

TEST(CliParseTest, EveryPlatformName) {
  EXPECT_EQ(parse_args({"--platform=reference"}).platform,
            CliPlatform::kReference);
  EXPECT_EQ(parse_args({"--platform=soft"}).platform, CliPlatform::kSoft);
  EXPECT_EQ(parse_args({"--platform=x86hard"}).platform,
            CliPlatform::kX86Hard);
  EXPECT_EQ(parse_args({"--platform=softsim"}).platform,
            CliPlatform::kSoftSim);
}

TEST(CliParseTest, Errors) {
  EXPECT_THROW(parse_args({"--app=doom"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--size=xxl"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--platform=gpu"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--kernels=0"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--kernels=abc"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--unroll=0"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--policy=best"}), core::TFluxError);
  // adaptive was retired: kHier is its backlog-driven dispatch.
  EXPECT_THROW(parse_args({"--policy=adaptive"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--bogus"}), core::TFluxError);
  // FFT on Cell is rejected (Figure 7 has no FFT).
  EXPECT_THROW(parse_args({"--app=fft", "--platform=cell"}),
               core::TFluxError);
}

TEST(CliParseTest, CheckAndJsonFlags) {
  const CliOptions o = parse_args(
      {"--platform=soft", "--check", "--json=run.json"});
  EXPECT_TRUE(o.check);
  EXPECT_EQ(o.json_file, "run.json");
  EXPECT_FALSE(parse_args({"--platform=soft"}).check);
  // ddmcheck and the JSON stats report are native-runtime features.
  EXPECT_THROW(parse_args({"--check"}), core::TFluxError);
  EXPECT_THROW(parse_args({"--json=x.json", "--platform=hard"}),
               core::TFluxError);
}

TEST(CliRunTest, HelpPrintsUsage) {
  std::ostringstream out;
  CliOptions o;
  o.help = true;
  EXPECT_EQ(run_cli(o, out), 0);
  EXPECT_NE(out.str().find("usage: tflux_run"), std::string::npos);
}

TEST(CliRunTest, ReferencePlatformValidates) {
  std::ostringstream out;
  const CliOptions o = parse_args(
      {"--app=qsort", "--platform=reference", "--kernels=3"});
  EXPECT_EQ(run_cli(o, out), 0);
  EXPECT_NE(out.str().find("results match"), std::string::npos);
}

TEST(CliRunTest, SoftPlatformRunsNatively) {
  std::ostringstream out;
  const CliOptions o = parse_args(
      {"--app=trapez", "--platform=soft", "--kernels=2", "--unroll=64"});
  EXPECT_EQ(run_cli(o, out), 0);
  EXPECT_NE(out.str().find("wall time"), std::string::npos);
  EXPECT_NE(out.str().find("results match"), std::string::npos);
}

TEST(CliRunTest, HardPlatformReportsSpeedup) {
  std::ostringstream out;
  const CliOptions o = parse_args(
      {"--app=fft", "--platform=hard", "--kernels=4", "--unroll=2"});
  EXPECT_EQ(run_cli(o, out), 0);
  EXPECT_NE(out.str().find("speedup"), std::string::npos);
  EXPECT_NE(out.str().find("cycles"), std::string::npos);
}

TEST(CliRunTest, GraphFileModeSimulatesLoadedGraph) {
  const char* path = "/tmp/tflux_cli_test_graph.ddmg";
  {
    std::ofstream f(path);
    f << "ddmgraph 1\nprogram pipeline\nblock\n"
         "thread a compute 1000\nthread b compute 1000\narc 0 1\n";
  }
  std::ostringstream out;
  const CliOptions o =
      parse_args({std::string("--graph=") + path, "--platform=hard",
                  "--kernels=2", "--no-baseline"});
  EXPECT_EQ(run_cli(o, out), 0);
  EXPECT_NE(out.str().find("graph '"), std::string::npos);
  EXPECT_NE(out.str().find("2 DThreads"), std::string::npos);
  std::remove(path);
}

TEST(CliRunTest, JsonEscapesTheProgramName) {
  // A ddmgraph program name may hold any non-blank characters; the
  // stats report must stay valid JSON whatever it is.
  const std::string graph = ::testing::TempDir() + "cli_quoted.ddmg";
  const std::string json = ::testing::TempDir() + "cli_quoted.json";
  {
    std::ofstream f(graph);
    f << "ddmgraph 1\nprogram a\"b\\c\nblock\n"
         "thread a compute 1000\nthread b compute 1000\narc 0 1\n";
  }
  std::ostringstream out;
  const CliOptions o = parse_args(
      {std::string("--graph=") + graph, "--platform=soft", "--kernels=2",
       "--no-baseline", std::string("--json=") + json});
  EXPECT_EQ(run_cli(o, out), 0) << out.str();
  std::ifstream jf(json);
  ASSERT_TRUE(jf.good());
  std::stringstream jbuf;
  jbuf << jf.rdbuf();
  EXPECT_NE(jbuf.str().find("\"app\": \"a\\\"b\\\\c\""), std::string::npos)
      << jbuf.str();
  std::remove(graph.c_str());
  std::remove(json.c_str());
}

TEST(CliRunTest, MissingGraphFileFails) {
  std::ostringstream out;
  const CliOptions o = parse_args({"--graph=/nonexistent/x.ddmg"});
  EXPECT_THROW(run_cli(o, out), core::TFluxError);
}

TEST(CliRunTest, SoftPlatformChecksTraceAndWritesJson) {
  const std::string json = ::testing::TempDir() + "cli_stats.json";
  const std::string trace = ::testing::TempDir() + "cli_run.ddmtrace";
  std::ostringstream out;
  const CliOptions o = parse_args(
      {"--app=trapez", "--platform=soft", "--kernels=2", "--unroll=8",
       "--tsu-capacity=64", "--no-baseline", "--check",
       std::string("--json=") + json, std::string("--trace=") + trace});
  EXPECT_EQ(run_cli(o, out), 0) << out.str();
  EXPECT_NE(out.str().find("ddmcheck"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("0 finding(s)"), std::string::npos) << out.str();

  std::ifstream jf(json);
  ASSERT_TRUE(jf.good());
  std::stringstream jbuf;
  jbuf << jf.rdbuf();
  // The machine-readable emulator block carries the pipeline counters
  // benches scrape; the key names are part of the stable interface.
  EXPECT_NE(jbuf.str().find("\"emulator\""), std::string::npos);
  EXPECT_NE(jbuf.str().find("\"prefetch_hits\""), std::string::npos);
  EXPECT_NE(jbuf.str().find("\"deferred_replays\""), std::string::npos);
  EXPECT_NE(jbuf.str().find("\"steal_dispatches\""), std::string::npos);
  EXPECT_NE(jbuf.str().find("\"range_updates\""), std::string::npos);
  EXPECT_NE(jbuf.str().find("\"range_members\""), std::string::npos);

  std::ifstream tf(trace);
  ASSERT_TRUE(tf.good());
  std::string first_line;
  std::getline(tf, first_line);
  EXPECT_EQ(first_line, "ddmtrace 2");
  std::remove(json.c_str());
  std::remove(trace.c_str());
}

TEST(ServeParseTest, IntegerFlagsRejectValuesTheFieldCannotHold) {
  EXPECT_THROW(parse_serve_args({"--pool=65538"}), core::TFluxError);
  EXPECT_THROW(parse_serve_args({"--pool=-2"}), core::TFluxError);
  EXPECT_THROW(parse_serve_args({"--width=65537"}), core::TFluxError);
  EXPECT_THROW(parse_serve_args({"--stage-depth=65536"}), core::TFluxError);
  EXPECT_THROW(parse_serve_args({"--requests=4294967296"}),
               core::TFluxError);
  EXPECT_THROW(parse_serve_args({"--queue=0"}), core::TFluxError);
  EXPECT_THROW(parse_serve_args({"--seed=18446744073709551616"}),
               core::TFluxError);
  EXPECT_EQ(parse_serve_args({"--pool=65535"}).pool_kernels, 65535u);
  EXPECT_EQ(parse_serve_args({"--seed=18446744073709551615"}).seed,
            18446744073709551615ull);
}

TEST(ServeParseTest, PolicyNames) {
  EXPECT_EQ(parse_serve_args({"--policy=hier"}).policy,
            core::PolicyKind::kHier);
  EXPECT_EQ(parse_serve_args({"--policy=affinity"}).policy,
            core::PolicyKind::kAffinity);
  EXPECT_THROW(parse_serve_args({"--policy=best"}), core::TFluxError);
  EXPECT_THROW(parse_serve_args({"--policy=adaptive"}), core::TFluxError);
}

TEST(CliRunTest, TsuGroupsFlagReachesMachine) {
  std::ostringstream out;
  const CliOptions o = parse_args({"--app=trapez", "--platform=hard",
                                   "--kernels=8", "--tsu-groups=4",
                                   "--no-validate", "--no-baseline"});
  EXPECT_EQ(run_cli(o, out), 0);
}

}  // namespace
}  // namespace tflux::tools
