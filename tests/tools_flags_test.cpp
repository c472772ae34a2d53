// Tests for the one option parser the five tools share (tools/flags.h)
// and for the outputs every tool writes through core::write_file: the
// same bad value is rejected with the same message everywhere, empty
// paths are rejected, and a file that cannot be written fails the run
// instead of being reported as written.
#include "tools/flags.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "tools/check.h"
#include "tools/cli.h"
#include "tools/lint.h"
#include "tools/model.h"
#include "tools/serve.h"

namespace tflux::tools {
namespace {

using Parser = std::function<void(const std::vector<std::string>&)>;

/// The TFluxError message `parse` throws for `args`, without the
/// leading "tool: " prefix ("" when nothing is thrown).
std::string rejection(const Parser& parse,
                      const std::vector<std::string>& args) {
  try {
    parse(args);
  } catch (const core::TFluxError& e) {
    const std::string what = e.what();
    return what.substr(what.find(": ") + 2);
  }
  return "";
}

const Parser kRun = [](const std::vector<std::string>& a) { parse_args(a); };
const Parser kServe = [](const std::vector<std::string>& a) {
  parse_serve_args(a);
};
const Parser kLint = [](const std::vector<std::string>& a) {
  parse_lint_args(a);
};
const Parser kModel = [](const std::vector<std::string>& a) {
  parse_model_args(a);
};
const Parser kCheck = [](const std::vector<std::string>& a) {
  parse_check_args(a);
};

TEST(ToolsFlagsTest, EveryToolRejectsBadAppSizeAndUnrollAlike) {
  const std::string app = rejection(kRun, {"--app=doom"});
  EXPECT_EQ(app,
            "unknown app 'doom' (trapez, mmult, qsort, susan, fft, "
            "susanpipe)");
  EXPECT_EQ(rejection(kLint, {"--app=doom"}), app);
  EXPECT_EQ(rejection(kModel, {"--app=doom"}), app);
  EXPECT_EQ(rejection(kServe, {"--apps=doom"}), app);

  const std::string size = rejection(kRun, {"--size=xxl"});
  EXPECT_EQ(size, "unknown size 'xxl' (small, medium, large)");
  for (const Parser& parse : {kServe, kLint, kModel}) {
    EXPECT_EQ(rejection(parse, {"--size=xxl"}), size);
  }

  // --unroll keeps each tool's range (tflux_model explores at most
  // 2^20), so only the bound differs.
  for (const std::string bad : {"0", "abc", "-4"}) {
    for (const Parser& parse : {kRun, kServe, kLint, kModel}) {
      const std::string msg = rejection(parse, {"--unroll=" + bad});
      EXPECT_EQ(msg.rfind("--unroll expects an integer in [1, ", 0), 0u)
          << msg;
      EXPECT_NE(msg.find("], got '" + bad + "'"), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(rejection(kModel, {"--unroll=0"}),
            "--unroll expects an integer in [1, 1048576], got '0'");
  EXPECT_EQ(rejection(kRun, {"--unroll=0"}),
            "--unroll expects an integer in [1, 4294967295], got '0'");
}

TEST(ToolsFlagsTest, EveryToolRejectsEmptyPaths) {
  for (const char* flag : {"--graph=", "--trace=", "--dot=", "--json="}) {
    EXPECT_THROW(parse_args({"--platform=soft", flag}), core::TFluxError)
        << flag;
  }
  for (const char* flag : {"--json=", "--trace="}) {
    EXPECT_THROW(parse_serve_args({flag}), core::TFluxError) << flag;
  }
  for (const char* flag : {"--json=", "--graph="}) {
    EXPECT_THROW(parse_lint_args({flag}), core::TFluxError) << flag;
  }
  for (const char* flag : {"--trace=", "--graph="}) {
    EXPECT_THROW(parse_check_args({"t.ddmtrace", flag}), core::TFluxError)
        << flag;
  }
  for (const char* flag : {"--trace-out=", "--cex-dir="}) {
    EXPECT_THROW(parse_model_args({flag}), core::TFluxError) << flag;
  }
  EXPECT_EQ(rejection(kRun, {"--trace="}), "--trace expects a non-empty FILE");
}

TEST(ToolsFlagsTest, ServeRejectsZeroTsuGroupsLikeRun) {
  const std::string run = rejection(kRun, {"--tsu-groups=0"});
  EXPECT_EQ(run, "--tsu-groups expects an integer in [1, 65535], got '0'");
  EXPECT_EQ(rejection(kServe, {"--tsu-groups=0"}), run);
  EXPECT_EQ(parse_serve_args({"--tsu-groups=3"}).tsu_groups, 3u);
}

TEST(ToolsFlagsTest, SwitchesTakeNoValueAndValuedFlagsNeedOne) {
  EXPECT_EQ(rejection(kLint, {"--quiet=1"}), "--quiet takes no value");
  EXPECT_EQ(rejection(kRun, {"--kernels"}),
            "--kernels expects a value: --kernels=N");
  EXPECT_EQ(rejection(kCheck, {"-x"}).rfind("unknown option '-x'", 0), 0u);
  EXPECT_TRUE(parse_lint_args({"-h"}).help);
}

TEST(ToolsFlagsTest, UsageListsEveryFlagOfTheTable) {
  bool help = false;
  std::string text;
  const Command command{
      "demo",
      "What the demo does.",
      {Flag{"--depth", "N", "how deep", [](const std::string&) {}},
       Flag{"--fast", "", "", [](const std::string&) {}},
       operand("FILE", "the input", text)},
      "See the manual."};
  parse_command(command, {"--fast", "in.txt"}, help);
  EXPECT_EQ(text, "in.txt");
  EXPECT_FALSE(help);
  EXPECT_EQ(usage_text(command),
            "usage: demo [options] [FILE]\n"
            "What the demo does.\n"
            "  --depth=N                            how deep\n"
            "  --fast\n"
            "  FILE                                 the input\n"
            "  --help\n"
            "See the manual.\n");
}

TEST(ToolsFlagsTest, CheckNamesEveryAppWhenTraceMetadataIsUnknown) {
  const std::string path = ::testing::TempDir() + "flags_doom.ddmtrace";
  std::ofstream(path) << "ddmtrace 2\nprogram doomed\napp doom small\n"
                          "config kernels 1 groups 1 policy locality\n";
  std::ostringstream out;
  try {
    run_check(parse_check_args({path}), out);
    FAIL() << "an unknown app in the trace metadata must be rejected";
  } catch (const core::TFluxError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown app 'doom'"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("susanpipe"), std::string::npos)
        << e.what();
  }
}

/// The TFluxError message of running `body`, or "" when it succeeds.
std::string run_error(const std::function<void()>& body) {
  try {
    body();
  } catch (const core::TFluxError& e) {
    return e.what();
  }
  return "";
}

TEST(ToolsFlagsTest, RunFailsInsteadOfReportingAnUnwritableFile) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--platform=soft", "--kernels=2", "--no-baseline",
            "--json=/nonexistent/dir/x.json"},
           {"--platform=soft", "--kernels=2", "--no-baseline",
            "--trace=/nonexistent/dir/t.ddmtrace"},
           {"--platform=hard", "--kernels=2", "--no-baseline",
            "--trace=/nonexistent/dir/t.json"},
           {"--platform=reference", "--kernels=2",
            "--dot=/nonexistent/dir/g.dot"}}) {
    std::ostringstream out;
    const std::string error =
        run_error([&] { run_cli(parse_args(args), out); });
    EXPECT_NE(error.find("cannot write '/nonexistent/dir/"),
              std::string::npos)
        << args.back() << ": " << error;
    EXPECT_EQ(out.str().find("wrote"), std::string::npos) << out.str();
  }
}

TEST(ToolsFlagsTest, ServeFailsInsteadOfReportingAnUnwritableFile) {
  for (const char* flag :
       {"--json=/nonexistent/dir/s.json", "--trace=/nonexistent/dir/t"}) {
    std::ostringstream out;
    const std::string error = run_error([&] {
      run_serve(parse_serve_args({"--pool=2", "--width=1", "--requests=2",
                                  "--apps=fft", "--check-tenant", flag}),
                out);
    });
    EXPECT_NE(error.find("cannot write '/nonexistent/dir/"),
              std::string::npos)
        << flag << ": " << error;
    EXPECT_EQ(out.str().find("wrote"), std::string::npos) << out.str();
  }
}

}  // namespace
}  // namespace tflux::tools
