// Determinism of the hot-path ablation switch: the lock-free runtime
// (SPSC rings + lanes) and the paper-faithful mutex runtime must
// execute the exact same DThread sets - same app results, same thread
// counts, same block loads - on every shipped application.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/suite.h"
#include "runtime/runtime.h"

namespace tflux::runtime {
namespace {

using apps::AppKind;
using apps::AppRun;
using apps::DdmParams;
using apps::Platform;
using apps::SizeClass;

struct ModeResult {
  bool valid = false;
  std::uint64_t app_threads = 0;
  std::uint64_t blocks_loaded = 0;
  std::uint64_t updates_processed = 0;
};

ModeResult run_mode(AppKind kind, bool lockfree) {
  DdmParams params;
  params.num_kernels = 4;
  params.unroll = 8;
  params.tsu_capacity = 64;  // force multi-block programs
  AppRun run =
      apps::build_app(kind, SizeClass::kSmall, Platform::kSimulated, params);
  RuntimeOptions options;
  options.num_kernels = 4;
  options.run.lockfree = lockfree;
  const RuntimeStats st = Runtime(run.program, options).run();
  ModeResult r;
  r.valid = run.validate();
  r.app_threads = st.total_app_threads_executed();
  r.blocks_loaded = st.emulator.blocks_loaded;
  r.updates_processed = st.emulator.updates_processed;
  return r;
}

class LockfreeDeterminismTest : public ::testing::TestWithParam<AppKind> {};

TEST_P(LockfreeDeterminismTest, BothHotPathsExecuteIdenticalThreadSets) {
  const AppKind kind = GetParam();
  const ModeResult lf = run_mode(kind, /*lockfree=*/true);
  const ModeResult mx = run_mode(kind, /*lockfree=*/false);
  EXPECT_TRUE(lf.valid) << "lock-free run produced wrong results";
  EXPECT_TRUE(mx.valid) << "mutex run produced wrong results";
  EXPECT_EQ(lf.app_threads, mx.app_threads);
  EXPECT_EQ(lf.blocks_loaded, mx.blocks_loaded);
  // Updates are program-determined (one per consumer arc fired), not
  // schedule-determined: both paths must process the same number.
  EXPECT_EQ(lf.updates_processed, mx.updates_processed);
}

INSTANTIATE_TEST_SUITE_P(AllApps, LockfreeDeterminismTest,
                         ::testing::ValuesIn(apps::all_apps()),
                         [](const auto& info) {
                           return std::string(apps::to_string(info.param));
                         });

TEST(LockfreeRuntimeTest, LaneCapacityOptionRespected) {
  // A tiny lane still executes correctly: chunked publishes + the
  // full-lane spin path, end to end.
  DdmParams params;
  params.num_kernels = 2;
  params.unroll = 4;
  AppRun run = apps::build_app(AppKind::kTrapez, SizeClass::kSmall,
                               Platform::kSimulated, params);
  RuntimeOptions options;
  options.num_kernels = 2;
  options.run.lockfree = true;
  options.run.tub_lane_capacity = 2;
  Runtime rt(run.program, options);
  rt.run();
  EXPECT_TRUE(run.validate());
}

}  // namespace
}  // namespace tflux::runtime
