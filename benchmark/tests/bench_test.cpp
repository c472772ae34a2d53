// Tests of the benchmark's own machinery: percentiles, span self time,
// the soft-fine generator and oracle, open-loop accounting, the metric
// catalog, and a tiny-size smoke run of every workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/scheduler.h"
#include "fine_graph.h"
#include "open_loop.h"
#include "report.h"
#include "stats.h"
#include "workload.h"

namespace tflux::bench {
namespace {

TEST(Stats, NearestRankPercentiles) {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(nearest_rank(v, 10.0), 1.0);
  EXPECT_EQ(nearest_rank(v, 50.0), 5.0);
  EXPECT_EQ(nearest_rank(v, 90.0), 9.0);
  EXPECT_EQ(nearest_rank(v, 91.0), 10.0);
  EXPECT_EQ(nearest_rank(v, 100.0), 10.0);
  EXPECT_EQ(median({7.0}), 7.0);
  EXPECT_EQ(nearest_rank({}, 50.0), 0.0);
}

TEST(Stats, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(99, 90.0), 9u);
  EXPECT_EQ(reportable_tail(19), 0.0);
  EXPECT_EQ(reportable_tail(20), 50.0);
  EXPECT_EQ(reportable_tail(99), 50.0);
  EXPECT_EQ(reportable_tail(100), 90.0);
  EXPECT_EQ(reportable_tail(999), 90.0);
  EXPECT_EQ(reportable_tail(1000), 99.0);
  EXPECT_EQ(reportable_tail(10000), 99.9);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanRecorder rec;
  rec.set_enabled(true);
  const Clock::time_point t0{};
  auto at = [t0](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const int parent = rec.add("runtime.run", "", at(0), at(10), -1, 0);
  rec.add("core.a", "", at(2), at(5), parent, 0);
  rec.add("core.b", "", at(4), at(7), parent, 0);
  const auto self = rec.self_ms_by_layer();
  EXPECT_DOUBLE_EQ(self.at("runtime"), 5.0);
  EXPECT_DOUBLE_EQ(self.at("core"), 6.0);
  EXPECT_DOUBLE_EQ(rec.total_ms("core.a"), 3.0);

  SpanRecorder off;
  EXPECT_EQ(off.begin("runtime.run"), -1);
  EXPECT_TRUE(off.spans().empty());
}

TEST(FineGraph, DeterministicPerSeedWithFixedSize) {
  FineShape shape;
  shape.blocks = 6;
  shape.threads_per_block = 200;
  const FineGraph a = generate_fine_graph(7, shape);
  const FineGraph b = generate_fine_graph(7, shape);
  const FineGraph c = generate_fine_graph(8, shape);
  EXPECT_EQ(a.producers, b.producers);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.salt, b.salt);
  EXPECT_NE(a.producers, c.producers);
  EXPECT_EQ(a.num_threads, 1200u);
  EXPECT_EQ(c.num_threads, 1200u);
  EXPECT_FALSE(a.range_arcs.empty());
  EXPECT_FALSE(a.unit_arcs.empty());
  for (std::uint32_t t = 0; t < a.num_threads; ++t) {
    for (std::uint32_t i = a.offsets[t]; i < a.offsets[t + 1]; ++i) {
      EXPECT_LT(a.producers[i], t);  // producers precede consumers
    }
  }
}

TEST(FineGraph, OracleAgreesWithReferenceScheduler) {
  FineShape shape;
  shape.blocks = 5;
  shape.threads_per_block = 300;
  FineContext ctx;
  const FineGraph g = generate_fine_graph(11, shape);
  ctx.graph = &g;
  const core::Program program = build_fine_program(ctx, 2);
  EXPECT_EQ(program.num_blocks(), 5);
  EXPECT_EQ(program.num_app_threads(), 1500u);
  const std::vector<std::uint64_t> oracle = fine_oracle(g);
  core::ReferenceScheduler(program, 2).run();
  EXPECT_EQ(check_and_clear(ctx, oracle), 0u);
  // Cleared: a run that executed nothing would now mismatch.
  EXPECT_EQ(check_and_clear(ctx, oracle), oracle.size());
}

TEST(OpenLoop, DueTimesAreSeededExponentialArrivals) {
  const Clock::time_point t0{};
  OpenLoop a(5, 1000.0, t0), b(5, 1000.0, t0), c(6, 1000.0, t0);
  EXPECT_EQ(a.due(), b.due());
  EXPECT_NE(a.due(), c.due());
  Clock::time_point last = a.due();
  for (int i = 0; i < 10000; ++i) {
    a.sent(a.due());
    EXPECT_GE(a.due(), last);
    last = a.due();
  }
  const double mean_ms =
      std::chrono::duration<double, std::milli>(last - t0).count() / 10001;
  EXPECT_NEAR(mean_ms, 1.0, 0.05);
  for (double late : a.lateness_ms()) EXPECT_EQ(late, 0.0);
}

TEST(OpenLoop, LatenessAccountingOnAFakeClock) {
  const Clock::time_point t0{};
  const Clock::time_point end = t0 + std::chrono::milliseconds(200);
  Clock::time_point now = t0;
  const auto service = std::chrono::microseconds(1500);  // > mean gap
  std::vector<Clock::time_point> dues;
  OpenLoop loop(3, 1000.0, t0);
  drive_open_loop(
      loop, end, [&] { return now; },
      [&](Clock::time_point t) { now = std::max(now, t); },
      [&](Clock::time_point due) {
        dues.push_back(due);
        now += service;  // a blocking submit
      });
  // Replay the same schedule independently.
  OpenLoop replay(3, 1000.0, t0);
  Clock::time_point free_at = t0;
  ASSERT_FALSE(dues.empty());
  ASSERT_EQ(loop.lateness_ms().size(), dues.size());
  for (std::size_t i = 0; i < dues.size(); ++i) {
    EXPECT_EQ(dues[i], replay.due());
    const Clock::time_point sent = std::max(free_at, dues[i]);
    const double late =
        std::chrono::duration<double, std::milli>(sent - dues[i]).count();
    EXPECT_NEAR(loop.lateness_ms()[i], late, 1e-9);
    free_at = sent + service;
    replay.sent(sent);
  }
  EXPECT_GE(replay.due(), end);  // every request due before `end` was sent
  EXPECT_GT(loop.lateness_ms().back(), 10.0);  // the backlog grew
}

TEST(Catalog, MatchesBenchmarkJson) {
  std::ifstream in(TFLUX_BENCHMARK_JSON);
  ASSERT_TRUE(in) << TFLUX_BENCHMARK_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::size_t names = 0;
  for (std::size_t at = json.find("\"name\""); at != std::string::npos;
       at = json.find("\"name\"", at + 1)) {
    ++names;
  }
  const auto& gated = gated_workload_names();
  EXPECT_EQ(names, gated.size() + end_to_end_metrics().size() +
                       per_layer_metrics().size());
  for (const std::string& w : workload_names()) {
    const bool listed = std::find(gated.begin(), gated.end(), w) != gated.end();
    EXPECT_EQ(json.find("\"name\": \"" + w + "\"") != std::string::npos, listed)
        << w;
  }
  for (const auto* specs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& s : *specs) {
      const std::string entry = "\"name\": \"" + s.name + "\", \"unit\": \"" +
                                s.unit + "\", \"better\": \"" +
                                (s.higher_is_better ? "higher" : "lower") + "\"";
      EXPECT_NE(json.find(entry), std::string::npos) << entry;
    }
  }
}

RunConfig tiny(bool trace) {
  RunConfig c;
  c.seed = 3;
  c.seconds = 0.2;
  c.trace = trace;
  c.tiny = true;
  return c;
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, UntracedRunReportsEveryEndToEndMetric) {
  const WorkloadResult r = run_workload(GetParam(), tiny(false));
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.failed, 0u) << (r.failures.empty() ? "" : r.failures[0]);
  for (const MetricSpec& s : end_to_end_metrics()) {
    EXPECT_GT(r.metrics.count(s.name) ? r.metrics.at(s.name) : 0.0, 0.0)
        << s.name;
  }
}

TEST_P(Smoke, TracedRunStressesItsLayer) {
  RunConfig c = tiny(true);
  c.trace_path = ::testing::TempDir() + "/" + GetParam() + ".json";
  const WorkloadResult r = run_workload(GetParam(), c);
  EXPECT_EQ(r.failed, 0u) << (r.failures.empty() ? "" : r.failures[0]);
  const Metrics& m = r.metrics;
  auto get = [&m](const std::string& k) {
    return m.count(k) ? m.at(k) : 0.0;
  };
  EXPECT_GT(get("samples"), 0.0);
  EXPECT_GE(get("run_ms_p90"), 0.0);
  EXPECT_EQ(get("failed_frac"), 0.0);
  std::ifstream trace(c.trace_path);
  std::string head(24, '\0');
  trace.read(head.data(), 24);
  EXPECT_EQ(head.substr(0, 15), "{\"displayTimeUn");
  if (GetParam() == "soft-fine") {
    EXPECT_GT(get("runtime.range_updates"), 0.0);
    EXPECT_EQ(get("core.dataplane.forwards"), 0.0);
    EXPECT_GT(get("runtime.body_share"), 0.0);
    EXPECT_LT(get("runtime.body_share"), 0.5);  // the runtime dominates
  } else if (GetParam() == "soft-suite") {
    EXPECT_GT(get("core.dataplane.forwards"), 0.0);
    EXPECT_GT(get("runtime.run_ms.SUSANPIPE"), 0.0);
    EXPECT_GT(get("apps.serial_ms"), 0.0);
  } else if (GetParam() == "sim-figs") {
    EXPECT_EQ(get("runtime.construct_ms"), 0.0);  // no native Runtime
    EXPECT_EQ(get("trace.self_ms.runtime"), 0.0);
    EXPECT_GT(get("machine.cycles.MMULT"), 0.0);
    EXPECT_GT(get("machine.accesses_per_s"), 0.0);
  } else {
    EXPECT_GT(get("serve_rps"), 0.0);
    EXPECT_GT(get("runtime.updates_processed"), 0.0);  // per-request stats
    EXPECT_GT(get("executor.run_ms_p50"), 0.0);
    EXPECT_GT(get("executor.queue_ms_p50"), 0.0);
    EXPECT_GT(get("executor.handoff_ms_p50"), 0.0);
    EXPECT_GT(get("latency_ms_p50"), 0.0);
    EXPECT_GE(get("latency_ms_p99"), get("latency_ms_p50"));
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Smoke,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(SmokeSimFigs, WrongExpectedCycleCountFails) {
  for (const char* config : {"TRAPEZ", "hard_TRAPEZ"}) {
    RunConfig c = tiny(false);
    c.expected_cycles[config] = 12345;
    const WorkloadResult r = run_workload("sim-figs", c);
    EXPECT_GT(r.failed, 0u) << config;
    EXPECT_LT(r.failed, r.attempted) << config;  // only that check fails
  }
}

}  // namespace
}  // namespace tflux::bench
