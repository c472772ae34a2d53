// Tests for execution tracing and its Chrome-trace export, including
// the Machine integration.
#include "sim/trace.h"

#include <gtest/gtest.h>

#include "core/builder.h"
#include "machine/config.h"
#include "machine/machine.h"

namespace tflux::sim {
namespace {

TEST(TraceTest, RecordsSpans) {
  Trace trace;
  trace.add_span(0, 10, 20, "work");
  trace.add_span(1, 15, 40, "other");
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.spans()[0].begin, 10u);
  EXPECT_EQ(trace.spans()[1].lane, 1u);
}

TEST(TraceTest, ClampsInvertedSpan) {
  Trace trace;
  trace.add_span(0, 30, 20, "oops");
  EXPECT_EQ(trace.spans()[0].end, 30u);
}

TEST(TraceTest, ChromeJsonShape) {
  Trace trace;
  trace.set_lane_name(0, "kernel 0");
  trace.add_span(0, 5, 9, "t\"x\"");  // name needs escaping
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);  // lane meta
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // span
  EXPECT_NE(json.find("\"ts\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 4"), std::string::npos);
  EXPECT_NE(json.find("t\\\"x\\\""), std::string::npos);  // escaped
  EXPECT_EQ(json.find('\n'), std::string::npos);  // single line, valid JSON
}

TEST(TraceTest, MachineProducesCoherentTrace) {
  core::ProgramBuilder b;
  const core::BlockId blk = b.add_block();
  core::ThreadId prev = core::kInvalidThread;
  for (int i = 0; i < 6; ++i) {
    core::Footprint fp;
    fp.compute(1000);
    const core::ThreadId t =
        b.add_thread(blk, "step" + std::to_string(i), {}, std::move(fp));
    if (i > 0) b.add_arc(prev, t);
    prev = t;
  }
  core::Program p = b.build(core::BuildOptions{.num_kernels = 2});

  Trace trace;
  machine::Machine m(machine::bagle_sparc(2), p);
  m.attach_trace(&trace);
  const machine::MachineStats st = m.run();

  // 6 app + inlet + outlet spans on kernel lanes, plus TSU spans.
  std::size_t kernel_spans = 0, tsu_spans = 0;
  for (const TraceSpan& s : trace.spans()) {
    EXPECT_LE(s.end, st.total_cycles + 1000);
    if (s.lane < 2) {
      ++kernel_spans;
    } else {
      ++tsu_spans;
      EXPECT_EQ(s.name.rfind("tsu:", 0), 0u);
    }
  }
  EXPECT_EQ(kernel_spans, 8u);
  EXPECT_GE(tsu_spans, 8u);

  // The chain serializes: spans on the same dependency chain must not
  // overlap (each step starts after the previous completes).
  Cycles last_end = 0;
  for (const TraceSpan& s : trace.spans()) {
    if (s.lane >= 2 || s.name.rfind("step", 0) != 0) continue;
    EXPECT_GE(s.begin, last_end);
    last_end = s.end;
  }
}

}  // namespace
}  // namespace tflux::sim
