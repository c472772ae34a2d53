// Tests for the DES substrate: event ordering, determinism, resources.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "sim/resource.h"
#include "sim/rng.h"

namespace tflux::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.at(30, [&] { order.push_back(3); });
  eq.at(10, [&] { order.push_back(1); });
  eq.at(20, [&] { order.push_back(2); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 30u);
  EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueueTest, EqualTimestampsRunFifo) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eq.at(5, [&order, i] { order.push_back(i); });
  }
  eq.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue eq;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) eq.in(10, tick);
  };
  eq.at(0, tick);
  eq.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueueTest, StepReturnsFalseWhenEmpty) {
  EventQueue eq;
  EXPECT_FALSE(eq.step());
  eq.at(1, [] {});
  EXPECT_TRUE(eq.step());
  EXPECT_FALSE(eq.step());
}

// Events that schedule more events (many at equal times, some at
// dt = 0) reuse the slots of events already run. Every event is
// scheduled at or after now(), so the run order must be exactly the
// (time, scheduling order) sort of all events ever scheduled.
TEST(EventQueueTest, NestedSchedulingKeepsTimeFifoOrder) {
  EventQueue eq;
  SplitMix64 rng(11);
  std::vector<Cycles> scheduled;  // due time, by scheduling order
  std::vector<std::size_t> ran;
  constexpr std::size_t kEvents = 10000;
  std::function<void(Cycles)> schedule = [&](Cycles t) {
    const std::size_t id = scheduled.size();
    scheduled.push_back(t);
    eq.at(t, [&, id] {
      EXPECT_EQ(eq.now(), scheduled[id]);
      ran.push_back(id);
      const int children = rng.next_below(4) == 0 ? 2 : 1;
      for (int c = 0; c < children && scheduled.size() < kEvents; ++c) {
        schedule(eq.now() + rng.next_below(4));
      }
    });
  };
  for (int i = 0; i < 64; ++i) schedule(rng.next_below(8));
  eq.run();

  ASSERT_EQ(scheduled.size(), kEvents);
  ASSERT_EQ(ran.size(), kEvents);
  EXPECT_EQ(eq.executed(), kEvents);
  std::vector<std::size_t> expected(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) expected[i] = i;
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scheduled[a] < scheduled[b];
                   });
  EXPECT_EQ(ran, expected);
}

TEST(EventQueueTest, RunCallbackReleasesItsCaptures) {
  EventQueue eq;
  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  eq.at(1, [first] {});
  eq.at(2, [second] {});
  EXPECT_EQ(first.use_count(), 2);
  EXPECT_EQ(second.use_count(), 2);
  ASSERT_TRUE(eq.step());
  EXPECT_EQ(first.use_count(), 1);   // ran: captures destroyed
  EXPECT_EQ(second.use_count(), 2);  // still pending
  ASSERT_TRUE(eq.step());
  EXPECT_EQ(second.use_count(), 1);
}

TEST(SerialResourceTest, GrantsBackToBack) {
  SerialResource r;
  EXPECT_EQ(r.acquire(100, 10), 100u);
  EXPECT_EQ(r.acquire(100, 10), 110u);  // waits for the first
  EXPECT_EQ(r.acquire(200, 5), 200u);   // idle gap
  EXPECT_EQ(r.busy_cycles(), 25u);
  EXPECT_EQ(r.wait_cycles(), 10u);
  EXPECT_EQ(r.grants(), 3u);
}

TEST(SplitMix64Test, DeterministicAndWellSpread) {
  SplitMix64 a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  SplitMix64 d(42);
  d.next();
  EXPECT_NE(d.next(), c.next());
  // next_below stays in range.
  SplitMix64 e(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(e.next_below(17), 17u);
  }
  // next_double in [0,1).
  SplitMix64 f(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = f.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

}  // namespace
}  // namespace tflux::sim
