// Tests for the lock-free hot-path structures: the SPSC ring, the
// spin-then-park Parker, the lock-free Mailbox, and the per-kernel
// LaneTub. The cross-thread tests carry the `concurrent` ctest label
// so the TSan CI flavor sweeps them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/error.h"
#include "runtime/lane_tub.h"
#include "runtime/mailbox.h"
#include "runtime/parking.h"
#include "runtime/spsc_ring.h"

namespace tflux::runtime {
namespace {

// ---------------------------------------------------------------------------
// SpscRing
// ---------------------------------------------------------------------------

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(256).capacity(), 256u);
  EXPECT_EQ(SpscRing<int>(257).capacity(), 512u);
}

TEST(SpscRingTest, FifoUntilFullThenEmpty) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full
  EXPECT_EQ(ring.size_approx(), 4u);
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));  // empty
  EXPECT_TRUE(ring.probably_empty());
}

TEST(SpscRingTest, WraparoundPreservesOrder) {
  SpscRing<int> ring(8);
  int expected = 0;
  int v = -1;
  // Push/pop far past the capacity so the cursors wrap many times.
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.try_push(round * 5 + i));
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(ring.try_pop(v));
      ASSERT_EQ(v, expected++);
    }
  }
}

TEST(SpscRingTest, BulkPushAndPopAll) {
  SpscRing<int> ring(8);
  const std::vector<int> data = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(ring.try_push_n(data.data(), data.size()), 6u);
  // Only 2 slots left: a partial bulk push.
  EXPECT_EQ(ring.try_push_n(data.data(), data.size()), 2u);
  std::vector<int> out;
  EXPECT_EQ(ring.pop_all(out), 8u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5, 6, 1, 2}));
  EXPECT_EQ(ring.pop_all(out), 0u);
}

TEST(SpscRingTest, ProducerConsumerStress) {
  // Spin with yield, not cpu_relax: on a single-core host a pure PAUSE
  // spin burns whole timeslices while the other side waits for the CPU.
  constexpr std::uint64_t kItems = 200000;
  SpscRing<std::uint64_t> ring(64);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  std::uint64_t expected = 0;
  std::uint64_t v = 0;
  while (expected < kItems) {
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.probably_empty());
}

TEST(SpscRingTest, BulkProducerConsumerStress) {
  constexpr std::uint64_t kItems = 100000;
  SpscRing<std::uint64_t> ring(32);
  std::thread producer([&] {
    std::uint64_t batch[7];
    std::uint64_t next = 0;
    while (next < kItems) {
      std::size_t n = 0;
      while (n < 7 && next + n < kItems) {
        batch[n] = next + n;
        ++n;
      }
      std::size_t pushed = 0;
      while (pushed < n) {
        const std::size_t got = ring.try_push_n(batch + pushed, n - pushed);
        if (got == 0) std::this_thread::yield();
        pushed += got;
      }
      next += n;
    }
  });
  std::vector<std::uint64_t> out;
  std::uint64_t expected = 0;
  while (expected < kItems) {
    out.clear();
    if (ring.pop_all(out) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::uint64_t v : out) {
      ASSERT_EQ(v, expected);
      ++expected;
    }
  }
  producer.join();
}

// ---------------------------------------------------------------------------
// Parker
// ---------------------------------------------------------------------------

TEST(ParkerTest, ReturnsImmediatelyWhenDataReady) {
  Parker parker;
  EXPECT_TRUE(parker.wait([] { return true; }, [] { return false; }));
}

TEST(ParkerTest, StopWinsWhenNoData) {
  Parker parker;
  EXPECT_FALSE(parker.wait([] { return false; }, [] { return true; }));
}

TEST(ParkerTest, ConsumingPredicateInvokedOnceAfterTrue) {
  Parker parker;
  int polls_after_hit = 0;
  bool hit = false;
  parker.wait(
      [&] {
        if (hit) ++polls_after_hit;
        hit = true;
        return true;
      },
      [] { return false; });
  EXPECT_EQ(polls_after_hit, 0);
}

TEST(ParkerTest, WakesParkedWaiterOnNotify) {
  // Drive the waiter all the way into the parked state (tiny spin
  // budget), then publish data and notify from another thread.
  Parker parker;
  SpinPolicy tiny;
  tiny.pause_spins = 1;
  tiny.yields = 1;
  std::atomic<bool> data{false};
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    const bool got = parker.wait(
        [&] { return data.load(std::memory_order_acquire); },
        [] { return false; }, tiny);
    EXPECT_TRUE(got);
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  data.store(true, std::memory_order_release);
  parker.notify();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(ParkerTest, NotifyAlwaysWakesForStop) {
  Parker parker;
  SpinPolicy tiny;
  tiny.pause_spins = 1;
  tiny.yields = 1;
  std::atomic<bool> stop{false};
  std::thread waiter([&] {
    EXPECT_FALSE(parker.wait([] { return false; },
                             [&] { return stop.load(); }, tiny));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true);
  parker.notify_always();
  waiter.join();
}

// ---------------------------------------------------------------------------
// Mailbox (both modes)
// ---------------------------------------------------------------------------

class MailboxModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(MailboxModeTest, FifoAcrossThreads) {
  const bool lockfree = GetParam();
  constexpr std::uint32_t kItems = 50000;
  Mailbox mb(lockfree, 64);
  EXPECT_EQ(mb.lockfree(), lockfree);
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < kItems; ++i) {
      mb.put(core::ThreadId{i});
    }
  });
  for (std::uint32_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(mb.take(), core::ThreadId{i});
  }
  producer.join();
  EXPECT_TRUE(mb.probably_empty());
  EXPECT_EQ(mb.size(), 0u);
}

TEST_P(MailboxModeTest, CountTracksOccupancy) {
  Mailbox mb(GetParam(), 64);
  EXPECT_TRUE(mb.probably_empty());
  mb.put(1);
  mb.put(2);
  mb.put(3);
  EXPECT_EQ(mb.size(), 3u);
  EXPECT_FALSE(mb.probably_empty());
  EXPECT_EQ(mb.take(), 1u);
  EXPECT_EQ(mb.size(), 2u);
  EXPECT_EQ(mb.take(), 2u);
  EXPECT_EQ(mb.take(), 3u);
  EXPECT_TRUE(mb.probably_empty());
}

TEST_P(MailboxModeTest, TryTakeNeverWaits) {
  Mailbox mb(GetParam(), 64);
  core::ThreadId tid = core::kInvalidThread;
  EXPECT_FALSE(mb.try_take(tid));
  mb.put(core::ThreadId{5});
  mb.put(core::ThreadId{6});
  ASSERT_TRUE(mb.try_take(tid));
  EXPECT_EQ(tid, core::ThreadId{5});
  EXPECT_EQ(mb.size(), 1u);
  ASSERT_TRUE(mb.try_take(tid));
  EXPECT_EQ(tid, core::ThreadId{6});
  EXPECT_FALSE(mb.try_take(tid));
  EXPECT_TRUE(mb.probably_empty());
}

INSTANTIATE_TEST_SUITE_P(BothModes, MailboxModeTest,
                         ::testing::Values(true, false),
                         [](const auto& info) {
                           return info.param ? "lockfree" : "mutex";
                         });

TEST(MailboxTest, LockfreePutSpinsThroughFullRing) {
  // Capacity 2: the producer must wait for the consumer to catch up;
  // nothing may be lost or reordered.
  constexpr std::uint32_t kItems = 20000;
  Mailbox mb(true, 2);
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < kItems; ++i) mb.put(core::ThreadId{i});
  });
  for (std::uint32_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(mb.take(), core::ThreadId{i});
  }
  producer.join();
}

TEST(MailboxTest, SameThreadPutThrowsOnFullRing) {
  // One thread puts and takes: a full ring can never drain while put()
  // waits, so it throws - and loses or reorders nothing already queued.
  Mailbox mb(true, 2, /*same_thread=*/true);
  mb.put(core::ThreadId{1});
  mb.put(core::ThreadId{2});
  EXPECT_THROW(mb.put(core::ThreadId{3}), core::TFluxError);
  core::ThreadId tid = core::kInvalidThread;
  ASSERT_TRUE(mb.try_take(tid));
  EXPECT_EQ(tid, core::ThreadId{1});
  mb.put(core::ThreadId{3});
  ASSERT_TRUE(mb.try_take(tid));
  EXPECT_EQ(tid, core::ThreadId{2});
  ASSERT_TRUE(mb.try_take(tid));
  EXPECT_EQ(tid, core::ThreadId{3});
}

// ---------------------------------------------------------------------------
// LaneTub
// ---------------------------------------------------------------------------

TEST(LaneTubTest, SameThreadPublishThrowsOnFullLane) {
  LaneTub tub(1, 4, /*same_thread=*/true);
  const std::vector<TubEntry> batch(4, TubEntry{TubEntry::Kind::kUpdate, 7});
  tub.publish(batch, 0);
  const TubEntry one{TubEntry::Kind::kUpdate, 8};
  EXPECT_THROW(tub.publish({&one, 1}, 0), core::TFluxError);
  std::vector<TubEntry> out;
  EXPECT_EQ(tub.drain(out), 4u);
  EXPECT_EQ(out, batch);
  tub.publish({&one, 1}, 0);  // drained: room again
  out.clear();
  EXPECT_EQ(tub.drain(out), 1u);
}

TEST(LaneTubTest, SingleLanePublishDrainFifo) {
  LaneTub tub(1, 16);
  const std::vector<TubEntry> batch = {
      {TubEntry::Kind::kLoadBlock, 0},
      {TubEntry::Kind::kUpdate, 7},
      {TubEntry::Kind::kUpdate, 9},
  };
  tub.publish(batch, 0);
  std::vector<TubEntry> out;
  EXPECT_EQ(tub.drain(out), 3u);
  EXPECT_EQ(out, batch);
  const TubStats st = tub.stats();
  EXPECT_EQ(st.publishes, 1u);
  EXPECT_EQ(st.entries_published, 3u);
  EXPECT_EQ(st.drains, 1u);
  EXPECT_EQ(st.trylock_failures, 0u);  // structurally impossible now
}

TEST(LaneTubTest, OversizeBatchRejected) {
  LaneTub tub(2, 8);
  const std::vector<TubEntry> batch(tub.max_batch() + 1,
                                    TubEntry{TubEntry::Kind::kUpdate, 1});
  EXPECT_THROW(tub.publish(batch, 0), core::TFluxError);
}

TEST(LaneTubTest, HintSelectsLaneModuloCount) {
  LaneTub tub(2, 8);
  const std::vector<TubEntry> a = {{TubEntry::Kind::kUpdate, 1}};
  const std::vector<TubEntry> b = {{TubEntry::Kind::kUpdate, 2}};
  tub.publish(a, 2);  // 2 % 2 == lane 0
  tub.publish(b, 1);  // lane 1
  std::vector<TubEntry> out;
  EXPECT_EQ(tub.drain(out), 2u);
  // Drain order is lane order: lane 0's entry first.
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(out[1].id, 2u);
}

TEST(LaneTubTest, ShutdownWakeUnblocksWaiter) {
  LaneTub tub(1, 8);
  std::thread waiter([&] { tub.wait_nonempty(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  tub.shutdown_wake();
  waiter.join();
}

TEST(LaneTubTest, MultiProducerStressPreservesPerLaneOrder) {
  // Each producer hammers its own lane with ascending ids (batches of
  // varying size, lane stamped in the top bits); the consumer drains
  // concurrently and checks that every producer's ids arrive in
  // strictly ascending order - the ordering rule the emulator relies
  // on. Publishers outpace the drainer on purpose so the lane-full
  // spin path is exercised too.
  constexpr std::uint32_t kProducers = 3;
  constexpr std::uint32_t kPerProducer = 30000;
  LaneTub tub(kProducers, 16);
  std::vector<std::thread> producers;
  for (std::uint32_t lane = 0; lane < kProducers; ++lane) {
    producers.emplace_back([&tub, lane] {
      std::vector<TubEntry> batch;
      std::uint32_t next = 0;
      while (next < kPerProducer) {
        batch.clear();
        const std::uint32_t n = 1 + next % 7;
        for (std::uint32_t i = 0; i < n && next < kPerProducer; ++i) {
          batch.push_back(
              TubEntry{TubEntry::Kind::kUpdate, (lane << 24) | next});
          ++next;
        }
        tub.publish(batch, lane);
      }
    });
  }
  std::vector<std::uint32_t> seen(kProducers, 0);
  std::vector<TubEntry> out;
  std::uint64_t total = 0;
  while (total < static_cast<std::uint64_t>(kProducers) * kPerProducer) {
    out.clear();
    if (tub.drain(out) == 0) {
      tub.wait_nonempty();
      continue;
    }
    for (const TubEntry& e : out) {
      const std::uint32_t lane = e.id >> 24;
      const std::uint32_t seq = e.id & 0xFFFFFF;
      ASSERT_LT(lane, kProducers);
      ASSERT_EQ(seq, seen[lane]) << "lane " << lane;
      ++seen[lane];
    }
    total += out.size();
  }
  for (auto& p : producers) p.join();
  const TubStats st = tub.stats();
  EXPECT_EQ(st.entries_published,
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  std::vector<TubEntry> rest;
  EXPECT_EQ(tub.drain(rest), 0u);
}

}  // namespace
}  // namespace tflux::runtime
