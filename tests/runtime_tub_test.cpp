// Unit tests for the segmented try-lock Thread-to-Update Buffer.
#include "runtime/tub.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/builder.h"
#include "core/error.h"
#include "runtime/tub_group.h"

namespace tflux::runtime {
namespace {

TEST(TubTest, InvalidGeometryRejected) {
  EXPECT_THROW(Tub(0, 16), core::TFluxError);
  EXPECT_THROW(Tub(4, 0), core::TFluxError);
}

TEST(TubTest, PublishThenDrainRoundTrips) {
  Tub tub(4, 16);
  const std::vector<TubEntry> batch = {
      {TubEntry::Kind::kUpdate, 7},
      {TubEntry::Kind::kUpdate, 9},
      {TubEntry::Kind::kLoadBlock, 1},
  };
  tub.publish(batch, /*hint=*/0);

  std::vector<TubEntry> out;
  EXPECT_EQ(tub.drain(out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], batch[0]);
  EXPECT_EQ(out[2], batch[2]);
  // Second drain finds nothing.
  EXPECT_EQ(tub.drain(out), 0u);
  EXPECT_EQ(out.size(), 3u);
}

TEST(TubTest, EmptyPublishIsNoop) {
  Tub tub(2, 4);
  tub.publish({}, 0);
  std::vector<TubEntry> out;
  EXPECT_EQ(tub.drain(out), 0u);
  EXPECT_EQ(tub.stats().publishes, 0u);
}

TEST(TubTest, OversizedBatchRejected) {
  Tub tub(2, 4);
  const std::vector<TubEntry> batch(5, TubEntry{TubEntry::Kind::kUpdate, 1});
  EXPECT_THROW(tub.publish(batch, 0), core::TFluxError);
}

TEST(TubTest, SegmentFullFallsOverToNextSegment) {
  Tub tub(2, 2);
  const std::vector<TubEntry> two(2, TubEntry{TubEntry::Kind::kUpdate, 5});
  tub.publish(two, 0);  // fills segment 0
  tub.publish(two, 0);  // must fall over to segment 1
  EXPECT_GE(tub.stats().full_skips, 1u);
  std::vector<TubEntry> out;
  EXPECT_EQ(tub.drain(out), 4u);
}

TEST(TubTest, HintSpreadsLoadAcrossSegments) {
  Tub tub(4, 2);
  const TubEntry e{TubEntry::Kind::kUpdate, 3};
  // Four single-entry publishes with distinct hints: no segment fills,
  // no skips needed.
  for (std::uint32_t k = 0; k < 4; ++k) tub.publish({&e, 1}, k);
  EXPECT_EQ(tub.stats().full_skips, 0u);
  EXPECT_EQ(tub.stats().trylock_failures, 0u);
  std::vector<TubEntry> out;
  EXPECT_EQ(tub.drain(out), 4u);
}

TEST(TubTest, ConcurrentPublishersLoseNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  Tub tub(4, 64);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> drained{0};

  // Drainer mimicking the emulator.
  std::vector<TubEntry> all;
  std::thread drainer([&] {
    std::vector<TubEntry> buf;
    for (;;) {
      buf.clear();
      tub.drain(buf);
      all.insert(all.end(), buf.begin(), buf.end());
      drained.fetch_add(buf.size());
      if (stop.load()) {
        buf.clear();
        tub.drain(buf);  // final sweep
        all.insert(all.end(), buf.begin(), buf.end());
        drained.fetch_add(buf.size());
        break;
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> publishers;
  for (int t = 0; t < kThreads; ++t) {
    publishers.emplace_back([&tub, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const TubEntry e{TubEntry::Kind::kUpdate,
                         static_cast<std::uint32_t>(t * kPerThread + i)};
        tub.publish({&e, 1}, static_cast<std::uint32_t>(t));
      }
    });
  }
  for (auto& p : publishers) p.join();
  stop.store(true);
  drainer.join();

  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  // Every id arrives exactly once.
  std::vector<std::uint32_t> ids;
  ids.reserve(all.size());
  for (const TubEntry& e : all) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(ids[i], i);
  }
  EXPECT_EQ(tub.stats().entries_published, all.size());
}

TEST(TubTest, WaitNonemptyReturnsImmediatelyWhenDataPresent) {
  Tub tub(2, 8);
  const TubEntry e{TubEntry::Kind::kUpdate, 1};
  tub.publish({&e, 1}, 0);
  tub.wait_nonempty();  // must not hang
  std::vector<TubEntry> out;
  EXPECT_EQ(tub.drain(out), 1u);
}

TEST(TubTest, ShutdownWakeUnblocksWaiter) {
  Tub tub(2, 8);
  std::thread waiter([&] {
    // wait_nonempty has a bounded timeout, but shutdown_wake should
    // release it promptly anyway.
    tub.wait_nonempty();
  });
  tub.shutdown_wake();
  waiter.join();
  SUCCEED();
}

TEST(TubGroupTest, RoutesByConsumerHomeGroup) {
  core::ProgramBuilder b;
  const core::BlockId blk = b.add_block();
  // Homes 0 and 1 => groups 0 and 1 with two groups.
  const core::ThreadId t0 = b.add_thread(blk, "g0", {}, {}, 0);
  const core::ThreadId t1 = b.add_thread(blk, "g1", {}, {}, 1);
  core::Program p = b.build(core::BuildOptions{.num_kernels = 2});
  const core::ShardMap map = core::ShardMap::interleaved(2, 2);
  SyncMemoryGroup sm(p, map);
  TubGroup tubs(p, sm,
                TubGroupOptions{.lockfree = false,
                                .segments = 4,
                                .segment_capacity = 16});

  EXPECT_EQ(tubs.group_of_thread(t0), 0u);
  EXPECT_EQ(tubs.group_of_thread(t1), 1u);

  // {t0, t1} is a consecutive-id run, so it becomes one range record
  // split between both owning groups, each receiving it trimmed to its
  // own members; the trailing t1 repeat breaks the run and stays a unit
  // update routed to group 1 alone.
  tubs.publish_updates({t0, t1, t1}, 0);
  std::vector<TubEntry> g0, g1;
  EXPECT_EQ(tubs.tub(0).drain(g0), 1u);
  EXPECT_EQ(tubs.tub(1).drain(g1), 2u);
  EXPECT_EQ(g0[0].kind, TubEntry::Kind::kRangeUpdate);
  EXPECT_EQ(g0[0].id, t0);
  EXPECT_EQ(g0[0].hi, t0);
  EXPECT_EQ(g1[0].kind, TubEntry::Kind::kRangeUpdate);
  EXPECT_EQ(g1[0].id, t1);
  EXPECT_EQ(g1[0].hi, t1);
  EXPECT_EQ(g1[1].kind, TubEntry::Kind::kUpdate);
  EXPECT_EQ(g1[1].id, t1);
}

TEST(TubGroupTest, LoadBroadcastAndOutletToCoordinator) {
  core::ProgramBuilder b;
  b.add_thread(b.add_block(), "t", {}, {}, 0);
  core::Program p = b.build(core::BuildOptions{.num_kernels = 3});
  const core::ShardMap map = core::ShardMap::interleaved(3, 3);
  SyncMemoryGroup sm(p, map);
  TubGroup tubs(p, sm,
                TubGroupOptions{.lockfree = false,
                                .segments = 4,
                                .segment_capacity = 16});

  tubs.publish_load_block(0, 0);
  tubs.publish_outlet_done(0, 0);
  std::vector<TubEntry> out;
  EXPECT_EQ(tubs.tub(0).drain(out), 2u);  // load + outlet
  out.clear();
  EXPECT_EQ(tubs.tub(1).drain(out), 1u);  // load only
  EXPECT_EQ(out[0].kind, TubEntry::Kind::kLoadBlock);
  out.clear();
  EXPECT_EQ(tubs.tub(2).drain(out), 1u);
}

TEST(TubGroupTest, ShutdownBroadcastReachesEveryGroup) {
  core::ProgramBuilder b;
  b.add_thread(b.add_block(), "t", {}, {}, 0);
  core::Program p = b.build(core::BuildOptions{.num_kernels = 2});
  const core::ShardMap map = core::ShardMap::interleaved(2, 2);
  SyncMemoryGroup sm(p, map);
  TubGroup tubs(p, sm,
                TubGroupOptions{.lockfree = false,
                                .segments = 2,
                                .segment_capacity = 8});
  tubs.broadcast_shutdown();
  for (std::uint16_t g = 0; g < 2; ++g) {
    std::vector<TubEntry> out;
    ASSERT_EQ(tubs.tub(g).drain(out), 1u);
    EXPECT_EQ(out[0].kind, TubEntry::Kind::kShutdown);
  }
}

}  // namespace
}  // namespace tflux::runtime
