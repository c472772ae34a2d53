// Unit tests for the Synchronization Memory group and the Thread-to-
// Kernel Table (Thread Indexing).
#include "runtime/sync_memory.h"

#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/error.h"

namespace tflux::runtime {
namespace {

using core::BlockId;
using core::KernelId;
using core::Program;
using core::ProgramBuilder;
using core::ThreadId;

/// Two kernels, one TSU group owning both.
const core::ShardMap kOneGroup = core::ShardMap::interleaved(2, 1);

/// Make `block` current for every kernel: stage it in the shadow
/// generation and flip (one group owns them all).
void load(SyncMemoryGroup& sm, BlockId block) {
  sm.preload_shadow(block, /*group=*/0);
  sm.promote_shadow(/*group=*/0);
}

Program two_block_program(ThreadId ids[6]) {
  ProgramBuilder b;
  const BlockId b0 = b.add_block();
  const BlockId b1 = b.add_block();
  // Block 0: a->c, b->c with homes 0,1,0.
  ids[0] = b.add_thread(b0, "a", {}, {}, 0);
  ids[1] = b.add_thread(b0, "b", {}, {}, 1);
  ids[2] = b.add_thread(b0, "c", {}, {}, 0);
  b.add_arc(ids[0], ids[2]);
  b.add_arc(ids[1], ids[2]);
  // Block 1: d->e, f independent, homes 1,0,1.
  ids[3] = b.add_thread(b1, "d", {}, {}, 1);
  ids[4] = b.add_thread(b1, "e", {}, {}, 0);
  ids[5] = b.add_thread(b1, "f", {}, {}, 1);
  b.add_arc(ids[3], ids[4]);
  core::BuildOptions options;
  options.num_kernels = 2;
  return b.build(options);
}

TEST(SyncMemoryTest, TktPlacesThreadsOnHomeKernels) {
  ThreadId ids[6];
  Program p = two_block_program(ids);
  SyncMemoryGroup sm(p, kOneGroup);

  EXPECT_EQ(sm.tkt(ids[0]).kernel, 0u);
  EXPECT_EQ(sm.tkt(ids[1]).kernel, 1u);
  EXPECT_EQ(sm.tkt(ids[2]).kernel, 0u);
  EXPECT_EQ(sm.tkt(ids[3]).kernel, 1u);
  // Distinct slots within a kernel's SM for the same block.
  EXPECT_NE(sm.tkt(ids[0]).slot, sm.tkt(ids[2]).slot);
  // Inlets/outlets are homed on kernel 0.
  EXPECT_EQ(sm.tkt(p.block(0).inlet).kernel, 0u);
  EXPECT_EQ(sm.tkt(p.block(0).outlet).kernel, 0u);
}

TEST(SyncMemoryTest, LoadBlockInitializesReadyCounts) {
  ThreadId ids[6];
  Program p = two_block_program(ids);
  SyncMemoryGroup sm(p, kOneGroup);

  load(sm, 0);
  EXPECT_EQ(sm.current_block(0), 0u);
  EXPECT_EQ(sm.count(ids[0]), 0u);
  EXPECT_EQ(sm.count(ids[1]), 0u);
  EXPECT_EQ(sm.count(ids[2]), 2u);
  // Outlet's count = sink count of block 0 (c is the only sink).
  EXPECT_EQ(sm.count(p.block(0).outlet), 1u);
}

TEST(SyncMemoryTest, DecrementWithTktReachesZeroExactlyOnce) {
  ThreadId ids[6];
  Program p = two_block_program(ids);
  SyncMemoryGroup sm(p, kOneGroup);
  load(sm, 0);

  EXPECT_FALSE(sm.decrement(ids[2], /*use_tkt=*/true));
  EXPECT_EQ(sm.count(ids[2]), 1u);
  EXPECT_TRUE(sm.decrement(ids[2], /*use_tkt=*/true));
  EXPECT_EQ(sm.count(ids[2]), 0u);
}

TEST(SyncMemoryTest, SequentialSearchMatchesTktAndCountsSteps) {
  ThreadId ids[6];
  Program p = two_block_program(ids);
  SyncMemoryGroup sm_tkt(p, kOneGroup);
  SyncMemoryGroup sm_scan(p, kOneGroup);
  load(sm_tkt, 0);
  load(sm_scan, 0);

  std::uint64_t steps = 0;
  EXPECT_EQ(sm_tkt.decrement(ids[2], true),
            sm_scan.decrement(ids[2], false, &steps));
  EXPECT_GT(steps, 0u);  // the search Thread Indexing eliminates
  EXPECT_EQ(sm_tkt.count(ids[2]), sm_scan.count(ids[2]));
}

TEST(SyncMemoryTest, BlockReloadReusesSlots) {
  ThreadId ids[6];
  Program p = two_block_program(ids);
  SyncMemoryGroup sm(p, kOneGroup);

  load(sm, 0);
  sm.decrement(ids[2], true);
  load(sm, 1);
  EXPECT_EQ(sm.current_block(0), 1u);
  EXPECT_EQ(sm.count(ids[3]), 0u);
  EXPECT_EQ(sm.count(ids[4]), 1u);
  EXPECT_EQ(sm.count(ids[5]), 0u);
  // Block 1 sinks: e and f => outlet count 2.
  EXPECT_EQ(sm.count(p.block(1).outlet), 2u);
}

TEST(SyncMemoryTest, HomesBeyondKernelCountClampToKernelZero) {
  ProgramBuilder b;
  const BlockId b0 = b.add_block();
  const ThreadId t = b.add_thread(b0, "t", {}, {}, 7);  // home 7
  core::BuildOptions options;
  options.num_kernels = 8;
  Program p = b.build(options);

  // Runtime launched with only 2 kernels: thread must land somewhere.
  SyncMemoryGroup sm(p, kOneGroup);
  EXPECT_EQ(sm.tkt(t).kernel, 0u);
  load(sm, 0);
  EXPECT_EQ(sm.count(t), 0u);
}

TEST(SyncMemoryTest, BadBlockIdRejected) {
  ThreadId ids[6];
  Program p = two_block_program(ids);
  SyncMemoryGroup sm(p, kOneGroup);
  EXPECT_THROW(sm.preload_shadow(9, 0), core::TFluxError);
}

}  // namespace
}  // namespace tflux::runtime
