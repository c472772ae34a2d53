#include "core/tsu_state.h"

#include <cassert>

#include "core/error.h"

namespace tflux::core {

TsuState::TsuState(const Program& program, std::uint16_t num_kernels,
                   PolicyKind policy, const ShardMap* shards,
                   const DataPlane* dataplane)
    : program_(program),
      dataplane_(dataplane),
      affinity_(policy == PolicyKind::kAffinity && dataplane != nullptr),
      ready_(num_kernels, policy, shards),
      ready_counts_(program.num_threads(), 0),
      states_(program.num_threads(), ThreadState::kNotLoaded) {}

void TsuState::start() {
  if (started_) throw TFluxError("TsuState::start called twice");
  started_ = true;
  make_ready(program_.block(0).inlet);
}

std::optional<ThreadId> TsuState::fetch(KernelId kernel) {
  assert(started_);
  ++counters_.fetch_requests;
  std::optional<ThreadId> tid = ready_.pop(kernel);
  if (!tid) {
    ++counters_.fetch_misses;
    return std::nullopt;
  }
  assert(states_[*tid] == ThreadState::kReady);
  states_[*tid] = ThreadState::kRunning;
  if (dataplane_ != nullptr && program_.thread(*tid).is_application()) {
    // Account against the record *before* this thread becomes the
    // producer of its own outputs, then claim ownership of them.
    const DataPlane::DispatchAccount acct =
        dataplane_->account_dispatch(*tid, kernel);
    if (acct.cold) {
      ++counters_.affinity_cold;
    } else if (acct.hit) {
      ++counters_.affinity_hits;
    } else {
      ++counters_.affinity_misses;
    }
    counters_.cross_shard_bytes += acct.cross_shard_bytes;
    dataplane_->record_execution(*tid, kernel);
  }
  counters_.steals = ready_.steals();
  counters_.steal_local = ready_.steal_local();
  counters_.steal_remote = ready_.steal_remote();
  return tid;
}

void TsuState::complete(ThreadId tid) {
  assert(started_);
  if (tid >= program_.num_threads() ||
      states_[tid] != ThreadState::kRunning) {
    throw TFluxError("TsuState::complete on DThread that is not running");
  }
  states_[tid] = ThreadState::kCompleted;
  const DThread& t = program_.thread(tid);

  switch (t.kind) {
    case ThreadKind::kInlet: {
      // Load the block: initialize Ready Counts for its application
      // threads and its Outlet; zero-count threads become ready.
      const Block& blk = program_.block(t.block);
      current_block_ = blk.id;
      ++counters_.blocks_loaded;
      for (ThreadId id : blk.app_threads) {
        assert(states_[id] == ThreadState::kNotLoaded);
        ready_counts_[id] = program_.thread(id).ready_count_init;
        if (ready_counts_[id] == 0) {
          make_ready(id);
        } else {
          states_[id] = ThreadState::kWaiting;
        }
      }
      // Every non-empty DAG has at least one sink, so the Outlet always
      // starts with a positive Ready Count.
      ready_counts_[blk.outlet] = program_.thread(blk.outlet).ready_count_init;
      assert(ready_counts_[blk.outlet] > 0);
      states_[blk.outlet] = ThreadState::kWaiting;
      break;
    }
    case ThreadKind::kApplication: {
      ++counters_.threads_completed;
      if (dataplane_ != nullptr) {
        // The forward happens once per producer/consumer-run pair.
        for (const ForwardRun& run : dataplane_->forward_runs(tid)) {
          ++counters_.forwards;
          counters_.bytes_forwarded += run.bytes;
        }
      }
      for (ThreadId consumer : t.consumers) {
        decrement(consumer);
      }
      break;
    }
    case ThreadKind::kOutlet: {
      // Free this block's TSU resources and chain to the next block.
      const BlockId next = static_cast<BlockId>(t.block + 1);
      if (next < program_.num_blocks()) {
        make_ready(program_.block(next).inlet);
      } else {
        done_ = true;
      }
      break;
    }
  }
}

void TsuState::make_ready(ThreadId tid) {
  states_[tid] = ThreadState::kReady;
  const DThread& t = program_.thread(tid);
  KernelId target = t.home_kernel;
  if (affinity_ && t.is_application()) {
    // Push-side affinity routing: queue the DThread where the largest
    // share of its input bytes is warm; cold threads keep their home.
    const AffinityScore s = dataplane_->score(tid);
    if (s.total_bytes > 0 && s.best < ready_.num_kernels()) {
      target = s.best;
    }
  }
  ready_.push(tid, target);
}

void TsuState::decrement(ThreadId consumer) {
  ++counters_.consumer_updates;
  assert(states_[consumer] == ThreadState::kWaiting);
  assert(ready_counts_[consumer] > 0);
  if (--ready_counts_[consumer] == 0) {
    make_ready(consumer);
  }
}

}  // namespace tflux::core
