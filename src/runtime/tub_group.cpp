#include "runtime/tub_group.h"

#include <algorithm>

namespace tflux::runtime {

namespace {

/// Publish `batch` into one TUB in max_batch-sized chunks.
void publish_chunked(TubQueue& tub, const std::vector<TubEntry>& batch,
                     std::uint32_t hint) {
  const std::size_t cap = tub.max_batch();
  for (std::size_t i = 0; i < batch.size(); i += cap) {
    const std::size_t n = std::min(cap, batch.size() - i);
    tub.publish({batch.data() + i, n}, hint);
  }
}

}  // namespace

TubGroup::TubGroup(const core::Program& program, const SyncMemoryGroup& sm,
                   TubGroupOptions options)
    : program_(program), sm_(sm) {
  const std::uint16_t groups = sm.shard_map().num_shards();
  pending_grants_ = std::make_unique<std::atomic<std::uint32_t>[]>(groups);
  for (std::uint16_t g = 0; g < groups; ++g) {
    pending_grants_[g].store(0, std::memory_order_relaxed);
  }
  tubs_.reserve(groups);
  for (std::uint16_t g = 0; g < groups; ++g) {
    if (options.lockfree) {
      tubs_.push_back(std::make_unique<LaneTub>(
          std::max(options.num_lanes, 1u), options.lane_capacity));
    } else {
      tubs_.push_back(std::make_unique<Tub>(options.segments,
                                            options.segment_capacity));
    }
  }
}

std::size_t TubGroup::publish_range_update(core::ThreadId lo,
                                           core::ThreadId hi,
                                           std::uint32_t hint,
                                           PublishScratch& scratch) {
  const std::size_t members = static_cast<std::size_t>(hi) - lo + 1;
  const std::uint16_t groups = num_groups();
  if (groups == 1) {
    const TubEntry e{TubEntry::Kind::kRangeUpdate, lo, hi};
    tubs_[0]->publish({&e, 1}, hint);
    return members;
  }
  // Split the record per owning group: each receives [its first
  // member, its last member] - the record trimmed to the sub-range its
  // SM sweep can actually decrement. A group's members need not be
  // contiguous in id (interleaved groups, round-robin homes), but the
  // SM applies a range only to owned slots, so trimming to the
  // outermost members is exact for any map.
  scratch.first.assign(groups, core::kInvalidThread);
  scratch.last.resize(groups);
  for (core::ThreadId tid = lo; tid <= hi; ++tid) {
    const std::uint16_t g = group_of_thread(tid);
    if (scratch.first[g] == core::kInvalidThread) scratch.first[g] = tid;
    scratch.last[g] = tid;
  }
  for (std::uint16_t g = 0; g < groups; ++g) {
    if (scratch.first[g] == core::kInvalidThread) continue;
    const TubEntry trimmed{TubEntry::Kind::kRangeUpdate, scratch.first[g],
                           scratch.last[g]};
    tubs_[g]->publish({&trimmed, 1}, hint);
  }
  return members;
}

std::size_t TubGroup::publish_completion(const core::DThread& t,
                                         std::uint32_t hint,
                                         PublishScratch& scratch) {
  // One guard probe covers the whole completion: every consumer is
  // same-block with the producer, so the retired-block check needs a
  // single representative.
  if (guard_ && !t.consumers.empty()) {
    guard_->on_publish(t.id, t.consumers.front(),
                       static_cast<std::uint16_t>(hint));
  }
  // Runs are precomputed by ProgramBuilder::build(); hand-assembled
  // Programs (test peers) may carry consumers without runs - fall back
  // to the detecting list path for those.
  if (t.consumer_runs.empty()) {
    return publish_updates(t.consumers, hint, scratch);
  }
  std::size_t published = 0;
  if (num_groups() == 1) {
    // One group: no routing - translate the run list into a single
    // reused batch (ranges for runs >= 2 wide, units for singletons).
    scratch.per_group.resize(1);
    std::vector<TubEntry>& batch = scratch.per_group[0];
    batch.clear();
    batch.reserve(t.consumer_runs.size());
    for (const core::DThread::ConsumerRun& run : t.consumer_runs) {
      if (run.lo == run.hi) {
        batch.push_back(TubEntry{TubEntry::Kind::kUpdate, run.lo});
      } else {
        batch.push_back(TubEntry{TubEntry::Kind::kRangeUpdate, run.lo,
                                 run.hi});
      }
      published += run.size();
    }
    publish_chunked(*tubs_[0], batch, hint);
    return published;
  }
  // Multiple groups: singleton runs batch per owning group; wider runs
  // publish immediately to every owning group (updates of one
  // completion target distinct consumers, so their relative order is
  // free).
  scratch.per_group.resize(num_groups());
  for (auto& batch : scratch.per_group) batch.clear();
  for (const core::DThread::ConsumerRun& run : t.consumer_runs) {
    if (run.lo == run.hi) {
      scratch.per_group[group_of_thread(run.lo)].push_back(
          TubEntry{TubEntry::Kind::kUpdate, run.lo});
      ++published;
    } else {
      published += publish_range_update(run.lo, run.hi, hint, scratch);
    }
  }
  for (std::uint16_t g = 0; g < num_groups(); ++g) {
    publish_chunked(*tubs_[g], scratch.per_group[g], hint);
  }
  return published;
}

std::size_t TubGroup::publish_updates(
    const std::vector<core::ThreadId>& consumers, std::uint32_t hint,
    PublishScratch& scratch) {
  if (consumers.empty()) return 0;
  scratch.per_group.resize(num_groups());

  // Kernel-side coalescing: collapse adjacent consecutive-id
  // same-block consumers in the batch into one range entry. The
  // consumer lists the runtime publishes are sorted, so this finds the
  // same maximal runs build() precomputes; arbitrary (unsorted) lists
  // degrade gracefully to unit entries.
  auto next_run = [&](std::size_t i) {
    std::size_t j = i + 1;
    while (j < consumers.size() && consumers[j] == consumers[j - 1] + 1 &&
           program_.thread(consumers[j]).block ==
               program_.thread(consumers[i]).block) {
      ++j;
    }
    return j;
  };

  if (num_groups() == 1) {
    // Fast path: one group means no routing - translate the consumer
    // list once into the reused scratch batch and publish it whole.
    std::vector<TubEntry>& batch = scratch.per_group[0];
    batch.clear();
    batch.reserve(consumers.size());
    for (std::size_t i = 0; i < consumers.size();) {
      const std::size_t j = next_run(i);
      if (j == i + 1) {
        batch.push_back(TubEntry{TubEntry::Kind::kUpdate, consumers[i]});
      } else {
        batch.push_back(TubEntry{TubEntry::Kind::kRangeUpdate, consumers[i],
                                 consumers[j - 1]});
      }
      i = j;
    }
    publish_chunked(*tubs_[0], batch, hint);
    return consumers.size();
  }

  // Sort units into per-group batches (reused buffers); detected runs
  // publish immediately to their owning groups.
  for (auto& batch : scratch.per_group) batch.clear();
  for (std::size_t i = 0; i < consumers.size();) {
    const std::size_t j = next_run(i);
    if (j == i + 1) {
      scratch.per_group[group_of_thread(consumers[i])].push_back(
          TubEntry{TubEntry::Kind::kUpdate, consumers[i]});
    } else {
      publish_range_update(consumers[i], consumers[j - 1], hint, scratch);
    }
    i = j;
  }
  for (std::uint16_t g = 0; g < num_groups(); ++g) {
    publish_chunked(*tubs_[g], scratch.per_group[g], hint);
  }
  return consumers.size();
}

TubStats TubGroup::aggregated_stats() const {
  TubStats total;
  for (const auto& tub : tubs_) {
    const TubStats s = tub->stats();
    total.publishes += s.publishes;
    total.entries_published += s.entries_published;
    total.trylock_failures += s.trylock_failures;
    total.full_skips += s.full_skips;
    total.drains += s.drains;
  }
  return total;
}

}  // namespace tflux::runtime
