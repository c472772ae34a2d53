// TubGroup: the Kernel-side routing layer over one-or-more TUBs.
//
// With a single TSU Emulator (the paper's TFluxSoft) there is one TUB.
// The section 4.1 multiple-TSU-Groups extension applies to the
// software TSU too: G emulator threads each own the Synchronization
// Memories of the kernels in their group (the run's clustered
// ShardMap, held by the SyncMemoryGroup) and drain their own TUB. The
// Kernel's Local TSU routes each Ready Count update to the TUB of the
// group owning the *consumer's* home kernel (a TKT lookup); block-load
// events broadcast to every group (each initializes its own SM
// partition); outlet events go to group 0, the block-chaining
// coordinator. A range update is split per owning group at publish
// time - each owner receives the record trimmed to its own first/last
// member - so each receiving SM sweep is bounded by the group's own
// members.
//
// Each group's TUB is either a LaneTub (per-kernel SPSC lanes, the
// lock-free default) or a segmented try-lock Tub (the paper-faithful
// RunOptions::lockfree=false ablation baseline); routing is
// identical either way.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/guard.h"
#include "core/program.h"
#include "core/topology.h"
#include "runtime/lane_tub.h"
#include "runtime/sync_memory.h"
#include "runtime/tub.h"

namespace tflux::runtime {

struct TubGroupOptions {
  /// LaneTub (true) vs segmented try-lock Tub (false).
  bool lockfree = true;
  /// Lock-free geometry: one lane per publishing kernel.
  std::uint32_t num_lanes = 1;
  std::uint32_t lane_capacity = 256;
  /// Mutex geometry (paper: segmented to keep try-lock contention low).
  std::uint32_t segments = 8;
  std::uint32_t segment_capacity = 256;
  /// One thread publishes and drains (a one-kernel run, whose kernel
  /// steps its own emulator): a full lane or segment throws instead of
  /// waiting, and publishes wake no one.
  bool same_thread = false;
};

class TubGroup {
 public:
  /// Per-kernel scratch for batched publishes: reused across
  /// post-processing calls so the hot path never allocates after the
  /// first few DThreads.
  struct PublishScratch {
    std::vector<std::vector<TubEntry>> per_group;
    /// Range trimming: each group's first and last member of the
    /// record being split (kInvalidThread = owns none).
    std::vector<core::ThreadId> first;
    std::vector<core::ThreadId> last;
  };

  /// One TUB per group of `sm`'s ShardMap; `sm` also provides the TKT
  /// used for routing. It must outlive this.
  TubGroup(const core::Program& program, const SyncMemoryGroup& sm,
           TubGroupOptions options);

  std::uint16_t num_groups() const {
    return static_cast<std::uint16_t>(tubs_.size());
  }
  TubQueue& tub(std::uint16_t group) { return *tubs_[group]; }

  /// Group owning a kernel's Synchronization Memory.
  std::uint16_t group_of_kernel(core::KernelId k) const {
    return sm_.shard_map().shard_of(k);
  }
  /// Group owning a DThread's Ready Count (via the TKT).
  std::uint16_t group_of_thread(core::ThreadId tid) const {
    return group_of_kernel(sm_.tkt(tid).kernel);
  }

  /// Install the ddmguard instance probing publishes (null = off).
  /// Publish hooks use the publishing kernel's `hint` as their lane,
  /// so only the Runtime (whose hints are kernel ids) installs one.
  void set_guard(core::Guard* guard) { guard_ = guard; }

  /// Kernel side: route one Ready Count update to the owning group.
  /// `producer` is diagnostic context for the guard's publish probe.
  void publish_update(core::ThreadId consumer, std::uint32_t hint,
                      core::ThreadId producer = core::kInvalidThread) {
    if (guard_) {
      guard_->on_publish(producer, consumer,
                         static_cast<std::uint16_t>(hint));
    }
    const TubEntry e{TubEntry::Kind::kUpdate, consumer};
    tubs_[group_of_thread(consumer)]->publish({&e, 1}, hint);
  }

  /// Kernel side: the explicit RangeUpdate API - one record decrements
  /// every consumer in [lo, hi] inclusive (must be one DDM Block; a
  /// DThread's precomputed consumer runs and DDMCPP's range arcs are
  /// such ranges by construction, so loop post-processing needs no
  /// detection). Every group owning at least one member receives the
  /// record trimmed to its own first and last member; it applies only
  /// the slots of kernels it owns, so every member is decremented
  /// exactly once. `scratch` is the calling kernel's reusable buffer.
  /// Returns the number of members (the unit-update-equivalent count).
  std::size_t publish_range_update(core::ThreadId lo, core::ThreadId hi,
                                   std::uint32_t hint,
                                   PublishScratch& scratch);

  /// Allocating convenience overload (tests / one-off callers).
  std::size_t publish_range_update(core::ThreadId lo, core::ThreadId hi,
                                   std::uint32_t hint) {
    PublishScratch scratch;
    return publish_range_update(lo, hi, hint, scratch);
  }

  /// Kernel side: publish a completed DThread's updates. `t`'s
  /// precomputed consumer runs publish one range record per run >= 2
  /// wide and unit records for singletons (programs whose runs were
  /// not precomputed go through publish_updates over the consumer
  /// list). Returns the number of unit-equivalent updates published.
  std::size_t publish_completion(const core::DThread& t, std::uint32_t hint,
                                 PublishScratch& scratch);

  /// Kernel side: route a raw consumer list, batched per owning group
  /// - one publish per group carries every update of the completion
  /// (chunked only if a batch exceeds the TUB's max_batch). Adjacent
  /// consecutive-id same-block consumers in the batch are detected and
  /// collapsed into range records. `scratch`
  /// is the calling kernel's reusable buffer. Returns the number of
  /// unit-equivalent updates published.
  std::size_t publish_updates(const std::vector<core::ThreadId>& consumers,
                              std::uint32_t hint, PublishScratch& scratch);

  /// Allocating convenience overload (tests / one-off callers).
  std::size_t publish_updates(const std::vector<core::ThreadId>& consumers,
                              std::uint32_t hint) {
    PublishScratch scratch;
    return publish_updates(consumers, hint, scratch);
  }

  /// Kernel side: an Inlet finished - every group loads its partition.
  void publish_load_block(core::BlockId block, std::uint32_t hint) {
    const TubEntry e{TubEntry::Kind::kLoadBlock, block};
    for (auto& tub : tubs_) tub->publish({&e, 1}, hint);
  }

  /// Kernel side: an Outlet finished - only the coordinator chains.
  void publish_outlet_done(core::BlockId block, std::uint32_t hint) {
    const TubEntry e{TubEntry::Kind::kOutletDone, block};
    tubs_[0]->publish({&e, 1}, hint);
  }

  /// Delegating emulator side: hand ready DThread `tid` to `to_group`,
  /// which dispatches it to its shallowest local mailbox (hierarchical
  /// remote steal). `hint` must be the delegating emulator's dedicated
  /// lane (num_kernels + its group), never a kernel's - emulators and
  /// kernels publish concurrently and a LaneTub lane is SPSC.
  void publish_steal_grant(std::uint16_t to_group, core::ThreadId tid,
                           std::uint32_t hint) {
    pending_grants_[to_group].fetch_add(1, std::memory_order_relaxed);
    const TubEntry e{TubEntry::Kind::kStealGrant, tid};
    tubs_[to_group]->publish({&e, 1}, hint);
  }

  /// Receiving emulator side: a grant left the TUB and entered a local
  /// mailbox. Pairs with publish_steal_grant's increment.
  void steal_grant_consumed(std::uint16_t group) {
    pending_grants_[group].fetch_sub(1, std::memory_order_relaxed);
  }

  /// Grants published to `group` but not yet redispatched by it. Victim
  /// selection adds this to the group's observed mailbox depths -
  /// in-flight grants are otherwise invisible (they sit in the TUB
  /// ring), and without the correction a dispatch burst sees a remote
  /// shard as idle forever and delegates its entire backlog.
  std::uint32_t pending_steal_grants(std::uint16_t group) const {
    return pending_grants_[group].load(std::memory_order_relaxed);
  }

  /// Coordinator side: program finished - every emulator shuts down.
  /// Published on the coordinator's dedicated lane (hint num_kernels:
  /// group 0's emulator lane when the lane space has one, and lane 0
  /// mod num_lanes in the one-group kernels-only geometry, where no
  /// kernel publishes after the final Outlet).
  void broadcast_shutdown() {
    const TubEntry e{TubEntry::Kind::kShutdown, 0};
    for (auto& tub : tubs_) {
      tub->publish({&e, 1}, sm_.num_kernels());
      tub->shutdown_wake();
    }
  }

  TubStats aggregated_stats() const;

 private:
  const core::Program& program_;
  const SyncMemoryGroup& sm_;
  core::Guard* guard_ = nullptr;  ///< null = online checking off
  std::vector<std::unique_ptr<TubQueue>> tubs_;
  /// Per-group in-flight steal grants (atomics are not movable, so the
  /// array is heap-allocated at construction).
  std::unique_ptr<std::atomic<std::uint32_t>[]> pending_grants_;
};

}  // namespace tflux::runtime
