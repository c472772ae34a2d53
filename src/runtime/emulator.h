// The TSU Emulator: the software implementation of the TSU Group
// (TFluxSoft, paper section 4.2). One emulator thread drains its TUB,
// applies Ready Count updates to the Synchronization Memories of the
// kernels it owns (via the TKT, or by sequential search when Thread
// Indexing is disabled), and dispatches DThreads that become ready to
// those kernels' mailboxes, preferring the DThread's home Kernel
// (spatial locality).
//
// Multiple TSU Groups (the section 4.1 extension, software flavor):
// emulator g owns the kernels the run's ShardMap (held by the
// SyncMemoryGroup) gives group g - the k % G stripe of tsu_groups, or
// one clustered shard. The Kernel-side TubGroup routes each command to
// the owning emulator's TUB, and emulator 0 coordinates block chaining
// and shutdown.
//
// kHier dispatch keeps a DThread on its home kernel while that mailbox
// is shallow and spills overflow to the shallowest sibling kernel of
// its group. On a clustered map a shard-wide backlog additionally
// escalates to a kStealGrant handed to the least-loaded remote shard
// (subject to Options::steal_threshold, so warm-cache home dispatch
// stays the common case); the receiving emulator dispatches the
// granted DThread to its shallowest local mailbox.
//
// Block pipeline: instead of a synchronous SyncMemoryGroup reload at
// every block boundary, the emulator stages the next block's Ready
// Counts in the shadow SM generation once the current block's
// outstanding-dispatch count falls to 2 x its owned kernels, applies
// cross-block updates that race ahead of the flip directly to that
// shadow, and activates the next block with a single generation flip.
// The coordinator flips at OutletDone - before the next Inlet has even
// been scheduled - so the first wave of the next block reaches the
// mailboxes without waiting for a kernel round trip. The Inlet still
// executes (accounting parity with the paper's protocol); only its
// SM-load work has moved off the critical path.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/dataplane.h"
#include "core/program.h"
#include "core/ready_set.h"
#include "core/types.h"
#include "runtime/guard_hooks.h"
#include "runtime/mailbox.h"
#include "runtime/sync_memory.h"
#include "runtime/tub_group.h"

namespace tflux::runtime {

class TraceLog;

/// Live per-emulator counters: cache-line aligned so two TSU Groups'
/// stat bumps (emulators sit in one contiguous container) never
/// false-share.
struct alignas(kCacheLine) EmulatorStats {
  std::uint64_t updates_processed = 0;  ///< Ready Count decrements
  std::uint64_t dispatches = 0;         ///< ready DThreads delivered
  std::uint64_t home_dispatches = 0;    ///< delivered to home kernel
  std::uint64_t blocks_loaded = 0;      ///< partition loads by this one
  std::uint64_t sm_search_steps = 0;  ///< slots scanned without TKT
  std::uint64_t drain_sweeps = 0;
  /// Block activations whose shadow generation was already staged when
  /// the flip happened (the pipeline hid the whole SM load).
  std::uint64_t prefetch_hits = 0;
  /// Activations that had to load the shadow synchronously (flip
  /// happened before the low-water prefetch fired). hits + misses ==
  /// blocks_loaded.
  std::uint64_t prefetch_misses = 0;
  /// Updates applied from the deferred queue (raced ahead of a block
  /// neither current nor next; rare once the shadow path exists).
  std::uint64_t deferred_replays = 0;
  /// Dispatches routed away from the home kernel by the kLocality /
  /// kHier / kAffinity policies (kFifo round-robin is not counted).
  std::uint64_t steal_dispatches = 0;
  /// kRangeUpdate records applied (each counts its members into
  /// updates_processed, so unit and coalesced runs reconcile there;
  /// the ratio range_members / range_updates_processed is the
  /// coalescing factor).
  std::uint64_t range_updates_processed = 0;
  std::uint64_t range_members = 0;
  /// kHier only: dispatches routed to a sibling kernel of this shard
  /// (counted into steal_dispatches as well).
  std::uint64_t steal_local = 0;
  /// kHier only: ready DThreads this emulator delegated to a remote
  /// shard via kStealGrant (the grant's dispatch happens - and is
  /// counted - at the receiver).
  std::uint64_t steal_remote = 0;
  /// kHier only: steal grants received and dispatched locally. Summed
  /// over all emulators, steals_in == steal_remote.
  std::uint64_t steals_in = 0;
  /// Data plane (Options::dataplane, any policy): application
  /// dispatches whose target kernel held the maximal warm share of the
  /// consumer's input bytes (ties count as hits)...
  std::uint64_t affinity_hits = 0;
  /// ...whose warm maximum sat on some other kernel...
  std::uint64_t affinity_misses = 0;
  /// ...and whose producers had no warm bytes anywhere (first wave /
  /// no overlapping footprints). hits + misses + cold == application
  /// dispatches when the data plane is on.
  std::uint64_t affinity_cold = 0;
  /// Warm input bytes that lived on a shard other than the dispatch
  /// target's (0 without a ShardMap): the cross-shard traffic the
  /// affinity policy tries to avoid.
  std::uint64_t cross_shard_bytes = 0;

  EmulatorStats& operator+=(const EmulatorStats& other) {
    updates_processed += other.updates_processed;
    dispatches += other.dispatches;
    home_dispatches += other.home_dispatches;
    blocks_loaded += other.blocks_loaded;
    sm_search_steps += other.sm_search_steps;
    drain_sweeps += other.drain_sweeps;
    prefetch_hits += other.prefetch_hits;
    prefetch_misses += other.prefetch_misses;
    deferred_replays += other.deferred_replays;
    steal_dispatches += other.steal_dispatches;
    range_updates_processed += other.range_updates_processed;
    range_members += other.range_members;
    steal_local += other.steal_local;
    steal_remote += other.steal_remote;
    steals_in += other.steals_in;
    affinity_hits += other.affinity_hits;
    affinity_misses += other.affinity_misses;
    affinity_cold += other.affinity_cold;
    cross_shard_bytes += other.cross_shard_bytes;
    return *this;
  }

  /// Zero every counter - the per-run stats epoch boundary (see
  /// KernelStats::reset).
  void reset() { *this = EmulatorStats{}; }
};

class TsuEmulator {
 public:
  struct Options {
    /// Use the Thread-to-Kernel Table for SM lookup (paper's Thread
    /// Indexing). Off = sequential SM search (the ablation baseline).
    bool thread_indexing = true;
    /// Ready-DThread routing policy within the group.
    core::PolicyKind policy = core::PolicyKind::kLocality;
    /// This emulator's TSU Group (a shard of the SM's ShardMap).
    std::uint16_t group = 0;
    /// kHier / kAffinity: keep a DThread on its home kernel while that
    /// mailbox holds at most this many undelivered DThreads; beyond
    /// it, route to the shallowest owned mailbox.
    std::uint32_t adaptive_backlog = 2;
    /// kHier only: minimum depth advantage a remote shard's shallowest
    /// mailbox must have over this shard's before a backlogged
    /// dispatch is delegated there (hysteresis keeping warm-cache home
    /// dispatch the common case). Ignored unless the map is clustered.
    std::uint32_t steal_threshold = 4;
    /// Managed data plane (must outlive the emulator). Non-null turns
    /// on affinity accounting for every application dispatch (any
    /// policy) and enables the kAffinity placement. Null = implicit
    /// shared memory only (the --no-dataplane ablation; kAffinity
    /// then degrades to kHier).
    const core::DataPlane* dataplane = nullptr;
    /// Execution-trace sink (null = tracing off, the default).
    TraceLog* trace = nullptr;
    /// ddmguard instance (null = online checking off, the default).
    core::Guard* guard = nullptr;
    /// Armed fault injection (null = none; guard tests only).
    FaultPlan* fault = nullptr;
  };

  /// `sm` is shared between emulators (slot ownership is disjoint) and
  /// its ShardMap decides which kernels this group owns; `mailboxes`
  /// covers all kernels (this emulator only touches the ones in its
  /// group).
  TsuEmulator(const core::Program& program, TubGroup& tubs,
              SyncMemoryGroup& sm, std::deque<Mailbox>& mailboxes,
              Options options);

  /// Thread main. Emulator 0 arms the program (activates block 0 /
  /// dispatches its Inlet); every emulator processes its TUB until the
  /// shutdown broadcast, then releases its kernels and returns.
  void run();

  const EmulatorStats& stats() const { return stats_; }
  std::uint16_t group() const { return options_.group; }

  /// Start a fresh stats epoch. Only between runs (no live run()).
  void reset_stats_epoch() { stats_.reset(); }

 private:
  bool owns_kernel(core::KernelId k) const {
    return map_.shard_of(k) == options_.group;
  }
  void dispatch(core::ThreadId tid);
  /// kHier / kAffinity overflow ladder: while `home`'s mailbox is
  /// within adaptive_backlog, leave `target` alone; beyond it, move
  /// `target` to the shallowest owned mailbox, and when even that one
  /// is backlogged try to delegate `tid` to a remote shard. Returns
  /// false when `tid` was delegated (nothing left to dispatch here).
  bool spill_backlog(core::ThreadId tid, core::KernelId home,
                     core::KernelId& target);
  /// A DThread of this group's current block left the partition
  /// (dispatched or delegated): count it down and maybe prefetch.
  void retire_partition_slot(core::ThreadId tid);
  /// Data-plane accounting for one application dispatch onto `target`
  /// (no-op without Options::dataplane or for Inlets/Outlets).
  void account_dataplane(core::ThreadId tid, core::KernelId target);
  /// kHier: whole shard backlogged at `local_best` - delegate `tid` to
  /// the least-loaded remote shard if one beats us by steal_threshold.
  /// Returns true when a kStealGrant was published (the caller must
  /// skip the local mailbox put but still account the partition slot).
  bool try_delegate(core::ThreadId tid, std::size_t local_best);
  /// Receiver side of a kStealGrant: dispatch the granted DThread (its
  /// home kernel lives in another shard) to the shallowest local
  /// mailbox.
  void dispatch_steal_grant(core::ThreadId tid);
  /// Make `block` the group's current block: flip the (pre)loaded
  /// shadow generation in, reset the outstanding count, optionally
  /// dispatch the block's Inlet (coordinator fast path), dispatch the
  /// zero-Ready-Count first wave, and replay any applicable deferred
  /// updates.
  void activate_block(core::BlockId block, bool dispatch_inlet);
  /// Apply one kUpdate or kRangeUpdate: to the current generation, to
  /// the shadow (pipelined cross-block update), or defer it. A range
  /// decrements every owned member in one contiguous SM sweep. Returns
  /// true when the update was applied.
  bool handle_update(const TubEntry& entry);
  /// Apply one range update [lo, hi] to the chosen generation, filling
  /// zeroed_. With deep guard checks on the block, every member is
  /// individually accounted first; a member whose decrement the guard
  /// suppressed (Ready Count would underflow) drops the whole sweep to
  /// per-member unit decrements of the healthy members. Returns the
  /// number of members decremented.
  std::size_t range_decrement(bool shadow, core::ThreadId lo,
                              core::ThreadId hi);
  /// kLostUpdate injection: if the armed victim lies in [lo, hi], is
  /// owned here, and its count in the chosen generation is still
  /// nonzero, dispatch it early and arm the swallow of its real
  /// zero-dispatch.
  void maybe_inject_lost_update(bool shadow, core::ThreadId lo,
                                core::ThreadId hi);
  /// Stage the next block's partition in the shadow generation once
  /// the current block is nearly drained.
  void maybe_prefetch();

  const core::Program& program_;
  TubGroup& tubs_;
  TubQueue& tub_;  ///< this group's TUB (LaneTub or segmented Tub)
  SyncMemoryGroup& sm_;
  const core::ShardMap& map_;  ///< sm_'s kernel-to-group ownership
  std::deque<Mailbox>& mailboxes_;
  Options options_;
  std::vector<core::KernelId> my_kernels_;
  std::uint16_t trace_lane_ = 0;  ///< this emulator's TraceLog lane
  GuardHook guard_;               ///< null guard = checking off
  FaultPlan* fault_ = nullptr;    ///< null = no fault injection
  EmulatorStats stats_;
  std::size_t rr_next_ = 0;  // round-robin cursor for kFifo routing
  /// Block this group has activated (current SM generation).
  core::BlockId my_block_ = core::kInvalidBlock;
  /// Partition slots of my_block_ not yet dispatched; falling to 2 x
  /// owned kernels triggers the shadow preload of the next block.
  std::size_t partition_outstanding_ = 0;
  /// Next-block DThreads already dispatched through the shadow path
  /// (subtracted from partition_outstanding_ at activation).
  std::size_t shadow_predispatched_ = 0;
  /// Updates that raced ahead of a block neither current nor next
  /// (only possible with several TSU groups, and rare even then now
  /// that next-block updates go straight to the shadow generation).
  /// Replayed at the next activation.
  std::vector<TubEntry> deferred_updates_;
  /// Reused scratch: members a range sweep drove to zero, pending
  /// dispatch.
  std::vector<core::ThreadId> zeroed_;
  /// Reused scratch for deep-guarded range sweeps: the owned members
  /// of the range, and the subset whose decrement the guard allowed.
  std::vector<core::ThreadId> guard_members_;
  std::vector<core::ThreadId> guard_ok_;
};

}  // namespace tflux::runtime
