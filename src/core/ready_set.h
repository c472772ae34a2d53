// The TSU's pool of executable DThreads, with the selection policy the
// paper describes: "If more than one ready DThreads exist the TSU
// returns the one which, based on its internal policy, is most likely
// to maximize the spatial locality."
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/topology.h"
#include "core/types.h"

namespace tflux::core {

/// How the TSU picks among multiple ready DThreads.
enum class PolicyKind : std::uint8_t {
  kFifo,      ///< single global FIFO, ignores locality
  kLocality,  ///< per-kernel queues keyed by home kernel; steal on empty
  /// Hierarchical stealing over a ShardMap: home queue first, then
  /// sibling kernels in the requester's shard, then remote shards
  /// (highest-backlog victim first, so work drains from the most
  /// overloaded cluster). Without a ShardMap this degenerates to
  /// kLocality (one flat shard). The native TSU Emulator routes on the
  /// push side by mailbox depth: home while its backlog is shallow,
  /// else the shallowest sibling, else (clustered map only) a remote
  /// shard.
  kHier,
  /// Data-plane affinity: route each ready DThread to the kernel
  /// holding the largest share of its input bytes (the DataPlane's
  /// execution record), falling back to the home kernel when cold.
  /// The routing happens on the *push* side (TsuState / TsuEmulator
  /// consult the DataPlane); inside the ReadySet the pull side is
  /// identical to kHier - home queue, shard siblings, remote shards.
  kAffinity,
};

const char* to_string(PolicyKind kind);

/// Parse a policy name as to_string() spells it. Returns false (out
/// untouched) on an unknown name.
bool parse_policy(const std::string& name, PolicyKind& out);

/// Deterministic ready-DThread pool. Not thread-safe: platform TSUs
/// serialize access (the TSU Group is a single unit in the paper).
class ReadySet {
 public:
  /// `shards` (optional, kHier only) maps kernels to topology shards;
  /// it must outlive the ReadySet and cover `num_kernels` kernels.
  ReadySet(std::uint16_t num_kernels, PolicyKind policy,
           const ShardMap* shards = nullptr);

  /// Make `tid` (whose home kernel is `home`) available for execution.
  void push(ThreadId tid, KernelId home);

  /// Fetch a ready DThread for `requester`. Locality policy prefers
  /// the requester's own queue, then steals round-robin from others;
  /// kHier steals same-shard siblings before remote shards.
  std::optional<ThreadId> pop(KernelId requester);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  std::uint16_t num_kernels() const {
    return static_cast<std::uint16_t>(queues_.size());
  }
  PolicyKind policy() const { return policy_; }

  /// Number of pops served from a queue other than the requester's
  /// home queue (i.e. steals). Always 0 under kFifo.
  std::uint64_t steals() const { return steals_; }

  /// kHier breakdown: steals from a sibling kernel in the requester's
  /// shard vs. steals that crossed a shard boundary. Both are 0 for
  /// the flat policies (their steals_ counts every non-home pop).
  std::uint64_t steal_local() const { return steal_local_; }
  std::uint64_t steal_remote() const { return steal_remote_; }

 private:
  std::optional<ThreadId> pop_queue(std::size_t q);
  std::optional<ThreadId> pop_hier(KernelId requester);

  PolicyKind policy_;
  const ShardMap* shards_;  // kHier only; may be null (degenerates flat)
  std::vector<std::deque<ThreadId>> queues_;  // kFifo uses queues_[0] only
  std::vector<std::size_t> shard_backlog_;    // kHier: ready per shard
  std::size_t size_ = 0;
  std::uint64_t steals_ = 0;
  std::uint64_t steal_local_ = 0;
  std::uint64_t steal_remote_ = 0;
};

}  // namespace tflux::core
