// ShardMap: the kernel-to-TSU-group ownership model shared by every
// layer that must agree on it (emulator scheduling loops, SM span
// partitions, TUB routing, the simulated machine's TSU ports, and the
// static shard-balance lint). Every native run and every simulated
// machine owns exactly one, built from its `tsu_groups` count.
//
// The paper's section 4.1 "multiple TSU Groups" are clustered: with
// base = K/G and rem = K%G, group g owns base + (g < rem) consecutive
// kernels starting after the ranges of groups 0..g-1 (the first `rem`
// groups get the extra kernel). This models core clusters / sockets:
// siblings share a cache domain, and a coalesced [lo, hi] Ready-Count
// range splits into at most G contiguous sub-ranges, one per group, at
// publish time. A group is also called a shard.
//
// The map is immutable after construction; all queries are O(1).
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace tflux::core {

class ShardMap {
 public:
  /// `num_groups` clustered TSU groups over `num_kernels` kernels.
  /// Throws TFluxError unless 1 <= num_groups <= num_kernels.
  ShardMap(std::uint16_t num_kernels, std::uint16_t num_groups);

  std::uint16_t shard_of(KernelId k) const { return shard_of_[k]; }

  /// Kernel ids owned by `shard`, ascending.
  const std::vector<KernelId>& kernels(std::uint16_t shard) const {
    return kernels_[shard];
  }

  /// First (lowest-id) kernel owned by `shard`. Every shard owns at
  /// least one kernel (construction rejects G > K).
  KernelId first_kernel(std::uint16_t shard) const {
    return kernels_[shard].front();
  }

  /// Last (highest-id) kernel owned by `shard`.
  KernelId last_kernel(std::uint16_t shard) const {
    return kernels_[shard].back();
  }

  std::uint16_t num_kernels() const {
    return static_cast<std::uint16_t>(shard_of_.size());
  }
  std::uint16_t num_shards() const {
    return static_cast<std::uint16_t>(kernels_.size());
  }
  /// True with two or more groups. Only then do the topology-only
  /// behaviours engage: remote steal grants (and their TUB lanes),
  /// cross-group latencies, hierarchical pull and cross-shard byte
  /// accounting. A one-group map keeps every flat path.
  bool clustered() const { return kernels_.size() >= 2; }
  /// This map when clustered, else null: what the topology-only
  /// consumers (ReadySet / TsuState hierarchical pull, the DataPlane's
  /// cross-shard bytes) take, so a flat run keeps their flat paths.
  const ShardMap* topology() const { return clustered() ? this : nullptr; }

  /// True when kernels `a` and `b` live in the same shard.
  bool same_shard(KernelId a, KernelId b) const {
    return shard_of_[a] == shard_of_[b];
  }

 private:
  std::vector<std::uint16_t> shard_of_;        // indexed by kernel id
  std::vector<std::vector<KernelId>> kernels_;  // indexed by shard
};

}  // namespace tflux::core
