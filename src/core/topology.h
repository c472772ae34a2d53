// ShardMap: the kernel-to-TSU-group ownership model shared by every
// layer that must agree on it (emulator scheduling loops, SM span
// partitions, TUB routing, the simulated machine's TSU ports, and the
// static shard-balance lint). Every native run and every simulated
// machine owns exactly one, built by ShardMap::resolve().
//
// Two mappings exist:
//   kInterleaved - kernel k belongs to shard k % S. This is the paper's
//                  section 4.1 `tsu_groups` striping: with round-robin
//                  home-kernel assignment it balances load perfectly
//                  but scatters each shard's kernels across the whole
//                  id space.
//   kClustered   - contiguous balanced ranges (shard s owns a run of
//                  floor(K/S) or ceil(K/S) consecutive kernels). This
//                  models core clusters / sockets: siblings share a
//                  cache domain, and a coalesced [lo, hi] Ready-Count
//                  range splits into at most S contiguous sub-ranges,
//                  one per shard, at publish time.
//
// The map is immutable after construction; all queries are O(1).
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace tflux::core {

class ShardMap {
 public:
  enum class Kind : std::uint8_t { kInterleaved, kClustered };

  /// TSU-group striping: kernel k -> shard k % num_shards.
  static ShardMap interleaved(std::uint16_t num_kernels,
                              std::uint16_t num_shards);

  /// Contiguous balanced ranges: with base = K/S and rem = K%S, shard
  /// s owns base + (s < rem) consecutive kernels starting after the
  /// ranges of shards 0..s-1 (the first `rem` shards get the extra
  /// kernel).
  static ShardMap clustered(std::uint16_t num_kernels,
                            std::uint16_t num_shards);

  /// The ownership map of a run over `num_kernels` kernels:
  /// clustered(num_kernels, shards) when `shards` >= 1 (the sharded
  /// TSU), interleaved(num_kernels, tsu_groups) otherwise. Throws
  /// TFluxError unless 1 <= tsu_groups <= num_kernels and shards <=
  /// num_kernels (tsu_groups is checked even when shards overrides it).
  static ShardMap resolve(std::uint16_t num_kernels, std::uint16_t tsu_groups,
                          std::uint16_t shards);

  std::uint16_t shard_of(KernelId k) const { return shard_of_[k]; }

  /// Kernel ids owned by `shard`, ascending.
  const std::vector<KernelId>& kernels(std::uint16_t shard) const {
    return kernels_[shard];
  }

  /// First (lowest-id) kernel owned by `shard`. Every shard owns at
  /// least one kernel (construction rejects S > K).
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
  Kind kind() const { return kind_; }
  /// True for the clustered topology. Only a clustered map engages the
  /// topology-only behaviours: remote steal grants, intra/inter-shard
  /// latencies, hierarchical pull and cross-shard byte accounting.
  bool clustered() const { return kind_ == Kind::kClustered; }
  /// This map when clustered, else null: what the topology-only
  /// consumers (ReadySet / TsuState hierarchical pull, the DataPlane's
  /// cross-shard bytes) take, so a flat run keeps their flat paths.
  const ShardMap* topology() const { return clustered() ? this : nullptr; }

  /// True when kernels `a` and `b` live in the same shard.
  bool same_shard(KernelId a, KernelId b) const {
    return shard_of_[a] == shard_of_[b];
  }

 private:
  ShardMap(Kind kind, std::uint16_t num_kernels, std::uint16_t num_shards);

  Kind kind_ = Kind::kInterleaved;
  std::vector<std::uint16_t> shard_of_;        // indexed by kernel id
  std::vector<std::vector<KernelId>> kernels_;  // indexed by shard
};

const char* to_string(ShardMap::Kind kind);

}  // namespace tflux::core
