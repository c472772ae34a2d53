#include "core/topology.h"

#include <string>

#include "core/error.h"

namespace tflux::core {

const char* to_string(ShardMap::Kind kind) {
  switch (kind) {
    case ShardMap::Kind::kInterleaved:
      return "interleaved";
    case ShardMap::Kind::kClustered:
      return "clustered";
  }
  return "?";
}

ShardMap::ShardMap(Kind kind, std::uint16_t num_kernels,
                   std::uint16_t num_shards)
    : kind_(kind), shard_of_(num_kernels), kernels_(num_shards) {
  if (num_kernels == 0) {
    throw TFluxError("ShardMap: num_kernels must be >= 1");
  }
  if (num_shards == 0 || num_shards > num_kernels) {
    throw TFluxError("ShardMap: num_shards must be in [1, num_kernels]");
  }
}

ShardMap ShardMap::interleaved(std::uint16_t num_kernels,
                               std::uint16_t num_shards) {
  ShardMap map(Kind::kInterleaved, num_kernels, num_shards);
  for (KernelId k = 0; k < num_kernels; ++k) {
    const std::uint16_t s = static_cast<std::uint16_t>(k % num_shards);
    map.shard_of_[k] = s;
    map.kernels_[s].push_back(k);
  }
  return map;
}

ShardMap ShardMap::resolve(std::uint16_t num_kernels,
                           std::uint16_t tsu_groups, std::uint16_t shards) {
  if (num_kernels == 0) {
    throw TFluxError("TSU ownership: num_kernels must be >= 1");
  }
  if (tsu_groups == 0 || tsu_groups > num_kernels) {
    throw TFluxError("TSU ownership: tsu_groups must be in [1, " +
                     std::to_string(num_kernels) + "], got " +
                     std::to_string(tsu_groups));
  }
  if (shards > num_kernels) {
    throw TFluxError("TSU ownership: shards must be <= " +
                     std::to_string(num_kernels) + ", got " +
                     std::to_string(shards));
  }
  return shards >= 1 ? clustered(num_kernels, shards)
                     : interleaved(num_kernels, tsu_groups);
}

ShardMap ShardMap::clustered(std::uint16_t num_kernels,
                             std::uint16_t num_shards) {
  ShardMap map(Kind::kClustered, num_kernels, num_shards);
  const std::uint16_t base = static_cast<std::uint16_t>(
      num_kernels / num_shards);
  const std::uint16_t rem = static_cast<std::uint16_t>(
      num_kernels % num_shards);
  KernelId next = 0;
  for (std::uint16_t s = 0; s < num_shards; ++s) {
    const std::uint16_t count =
        static_cast<std::uint16_t>(base + (s < rem ? 1 : 0));
    map.kernels_[s].reserve(count);
    for (std::uint16_t i = 0; i < count; ++i, ++next) {
      map.shard_of_[next] = s;
      map.kernels_[s].push_back(next);
    }
  }
  return map;
}

}  // namespace tflux::core
