#include "core/topology.h"

#include <string>

#include "core/error.h"

namespace tflux::core {

ShardMap::ShardMap(std::uint16_t num_kernels, std::uint16_t num_groups)
    : shard_of_(num_kernels), kernels_(num_groups) {
  if (num_kernels == 0) {
    throw TFluxError("TSU ownership: num_kernels must be >= 1");
  }
  if (num_groups == 0 || num_groups > num_kernels) {
    throw TFluxError("TSU ownership: tsu_groups must be in [1, " +
                     std::to_string(num_kernels) + "], got " +
                     std::to_string(num_groups));
  }
  const std::uint16_t base =
      static_cast<std::uint16_t>(num_kernels / num_groups);
  const std::uint16_t rem =
      static_cast<std::uint16_t>(num_kernels % num_groups);
  KernelId next = 0;
  for (std::uint16_t g = 0; g < num_groups; ++g) {
    const std::uint16_t count =
        static_cast<std::uint16_t>(base + (g < rem ? 1 : 0));
    kernels_[g].reserve(count);
    for (std::uint16_t i = 0; i < count; ++i, ++next) {
      shard_of_[next] = g;
      kernels_[g].push_back(next);
    }
  }
}

}  // namespace tflux::core
