// Sums of the native runtime's public stats (RuntimeStats: kernels,
// TUB, emulators) over a measured phase, turned into the runtime and
// data-plane per-layer metrics.
#pragma once

#include <cstdint>

#include "runtime/runtime.h"
#include "workload.h"

namespace tflux::bench {

class RuntimeTally {
 public:
  void add(const runtime::RuntimeStats& st);

  /// Per-layer metrics; counts are per unit over `units` units.
  void write(Metrics& metrics, std::uint64_t units) const;

 private:
  runtime::TubStats tub_;
  runtime::EmulatorStats emu_;
  std::uint64_t forwards_ = 0;
  std::uint64_t bytes_forwarded_ = 0;
  std::uint64_t backlog_peak_ = 0;
};

}  // namespace tflux::bench
