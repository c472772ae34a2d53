#include "runtime_tally.h"

#include <algorithm>

namespace tflux::bench {

void RuntimeTally::add(const runtime::RuntimeStats& st) {
  tub_.publishes += st.tub.publishes;
  tub_.entries_published += st.tub.entries_published;
  tub_.full_skips += st.tub.full_skips;
  emu_ += st.emulator;
  for (const runtime::KernelStats& k : st.kernels) {
    forwards_ += k.forwards;
    bytes_forwarded_ += k.bytes_forwarded;
    backlog_peak_ = std::max(backlog_peak_, k.mailbox_backlog_peak);
  }
}

void RuntimeTally::write(Metrics& m, std::uint64_t units) const {
  const double n = static_cast<double>(std::max<std::uint64_t>(units, 1));
  auto per_unit = [n](std::uint64_t v) { return static_cast<double>(v) / n; };
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  m["core.dataplane.forwards"] = per_unit(forwards_);
  m["core.dataplane.bytes_forwarded"] = per_unit(bytes_forwarded_);
  m["core.dataplane.affinity_hit_ratio"] =
      ratio(d(emu_.affinity_hits),
            d(emu_.affinity_hits + emu_.affinity_misses + emu_.affinity_cold));
  m["runtime.updates_processed"] = per_unit(emu_.updates_processed);
  m["runtime.range_updates"] = per_unit(emu_.range_updates_processed);
  m["runtime.coalesce_factor"] =
      ratio(d(emu_.range_members), d(emu_.range_updates_processed));
  m["runtime.tub.entries_per_publish"] =
      ratio(d(tub_.entries_published), d(tub_.publishes));
  m["runtime.tub.full_skip_ratio"] =
      ratio(d(tub_.full_skips), d(tub_.publishes));
  m["runtime.drain_sweeps_per_dispatch"] =
      ratio(d(emu_.drain_sweeps), d(emu_.dispatches));
  m["runtime.home_ratio"] = ratio(d(emu_.home_dispatches), d(emu_.dispatches));
  m["runtime.steals"] = per_unit(emu_.steal_dispatches);
  m["runtime.mailbox_backlog_peak"] = d(backlog_peak_);
  m["runtime.prefetch_hit_ratio"] =
      ratio(d(emu_.prefetch_hits), d(emu_.prefetch_hits + emu_.prefetch_misses));
  m["runtime.deferred_replays"] = per_unit(emu_.deferred_replays);
}

}  // namespace tflux::bench
