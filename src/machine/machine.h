// The simulated TFlux multicore (TFluxHard, and - with soft-TSU
// timing constants - the simulated TFluxSoft of Figure 6).
//
// Discrete-event model:
//  - Each worker Kernel occupies one core. DThread execution replays
//    the thread's Footprint through the MESI memory hierarchy in
//    quantum-sized segments so concurrent threads interleave on the
//    shared bus.
//  - The TSU Group is a single serial device (one extra "connection to
//    the System Network", as the paper argues for): every operation -
//    a Ready Count update, a block-metadata load, a fetch - occupies
//    the TSU port for `tsu.op_cycles`, and each Kernel<->TSU exchange
//    pays `tsu.access_latency` (the MMI penalty).
//  - Kernels that fetch when nothing is ready park inside the TSU (the
//    paper: "the TSU will force the CPU to wait") and are woken by
//    dispatch when a DThread becomes ready.
//
// DThread bodies are also *invoked* (at completion time), so a machine
// run produces the program's real results - simulated and native
// executions are cross-checked in the tests.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/dataplane.h"
#include "core/program.h"
#include "core/topology.h"
#include "core/tsu_state.h"
#include "machine/config.h"
#include "machine/memory_system.h"
#include "sim/event_queue.h"
#include "sim/histogram.h"
#include "sim/resource.h"
#include "sim/trace.h"

namespace tflux::machine {

struct MachineStats {
  Cycles total_cycles = 0;
  std::vector<Cycles> kernel_busy;  ///< per-kernel execution cycles
  std::uint64_t threads_executed = 0;  ///< app threads
  std::uint64_t parks = 0;  ///< fetches that found nothing ready
  MemoryStats mem;
  Cycles tsu_busy_cycles = 0;  ///< summed over all TSU Groups
  Cycles tsu_wait_cycles = 0;
  std::uint64_t tsu_grants = 0;
  /// Per-TSU-Group port occupancy (one entry per group of the map).
  std::vector<Cycles> tsu_group_busy;
  /// Ready Count updates that crossed a TSU-to-TSU link.
  std::uint64_t tsu_intergroup_updates = 0;
  /// Distribution of application-DThread execution times.
  sim::Histogram thread_cycles;
  core::TsuCounters tsu;

  double kernel_utilization() const {
    if (kernel_busy.empty() || total_cycles == 0) return 0.0;
    Cycles busy = 0;
    for (Cycles c : kernel_busy) busy += c;
    return static_cast<double>(busy) /
           (static_cast<double>(total_cycles) * kernel_busy.size());
  }
};

class Machine {
 public:
  /// `invoke_bodies`: run each DThread's functional body at its
  /// simulated completion (set false for timing-only sweeps).
  Machine(const MachineConfig& config, const core::Program& program,
          bool invoke_bodies = true);

  /// Simulate the program to completion. Call once.
  MachineStats run();

  /// Record an execution trace (DThread spans per kernel lane, TSU
  /// activity on the lanes above). The Trace must outlive run().
  void attach_trace(sim::Trace* trace) { trace_ = trace; }

 private:
  struct ExecCursor {
    core::ThreadId tid = core::kInvalidThread;
    std::size_t range_idx = 0;
    SimAddr next_addr = 0;       // next un-accessed byte of the range
    std::uint64_t lines_left = 0;
    Cycles compute_left = 0;
    Cycles compute_per_line = 0;
    Cycles started_at = 0;
  };

  void kernel_request(core::KernelId k);
  void dispatch(core::KernelId k, core::ThreadId tid);
  void exec_segment(core::KernelId k);
  void complete_thread(core::KernelId k);
  void dispatch_parked();
  std::uint64_t count_lines(const core::Footprint& fp) const;
  std::uint64_t tsu_ops_for(const core::DThread& t) const;

  MachineConfig config_;
  const core::Program& program_;
  bool invoke_bodies_;
  /// TSU-group ownership: tsu.num_groups clustered groups.
  const core::ShardMap map_;

  sim::EventQueue eq_;
  std::unique_ptr<MemorySystem> mem_;
  /// Managed data plane (config.dataplane); must outlive tsu_.
  std::unique_ptr<core::DataPlane> dataplane_;
  std::unique_ptr<core::TsuState> tsu_;
  std::vector<sim::SerialResource> tsu_ports_;  // one per TSU Group
  std::deque<core::KernelId> parked_;
  std::vector<ExecCursor> running_;  // per kernel
  /// complete_thread's per-group operation counts, reused per DThread.
  std::vector<std::uint64_t> ops_per_group_;
  MachineStats stats_;
  sim::Trace* trace_ = nullptr;
  Cycles end_time_ = 0;
  bool ran_ = false;
};

/// Cycles the *original sequential program* takes on one core of this
/// machine with no TFlux overheads: the paper's speedup baseline
/// ("the baseline program is the original sequential one, i.e. without
/// any TFlux overheads"). `plan` is the sequential program's footprint
/// sequence (each app provides its own; it is NOT in general the sum
/// of the DDM threads - e.g. QSORT's parallel merge phases do not
/// exist in the sequential program).
Cycles simulate_sequential(const MachineConfig& config,
                           const std::vector<core::Footprint>& plan);

}  // namespace tflux::machine
