// SharedVariableBuffer data plane: the managed view of DThread
// footprints. The paper's Cell port moves DThread data explicitly (DMA
// into Local Stores); commodity TFluxSoft leans on implicit shared
// memory, which hides *where* each shared variable is warm. The
// DataPlane recovers that information:
//
//   - statically, it intersects every producer's write ranges with
//     every consumer's read ranges (over both same-block and
//     cross-block arcs) to learn how many bytes each arc carries, and
//     groups each producer's consumers into *forward runs* - the PR 5
//     coalesced [lo, hi] range runs reused as bulk-forwarding batch
//     boundaries, one forward per run instead of one per consumer;
//   - dynamically, it records which kernel executed each producer
//     (the owner of that producer's written ranges) so dispatch can
//     score a consumer's warm bytes per kernel and place it where the
//     largest share of its input is already resident.
//
// Zero-byte footprint ranges (PR 1 keeps them, warn-only) are skipped
// here explicitly: a forward run whose payload is empty is dropped at
// build time, so bulk forwarding never issues a zero-length copy.
//
// The same DataPlane instance serves three masters that must agree:
// the native runtime's emulator/kernels (live stats), the simulated
// machine's TsuState (affinity policy), and check_trace's offline
// replay (reconciling the runtime's counters against an independent
// re-derivation from the trace).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/program.h"
#include "core/topology.h"
#include "core/types.h"

namespace tflux::core {

/// Bytes of `consumer`'s read set produced by `producer`'s write set
/// (intersection over all range pairs; zero-byte ranges contribute 0).
std::uint64_t footprint_overlap_bytes(const Footprint& producer,
                                      const Footprint& consumer);

/// One bulk forward a completing producer performs: its written bytes
/// pushed toward the consumers in [lo, hi] as a single batch.
struct ForwardRun {
  ThreadId lo = kInvalidThread;
  ThreadId hi = kInvalidThread;
  /// Payload: total producer-write / consumer-read overlap across the
  /// run's members. Always > 0 (empty runs are dropped at build time).
  std::uint64_t bytes = 0;

  std::uint32_t size() const { return hi - lo + 1; }
  friend bool operator==(const ForwardRun&, const ForwardRun&) = default;
};

/// One producer's contribution to a consumer's input working set.
struct Contribution {
  ThreadId producer = kInvalidThread;
  std::uint64_t bytes = 0;

  friend bool operator==(const Contribution&, const Contribution&) = default;
};

/// A static per-thread table in compressed sparse rows: row r's entries
/// are entries[offsets[r], offsets[r + 1]). Two flat arrays instead of
/// one heap block per row.
template <typename T>
struct CsrTable {
  std::vector<std::uint32_t> offsets;  ///< rows + 1 entries
  std::vector<T> entries;

  std::span<const T> row(std::size_t r) const {
    return {entries.data() + offsets[r], entries.data() + offsets[r + 1]};
  }
};

/// Affinity score of a consumer against the current execution record.
struct AffinityScore {
  /// Kernel holding the largest share of the consumer's input bytes;
  /// kInvalidKernel when no producer has executed yet (cold).
  KernelId best = kInvalidKernel;
  std::uint64_t best_bytes = 0;   ///< warm bytes on `best`
  std::uint64_t total_bytes = 0;  ///< warm bytes across all kernels
};

class DataPlane {
 public:
  /// `shards` (optional) maps kernels to topology shards for the
  /// cross_shard_bytes accounting; it must outlive the DataPlane.
  DataPlane(const Program& program, const ShardMap* shards = nullptr);

  // -- static tables ---------------------------------------------------

  /// Producers feeding `consumer` (same-block and cross-block arcs),
  /// with per-arc payload bytes. Arcs whose footprints do not overlap
  /// (or overlap only through zero-byte ranges) are omitted.
  std::span<const Contribution> contributions(ThreadId consumer) const {
    return contributions_.row(consumer);
  }

  /// Bulk forwards `producer` performs on completion: one per
  /// coalesced [lo, hi] consumer run. Zero-payload runs are already
  /// gone.
  std::span<const ForwardRun> forward_runs(ThreadId producer) const {
    return forwards_.row(producer);
  }

  // -- dynamic execution record ---------------------------------------

  /// Record that `kernel` executed `tid` (and therefore owns its
  /// written ranges). Relaxed atomics: the runtime's existing TUB
  /// release/acquire handoffs and block barriers order a producer's
  /// record before any consumer scoring that could observe it. Const:
  /// the execution record is the DataPlane's mutable plane, shared by
  /// every kernel/emulator holding a const view of the static tables.
  void record_execution(ThreadId tid, KernelId kernel) const {
    exec_kernel_[tid].store(kernel, std::memory_order_relaxed);
  }

  /// Kernel recorded for `tid`, or kInvalidKernel if not yet executed.
  KernelId exec_kernel(ThreadId tid) const {
    return exec_kernel_[tid].load(std::memory_order_relaxed);
  }

  /// Score `consumer`'s warm bytes per kernel. Deterministic: ties go
  /// to the lowest kernel id. Thread-safe (thread-local scratch): each
  /// emulator thread scores and accounts its own dispatches.
  AffinityScore score(ThreadId consumer) const;

  /// Account one dispatch of `consumer` onto `target`:
  ///   cold          - no producer bytes warm anywhere (score total 0)
  ///   affinity hit  - target holds the maximal warm share (ties hit)
  ///   affinity miss - some other kernel holds more warm bytes
  /// cross_shard_bytes accumulates the warm bytes living on shards
  /// other than target's (0 without a ShardMap).
  struct DispatchAccount {
    bool hit = false;
    bool cold = false;
    std::uint64_t cross_shard_bytes = 0;
  };
  DispatchAccount account_dispatch(ThreadId consumer, KernelId target) const;

  const Program& program() const { return program_; }
  const ShardMap* shards() const { return shards_; }

 private:
  const Program& program_;
  const ShardMap* shards_;
  CsrTable<Contribution> contributions_;  ///< row = consumer
  CsrTable<ForwardRun> forwards_;         ///< row = producer
  std::unique_ptr<std::atomic<KernelId>[]> exec_kernel_;
};

}  // namespace tflux::core
