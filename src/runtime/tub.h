// The Thread-to-Update Buffer (TUB): the shared unit through which
// Kernels publish TSU commands (consumer Ready Count updates, block
// load/unload events) to the TSU Emulator.
//
// Two implementations share the TubQueue interface:
//  - Tub (this header): the paper-faithful segmented try-lock buffer
//    (section 4.2) - Kernels grab "the first available segment" and
//    entries carry a global publish sequence so drains can restore
//    publish order. Kept as the RunOptions::lockfree=false
//    ablation baseline.
//  - LaneTub (lane_tub.h): per-kernel SPSC lanes - the lock-free hot
//    path (no try-lock scan, no global sequence atomic).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "core/types.h"
#include "runtime/spsc_ring.h"

namespace tflux::runtime {

/// One command published by a Kernel's Local TSU to the TSU Emulator.
struct TubEntry {
  enum class Kind : std::uint8_t {
    kUpdate,       ///< decrement Ready Count of consumer `id`
    kRangeUpdate,  ///< decrement Ready Count of every consumer in
                   ///< [id, hi] inclusive - the paper's "multiple
                   ///< update" message covering a run of consecutive
                   ///< consumer instances (same DDM Block by
                   ///< construction; each group applies only the
                   ///< members it owns)
    kLoadBlock,    ///< an Inlet finished: load block `id` into the TSU
    kOutletDone,   ///< an Outlet finished: unload block `id`, chain on
    kStealGrant,   ///< hierarchical steal: the home shard's emulator
                   ///< hands ready DThread `id` to this shard, which
                   ///< dispatches it to its shallowest local mailbox
                   ///< (published on the delegating emulator's
                   ///< dedicated lane, never a kernel's)
    kShutdown,     ///< program finished: the emulator must exit
  };
  Kind kind = Kind::kUpdate;
  std::uint32_t id = 0;  ///< consumer ThreadId or BlockId (range: lo)
  std::uint32_t hi = 0;  ///< range end (kRangeUpdate only), inclusive

  friend bool operator==(const TubEntry&, const TubEntry&) = default;
};

/// Contention/occupancy statistics of the TUB (snapshot; the live
/// counters are per-producer and cache-line padded internally).
struct TubStats {
  std::uint64_t publishes = 0;          ///< successful batch publishes
  std::uint64_t entries_published = 0;  ///< total entries written
  std::uint64_t trylock_failures = 0;   ///< segment skipped: lock held
  std::uint64_t full_skips = 0;         ///< segment/lane skipped or
                                        ///< stalled: no space
  std::uint64_t drains = 0;             ///< emulator drain sweeps

  /// Zero every counter - the per-run stats epoch boundary (see
  /// runtime/kernel.h KernelStats::reset).
  void reset() { *this = TubStats{}; }
};

/// The Kernel<->Emulator command-queue contract both TUB flavors
/// implement. Publishes happen once per completed DThread (batched),
/// drains once per emulator sweep, so the virtual dispatch is far off
/// the per-entry hot path.
class TubQueue {
 public:
  virtual ~TubQueue() = default;

  /// Kernel side: publish a batch atomically. `hint` identifies the
  /// publishing kernel (segment start hint / lane id). The batch must
  /// fit in max_batch().
  virtual void publish(std::span<const TubEntry> batch,
                       std::uint32_t hint) = 0;

  /// Emulator side: move all currently published entries into `out`
  /// (appended), preserving per-producer publish order (see each
  /// implementation for the cross-producer merge rule). Returns the
  /// number drained.
  virtual std::size_t drain(std::vector<TubEntry>& out) = 0;

  /// Emulator side: wait until entries are (probably) available or
  /// shutdown_wake was called. Returns immediately if entries exist.
  virtual void wait_nonempty() = 0;

  /// Wake any waiter (used at shutdown).
  virtual void shutdown_wake() = 0;

  /// Largest batch a single publish may carry.
  virtual std::size_t max_batch() const = 0;

  /// Snapshot of the counters (approximate under concurrency).
  virtual TubStats stats() const = 0;
};

/// The paper's segmented try-lock TUB (ablation baseline).
class Tub final : public TubQueue {
 public:
  /// `num_segments` independent try-lock segments, each able to hold
  /// `segment_capacity` entries between emulator drains.
  /// `same_thread`: as for LaneTub - publishers and the draining
  /// emulator are one thread, so finding every segment full throws.
  Tub(std::uint32_t num_segments, std::uint32_t segment_capacity,
      bool same_thread = false);

  Tub(const Tub&) = delete;
  Tub& operator=(const Tub&) = delete;

  /// Kernel side: publish a batch atomically into one segment. Scans
  /// segments starting at `hint` (use the kernel id), try-locking each;
  /// spins across segments until one with space is acquired. The batch
  /// must fit in one segment (batch.size() <= segment_capacity).
  void publish(std::span<const TubEntry> batch, std::uint32_t hint) override;

  /// Emulator side: move all currently published entries into `out`
  /// (appended), in global publish order - entries are sequence-
  /// stamped at publish so an entry can never overtake an earlier one
  /// merely because it landed in a lower-numbered segment (that
  /// ordering matters once block loads and updates travel through the
  /// same TUB from different kernels). Returns the number drained.
  std::size_t drain(std::vector<TubEntry>& out) override;

  /// Emulator side: sleep until entries are (probably) available or
  /// `stop` becomes visible. Returns immediately if entries exist.
  void wait_nonempty() override;

  /// Wake any waiter (used at shutdown).
  void shutdown_wake() override;

  std::uint32_t num_segments() const {
    return static_cast<std::uint32_t>(segments_.size());
  }
  std::uint32_t segment_capacity() const { return segment_capacity_; }
  std::size_t max_batch() const override { return segment_capacity_; }

  TubStats stats() const override;

 private:
  struct Segment {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    /// (publish sequence, entry); size bounded by segment_capacity.
    std::vector<std::pair<std::uint64_t, TubEntry>> entries;
  };

  std::uint32_t segment_capacity_;
  std::vector<Segment> segments_;
  const bool same_thread_;

  // Each cross-thread-contended atomic gets its own cache line so a
  // kernel bumping a stat cannot false-share with the emulator's
  // progress checks (or with another kernel's stat).
  alignas(kCacheLine) std::atomic<std::uint64_t> published_count_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> drained_count_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> publish_seq_{0};

  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;
  std::atomic<bool> shutdown_{false};

  alignas(kCacheLine) std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> entries_published_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> trylock_failures_{0};
  std::atomic<std::uint64_t> full_skips_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> drains_{0};
};

}  // namespace tflux::runtime
