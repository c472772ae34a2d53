// LaneTub: the lock-free Thread-to-Update Buffer - one SPSC lane per
// Kernel instead of the paper's segmented try-lock buffer.
//
// Each Kernel owns exactly one lane (an SpscRing<TubEntry>), so a
// publish is a plain ring append: no try-lock scan, no contention
// mode, and no global sequence-stamp atomic shared by every producer.
//
// Ordering rule (what replaced the old `publish_seq_`): the drain
// concatenates lanes in lane-index order, each lane in FIFO order.
// That preserves *per-producer* publish order exactly - and
// per-producer order is the only order the runtime relies on:
//  - a kernel that publishes LoadBlock(b) and later updates for
//    block b's threads stays ordered because both sit in its lane;
//  - across kernels, every inter-entry dependency is mediated by the
//    emulator itself (a kernel can only produce an update for a
//    dispatched DThread, and dispatch happens only after the emulator
//    drained and processed the entries that made it ready), so by the
//    time a causally-later entry is published, the earlier one has
//    already left the TUB;
//  - the one genuine race - with multiple TSU Groups a fast group's
//    update can reach a slow group before that group drained its own
//    LoadBlock - is (and was) handled by the emulator's deferred-
//    update replay, not by TUB ordering.
//
// The emulator side waits with an adaptive spin-before-sleep loop
// (runtime/parking.h) instead of immediately hitting a condvar, and
// producers only touch the wait mutex when the consumer has actually
// parked.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "runtime/parking.h"
#include "runtime/spsc_ring.h"
#include "runtime/tub.h"

namespace tflux::runtime {

class LaneTub final : public TubQueue {
 public:
  /// One lane per producing kernel; each lane holds `lane_capacity`
  /// entries (rounded up to a power of two) between emulator drains.
  /// `same_thread`: the publishers and the draining emulator are one
  /// thread (a one-kernel run), so a full lane throws instead of
  /// waiting for a drain that cannot come, and no one ever parks.
  LaneTub(std::uint32_t num_lanes, std::uint32_t lane_capacity,
          bool same_thread = false);

  LaneTub(const LaneTub&) = delete;
  LaneTub& operator=(const LaneTub&) = delete;

  /// Kernel side: append the batch to lane `hint % num_lanes`. The
  /// batch must fit in max_batch(); when the lane is momentarily full
  /// the publisher spin-yields until the emulator drains (counted in
  /// stats().full_skips; a same-thread TUB throws core::TFluxError
  /// instead). Wait-free whenever the lane has space.
  void publish(std::span<const TubEntry> batch, std::uint32_t hint) override;

  /// Emulator side: pop every lane in lane order (per-producer FIFO;
  /// see the ordering rule above). Returns the number drained.
  std::size_t drain(std::vector<TubEntry>& out) override;

  /// Emulator side: adaptive spin-then-park until any lane is
  /// non-empty or shutdown_wake was called.
  void wait_nonempty() override;

  void shutdown_wake() override;

  std::uint32_t num_lanes() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }
  std::size_t lane_capacity() const { return lanes_.front().ring.capacity(); }
  std::size_t max_batch() const override { return lane_capacity(); }

  TubStats stats() const override;

 private:
  struct Lane {
    explicit Lane(std::size_t capacity) : ring(capacity) {}
    SpscRing<TubEntry> ring;
    // Producer-owned counters, padded so two kernels' stat bumps (and
    // the ring cursors of the next lane) never share a cache line.
    alignas(kCacheLine) std::atomic<std::uint64_t> publishes{0};
    std::atomic<std::uint64_t> entries_published{0};
    std::atomic<std::uint64_t> full_stalls{0};
    char pad[kCacheLine];
  };

  bool any_lane_nonempty() const {
    for (const Lane& lane : lanes_) {
      if (!lane.ring.probably_empty()) return true;
    }
    return false;
  }

  std::deque<Lane> lanes_;  // deque: Lane is pinned, non-movable
  const bool same_thread_;
  Parker parker_;
  std::atomic<bool> shutdown_{false};
  alignas(kCacheLine) std::atomic<std::uint64_t> drains_{0};
};

}  // namespace tflux::runtime
