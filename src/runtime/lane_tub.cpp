#include "runtime/lane_tub.h"

#include <thread>

#include "core/error.h"

namespace tflux::runtime {

LaneTub::LaneTub(std::uint32_t num_lanes, std::uint32_t lane_capacity,
                 bool same_thread)
    : same_thread_(same_thread) {
  if (num_lanes == 0 || lane_capacity == 0) {
    throw core::TFluxError("LaneTub: lanes and capacity must be >= 1");
  }
  for (std::uint32_t i = 0; i < num_lanes; ++i) {
    lanes_.emplace_back(lane_capacity);
  }
}

void LaneTub::publish(std::span<const TubEntry> batch, std::uint32_t hint) {
  if (batch.empty()) return;
  if (batch.size() > max_batch()) {
    throw core::TFluxError("LaneTub::publish: batch exceeds lane capacity");
  }
  Lane& lane = lanes_[hint % lanes_.size()];
  const TubEntry* data = batch.data();
  std::size_t remaining = batch.size();
  bool stalled = false;
  while (remaining != 0) {
    const std::size_t pushed = lane.ring.try_push_n(data, remaining);
    data += pushed;
    remaining -= pushed;
    if (remaining != 0) {
      if (same_thread_) {
        throw core::TFluxError(
            "LaneTub::publish: lane full in a one-kernel run (its "
            "emulator drains only between DThreads)");
      }
      // Lane full: the emulator is behind; yield so it can drain
      // (essential on hosts with fewer cores than runtime threads).
      if (!stalled) {
        stalled = true;
        lane.full_stalls.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  }
  lane.publishes.fetch_add(1, std::memory_order_relaxed);
  lane.entries_published.fetch_add(batch.size(), std::memory_order_relaxed);
  if (!same_thread_) parker_.notify();
}

std::size_t LaneTub::drain(std::vector<TubEntry>& out) {
  drains_.fetch_add(1, std::memory_order_relaxed);
  std::size_t drained = 0;
  for (Lane& lane : lanes_) {
    drained += lane.ring.pop_all(out);
  }
  return drained;
}

void LaneTub::wait_nonempty() {
  parker_.wait([this] { return any_lane_nonempty(); },
               [this] { return shutdown_.load(std::memory_order_acquire); });
}

void LaneTub::shutdown_wake() {
  shutdown_.store(true, std::memory_order_release);
  parker_.notify_always();
}

TubStats LaneTub::stats() const {
  TubStats s;
  for (const Lane& lane : lanes_) {
    s.publishes += lane.publishes.load(std::memory_order_relaxed);
    s.entries_published +=
        lane.entries_published.load(std::memory_order_relaxed);
    s.full_skips += lane.full_stalls.load(std::memory_order_relaxed);
  }
  s.drains = drains_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace tflux::runtime
