#include "runtime/tub.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "core/error.h"

namespace tflux::runtime {

Tub::Tub(std::uint32_t num_segments, std::uint32_t segment_capacity,
         bool same_thread)
    : segment_capacity_(segment_capacity),
      segments_(num_segments),
      same_thread_(same_thread) {
  if (num_segments == 0 || segment_capacity == 0) {
    throw core::TFluxError("Tub: segments and capacity must be >= 1");
  }
  for (Segment& s : segments_) {
    s.entries.reserve(segment_capacity_);
  }
}

void Tub::publish(std::span<const TubEntry> batch, std::uint32_t hint) {
  if (batch.empty()) return;
  if (batch.size() > segment_capacity_) {
    throw core::TFluxError("Tub::publish: batch exceeds segment capacity");
  }
  const std::uint32_t n = num_segments();
  std::uint32_t attempt = 0;
  for (;;) {
    const std::uint32_t idx = (hint + attempt) % n;
    Segment& seg = segments_[idx];
    if (seg.lock.test_and_set(std::memory_order_acquire)) {
      trylock_failures_.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (seg.entries.size() + batch.size() <= segment_capacity_) {
        const std::uint64_t seq =
            publish_seq_.fetch_add(batch.size(), std::memory_order_relaxed);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          seg.entries.emplace_back(seq + i, batch[i]);
        }
        seg.lock.clear(std::memory_order_release);
        publishes_.fetch_add(1, std::memory_order_relaxed);
        entries_published_.fetch_add(batch.size(),
                                     std::memory_order_relaxed);
        published_count_.fetch_add(batch.size(), std::memory_order_release);
        if (!same_thread_) {
          // Wake the emulator if it is parked.
          { std::lock_guard<std::mutex> lk(wait_mutex_); }
          wait_cv_.notify_one();
        }
        return;
      }
      seg.lock.clear(std::memory_order_release);
      full_skips_.fetch_add(1, std::memory_order_relaxed);
    }
    ++attempt;
    if (attempt % n == 0) {
      if (same_thread_) {
        throw core::TFluxError(
            "Tub::publish: every segment full in a one-kernel run (its "
            "emulator drains only between DThreads)");
      }
      // All segments busy/full: emulator is behind. Yield so it can
      // drain (essential on machines with fewer cores than kernels).
      std::this_thread::yield();
    }
  }
}

std::size_t Tub::drain(std::vector<TubEntry>& out) {
  drains_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::pair<std::uint64_t, TubEntry>> staged;
  for (Segment& seg : segments_) {
    // The emulator must not skip a segment a kernel holds mid-publish;
    // spin briefly for the lock (publish critical sections are tiny).
    while (seg.lock.test_and_set(std::memory_order_acquire)) {
    }
    staged.insert(staged.end(), seg.entries.begin(), seg.entries.end());
    seg.entries.clear();
    seg.lock.clear(std::memory_order_release);
  }
  // Restore global publish order across segments.
  std::sort(staged.begin(), staged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.reserve(out.size() + staged.size());
  for (const auto& [seq, entry] : staged) {
    (void)seq;
    out.push_back(entry);
  }
  drained_count_.fetch_add(staged.size(), std::memory_order_release);
  return staged.size();
}

void Tub::wait_nonempty() {
  if (published_count_.load(std::memory_order_acquire) !=
      drained_count_.load(std::memory_order_acquire)) {
    return;
  }
  std::unique_lock<std::mutex> lk(wait_mutex_);
  wait_cv_.wait_for(lk, std::chrono::milliseconds(1), [this] {
    return shutdown_.load(std::memory_order_acquire) ||
           published_count_.load(std::memory_order_acquire) !=
               drained_count_.load(std::memory_order_acquire);
  });
}

void Tub::shutdown_wake() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(wait_mutex_);
  }
  wait_cv_.notify_all();
}

TubStats Tub::stats() const {
  TubStats s;
  s.publishes = publishes_.load(std::memory_order_relaxed);
  s.entries_published = entries_published_.load(std::memory_order_relaxed);
  s.trylock_failures = trylock_failures_.load(std::memory_order_relaxed);
  s.full_skips = full_skips_.load(std::memory_order_relaxed);
  s.drains = drains_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace tflux::runtime
