// Per-Kernel reply channel: the TSU Emulator answers a Kernel's "find
// a ready DThread" query by dropping the DThread id here. Single
// producer (the owning emulator), single consumer (the owning Kernel).
//
// Two selectable implementations (RunOptions::lockfree):
//  - lock-free (default): a fixed-capacity SPSC ring with
//    spin-then-park waiting on the Kernel side. The Runtime sizes the
//    ring to the largest DDM Block, so the emulator's put() never
//    blocks in practice; if a ring ever is full, put() spin-yields
//    until the Kernel catches up.
//  - mutex (paper-faithful ablation baseline): mutex + condvar deque.
//
// Both modes keep a relaxed atomic occupancy counter so the
// emulator's routing heuristic (probably_empty) never touches the
// mutex or the ring cursors' contended lines on its fast path.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "core/types.h"
#include "runtime/parking.h"
#include "runtime/spsc_ring.h"

namespace tflux::runtime {

class Mailbox {
 public:
  /// Paper-faithful mutex mailbox (ablation baseline).
  Mailbox() : Mailbox(false, kDefaultCapacity) {}
  /// `capacity` is only meaningful in lock-free mode: it must cover
  /// the peak number of undelivered dispatches (the Runtime uses the
  /// largest block's thread count; overflow degrades to spinning, not
  /// to loss).
  Mailbox(bool lockfree, std::size_t capacity)
      : lockfree_(lockfree), ring_(lockfree ? capacity : 2) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Emulator side: deliver a ready DThread (or kInvalidThread as the
  /// exit sentinel).
  void put(core::ThreadId tid) {
    if (lockfree_) {
      while (!ring_.try_push(tid)) {
        // Ring full: the Kernel is busy executing. It drains without
        // ever waiting on us, so yielding here cannot deadlock.
        std::this_thread::yield();
      }
      count_.fetch_add(1, std::memory_order_relaxed);
      parker_.notify();
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mutex_);
      items_.push_back(tid);
      count_.store(items_.size(), std::memory_order_relaxed);
    }
    cv_.notify_one();
  }

  /// Kernel side: block until a DThread id arrives.
  core::ThreadId take() {
    if (lockfree_) {
      core::ThreadId tid = core::kInvalidThread;
      parker_.wait([&] { return ring_.try_pop(tid); },
                   [] { return false; });
      count_.fetch_sub(1, std::memory_order_relaxed);
      return tid;
    }
    std::unique_lock<std::mutex> lk(mutex_);
    cv_.wait(lk, [this] { return !items_.empty(); });
    const core::ThreadId tid = items_.front();
    items_.pop_front();
    count_.store(items_.size(), std::memory_order_relaxed);
    return tid;
  }

  /// Approximate emptiness (routing heuristic for the emulator only):
  /// one relaxed load, regardless of mode.
  bool probably_empty() const {
    return count_.load(std::memory_order_relaxed) == 0;
  }

  /// Approximate occupancy (stats/heuristics only).
  std::size_t size() const {
    return count_.load(std::memory_order_relaxed);
  }

  bool lockfree() const { return lockfree_; }

 private:
  static constexpr std::size_t kDefaultCapacity = 1024;

  const bool lockfree_;
  std::atomic<std::size_t> count_{0};

  // Lock-free mode.
  SpscRing<core::ThreadId> ring_;
  Parker parker_;

  // Mutex mode.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<core::ThreadId> items_;
};

}  // namespace tflux::runtime
