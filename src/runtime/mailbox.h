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
// In a one-kernel run the producer and the consumer are one thread
// (the kernel drives its own emulator), so nothing can ever drain a
// full ring while put() waits: a same-thread mailbox throws instead,
// never parks anyone, and is read with the non-blocking try_take().
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

#include "core/error.h"
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
  /// `same_thread`: put() and try_take() run on one thread (see above).
  Mailbox(bool lockfree, std::size_t capacity, bool same_thread = false)
      : lockfree_(lockfree),
        same_thread_(same_thread),
        ring_(lockfree ? capacity : 2) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Emulator side: deliver a ready DThread (or kInvalidThread as the
  /// exit sentinel).
  void put(core::ThreadId tid) {
    if (lockfree_) {
      while (!ring_.try_push(tid)) {
        if (same_thread_) {
          throw core::TFluxError(
              "Mailbox: ring full in a one-kernel run (its kernel cannot "
              "drain while its own emulator dispatches)");
        }
        // Ring full: the Kernel is busy executing. It drains without
        // ever waiting on us, so yielding here cannot deadlock.
        std::this_thread::yield();
      }
      count_.fetch_add(1, std::memory_order_relaxed);
      if (!same_thread_) parker_.notify();
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

  /// Kernel side, never waits: pop the next DThread id into `tid`, or
  /// return false when nothing is queued.
  bool try_take(core::ThreadId& tid) {
    if (lockfree_) {
      if (!ring_.try_pop(tid)) return false;
      count_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    std::lock_guard<std::mutex> lk(mutex_);
    if (items_.empty()) return false;
    tid = items_.front();
    items_.pop_front();
    count_.store(items_.size(), std::memory_order_relaxed);
    return true;
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
  const bool same_thread_;
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
