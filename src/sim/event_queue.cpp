#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace tflux::sim {

void EventQueue::at(Cycles t, Callback cb) {
  assert(t >= now_ && "cannot schedule into the past");
  std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  }
  heap_.push_back(Key{t < now_ ? now_ : t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  // Take the callback out before running it: it may schedule events,
  // which can reuse this slot or grow the pool under it. Its captures
  // die with `cb` once it returns.
  Callback cb;
  cb.swap(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  now_ = key.t;
  ++executed_;
  cb();
  return true;
}

void EventQueue::run() {
  while (step()) {
  }
}

}  // namespace tflux::sim
