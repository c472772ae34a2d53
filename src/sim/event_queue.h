// Minimal deterministic discrete-event engine used by the machine
// simulators (TFluxHard / TFluxSoft-sim / TFluxCell). Events at equal
// timestamps run in scheduling order (FIFO), making every simulation
// bit-reproducible.
//
// The binary heap holds only small (time, sequence, slot) keys; each
// callback sits in a slot of a reusable pool, so heap sifts never move
// a std::function.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/types.h"

namespace tflux::sim {

using core::Cycles;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedule `cb` at absolute time `t` (must be >= now()).
  void at(Cycles t, Callback cb);

  /// Schedule `cb` `dt` cycles from now.
  void in(Cycles dt, Callback cb) { at(now_ + dt, std::move(cb)); }

  /// Pop and run the earliest event. Returns false when empty.
  bool step();

  /// Run until no events remain.
  void run();

  Cycles now() const { return now_; }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  struct Key {
    Cycles t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// The std heap algorithms keep the greatest element on top; ordering
  /// by "later" puts the earliest (time, sequence) there.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  std::vector<Key> heap_;
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
  Cycles now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace tflux::sim
