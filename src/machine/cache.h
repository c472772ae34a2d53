// One set-associative cache level with per-line MESI state and LRU
// replacement. Used for both the private L1s and private L2s of the
// simulated multicores. Timing lives in MemorySystem; this class is
// pure state.
//
// Layout: each way is one 64-bit word holding the line address with
// the MESI state in its low 2 bits (line_bytes >= 4 keeps those bits
// free), so a set scan reads 8 bytes per way. A parallel array holds
// each way's last-use stamp from one per-cache clock; the victim is the
// set's first invalid way, else its least recently used one. The set
// index is a shift and a mask, so the set count must be a power of two.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/types.h"
#include "machine/config.h"

namespace tflux::machine {

using core::SimAddr;

enum class Mesi : std::uint8_t { kInvalid, kShared, kExclusive, kModified };

const char* to_string(Mesi state);

class Cache {
 public:
  /// Throws core::TFluxError unless line_bytes is a power of two >= 4,
  /// ways >= 1 and size/(line*ways) is a power-of-two set count.
  explicit Cache(const CacheGeometry& geometry);

  std::uint32_t line_bytes() const { return geometry_.line_bytes; }

  /// Align `addr` down to this cache's line granularity.
  SimAddr line_of(SimAddr addr) const {
    return addr & ~static_cast<SimAddr>(geometry_.line_bytes - 1);
  }

  /// State of `line_addr` (kInvalid if absent). Does not touch LRU.
  Mesi peek(SimAddr line_addr) const;

  /// Lookup with LRU update. Returns kInvalid on miss.
  Mesi lookup(SimAddr line_addr);

  /// Change the state of a resident line (must be resident).
  void set_state(SimAddr line_addr, Mesi state);

  /// Remove the line if resident. Returns its previous state.
  Mesi invalidate(SimAddr line_addr);

  /// Insert (or overwrite) a line in `state`, evicting the set's LRU
  /// victim if needed. Returns the victim's (line_addr, state) when a
  /// valid line was displaced.
  struct Victim {
    SimAddr line_addr = 0;
    Mesi state = Mesi::kInvalid;
  };
  std::optional<Victim> insert(SimAddr line_addr, Mesi state);

  /// insert() for a line the caller knows is absent (it just missed in
  /// lookup/peek with no insert since): skips the residency scan.
  std::optional<Victim> fill(SimAddr line_addr, Mesi state);

  std::uint32_t num_sets() const { return set_mask_ + 1; }
  std::uint32_t ways() const { return geometry_.ways; }

  /// Number of currently valid lines (for tests).
  std::size_t valid_lines() const;

 private:
  static constexpr std::uint64_t kStateMask = 3;

  static Mesi state_of(std::uint64_t word) {
    return static_cast<Mesi>(word & kStateMask);
  }
  /// A valid way holding `line_addr`: the word differs from the bare
  /// address only in a nonzero state.
  static bool holds(std::uint64_t word, SimAddr line_addr) {
    return (word ^ line_addr) - 1 < kStateMask;
  }

  /// First way of `line_addr`'s set.
  std::size_t set_base(SimAddr line_addr) const {
    return static_cast<std::size_t>((line_addr >> line_shift_) & set_mask_) *
           geometry_.ways;
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Way index holding `line_addr`, or npos.
  std::size_t find(SimAddr line_addr) const;
  /// Place `line_addr` in its set's victim way.
  std::optional<Victim> place(SimAddr line_addr, Mesi state);

  CacheGeometry geometry_;
  std::uint32_t line_shift_ = 0;
  std::uint32_t set_mask_ = 0;
  std::vector<std::uint64_t> tags_;  // num_sets * ways, row-major by set
  std::vector<std::uint64_t> lru_;   // last-use stamp; higher == more recent
  std::uint64_t lru_clock_ = 0;
};

}  // namespace tflux::machine
