#include "machine/cache.h"

#include <bit>
#include <cassert>

#include "core/error.h"

namespace tflux::machine {

const char* to_string(Mesi state) {
  switch (state) {
    case Mesi::kInvalid:
      return "I";
    case Mesi::kShared:
      return "S";
    case Mesi::kExclusive:
      return "E";
    case Mesi::kModified:
      return "M";
  }
  return "?";
}

Cache::Cache(const CacheGeometry& geometry) : geometry_(geometry) {
  // Validate before any division: a zero line size or way count would
  // otherwise fault in the set-count computation.
  if (!std::has_single_bit(geometry_.line_bytes)) {
    throw core::TFluxError("Cache: line size must be a power of two");
  }
  if (geometry_.line_bytes <= kStateMask) {
    throw core::TFluxError("Cache: line size must be >= 4 bytes");
  }
  if (geometry_.ways == 0) {
    throw core::TFluxError("Cache: ways must be >= 1");
  }
  // 64-bit so a huge way count cannot wrap the divisor to zero.
  const std::uint64_t sets =
      geometry_.size_bytes /
      (std::uint64_t{geometry_.line_bytes} * geometry_.ways);
  if (sets == 0) {
    throw core::TFluxError("Cache: size/(line*ways) must be >= 1 set");
  }
  if (!std::has_single_bit(sets)) {
    throw core::TFluxError("Cache: set count must be a power of two");
  }
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(geometry_.line_bytes));
  set_mask_ = static_cast<std::uint32_t>(sets - 1);
  tags_.assign(sets * geometry_.ways, 0);
  lru_.assign(sets * geometry_.ways, 0);
}

std::size_t Cache::find(SimAddr line_addr) const {
  assert(line_of(line_addr) == line_addr && "unaligned line address");
  const std::size_t base = set_base(line_addr);
  for (std::size_t w = base; w < base + geometry_.ways; ++w) {
    if (holds(tags_[w], line_addr)) return w;
  }
  return npos;
}

Mesi Cache::peek(SimAddr line_addr) const {
  const std::size_t w = find(line_addr);
  return w == npos ? Mesi::kInvalid : state_of(tags_[w]);
}

Mesi Cache::lookup(SimAddr line_addr) {
  const std::size_t w = find(line_addr);
  if (w == npos) return Mesi::kInvalid;
  lru_[w] = ++lru_clock_;
  return state_of(tags_[w]);
}

void Cache::set_state(SimAddr line_addr, Mesi state) {
  const std::size_t w = find(line_addr);
  assert(w != npos && "set_state on non-resident line");
  assert(state != Mesi::kInvalid && "use invalidate()");
  tags_[w] = line_addr | static_cast<std::uint64_t>(state);
}

Mesi Cache::invalidate(SimAddr line_addr) {
  const std::size_t w = find(line_addr);
  if (w == npos) return Mesi::kInvalid;
  const Mesi prev = state_of(tags_[w]);
  tags_[w] = line_addr;  // state bits cleared: kInvalid
  return prev;
}

std::optional<Cache::Victim> Cache::insert(SimAddr line_addr, Mesi state) {
  assert(state != Mesi::kInvalid);
  const std::size_t w = find(line_addr);
  if (w == npos) return place(line_addr, state);
  tags_[w] = line_addr | static_cast<std::uint64_t>(state);
  lru_[w] = ++lru_clock_;
  return std::nullopt;
}

std::optional<Cache::Victim> Cache::fill(SimAddr line_addr, Mesi state) {
  assert(state != Mesi::kInvalid);
  return place(line_addr, state);
}

std::optional<Cache::Victim> Cache::place(SimAddr line_addr, Mesi state) {
  assert(line_of(line_addr) == line_addr && "insert of unaligned line");
  const std::size_t base = set_base(line_addr);
  std::size_t slot = base;
  for (std::size_t w = base; w < base + geometry_.ways; ++w) {
    // A full residency check would be a second scan, the cost fill()
    // exists to avoid; check the ways this scan visits.
    assert(!holds(tags_[w], line_addr) && "fill of a resident line");
    if (state_of(tags_[w]) == Mesi::kInvalid) {
      slot = w;
      break;
    }
    if (lru_[w] < lru_[slot]) slot = w;
  }
  std::optional<Victim> victim;
  const std::uint64_t old = tags_[slot];
  if (state_of(old) != Mesi::kInvalid) {
    victim = Victim{old & ~kStateMask, state_of(old)};
  }
  tags_[slot] = line_addr | static_cast<std::uint64_t>(state);
  lru_[slot] = ++lru_clock_;
  return victim;
}

std::size_t Cache::valid_lines() const {
  std::size_t n = 0;
  for (const std::uint64_t word : tags_) {
    if (state_of(word) != Mesi::kInvalid) ++n;
  }
  return n;
}

}  // namespace tflux::machine
