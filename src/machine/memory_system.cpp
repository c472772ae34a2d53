#include "machine/memory_system.h"

#include <cassert>

#include "core/error.h"

namespace tflux::machine {

MemorySystem::MemorySystem(const MachineConfig& config,
                           std::uint16_t num_cores)
    : config_(config) {
  if (num_cores == 0) {
    throw core::TFluxError("MemorySystem: num_cores must be >= 1");
  }
  if (config_.l2.line_bytes < config_.l1.line_bytes) {
    throw core::TFluxError("MemorySystem: L2 line must be >= L1 line");
  }
  l1_.reserve(num_cores);
  l2_.reserve(num_cores);
  for (std::uint16_t c = 0; c < num_cores; ++c) {
    l1_.emplace_back(config_.l1);
    l2_.emplace_back(config_.l2);
  }
}

Mesi MemorySystem::invalidate_in(std::uint16_t core, SimAddr l2_line) {
  const Mesi prev = l2_[core].invalidate(l2_line);
  if (prev != Mesi::kInvalid) {
    ++stats_.invalidations;
    // Inclusion: the L1 copies of this L2 line must go too.
    for (SimAddr a = l2_line; a < l2_line + config_.l2.line_bytes;
         a += config_.l1.line_bytes) {
      l1_[core].invalidate(a);
    }
  }
  return prev;
}

void MemorySystem::handle_l2_victim(std::uint16_t core,
                                    const Cache::Victim& victim, Cycles t) {
  // Back-invalidate the L1 copies (inclusion).
  for (SimAddr a = victim.line_addr;
       a < victim.line_addr + config_.l2.line_bytes;
       a += config_.l1.line_bytes) {
    l1_[core].invalidate(a);
  }
  if (victim.state == Mesi::kModified) {
    // Dirty eviction: the writeback occupies the bus but is off the
    // access's critical path.
    ++stats_.writebacks;
    ++stats_.bus_transactions;
    bus_.acquire(t, config_.bus.line_transfer_cycles);
  }
}

Cycles MemorySystem::access_line(std::uint16_t core, SimAddr l1_line,
                                 bool write, Cycles now) {
  assert(core < l1_.size());
  assert(l1_[core].line_of(l1_line) == l1_line);
  write ? ++stats_.writes : ++stats_.reads;

  Cache& l1 = l1_[core];
  Cache& l2 = l2_[core];
  const SimAddr l2_line = l2.line_of(l1_line);
  const Cycles bus_occupancy =
      config_.bus.request_cycles + config_.bus.line_transfer_cycles;

  if (!write) {
    // ------------------------------ READ ------------------------------
    if (l1.lookup(l1_line) != Mesi::kInvalid) {
      ++stats_.l1_hits;
      return now + config_.l1.read_latency;
    }
    ++stats_.l1_misses;
    const Mesi l2_state = l2.lookup(l2_line);
    if (l2_state != Mesi::kInvalid) {
      ++stats_.l2_hits;
      // L1 is write-through: its victims are clean, drop them.
      l1.fill(l1_line, Mesi::kShared);
      return now + config_.l2.read_latency;
    }
    ++stats_.l2_misses;
    // Bus read: snoop the peers.
    const Cycles t_detect = now + config_.l2.read_latency;
    ++stats_.bus_transactions;
    const Cycles grant = bus_.acquire(t_detect, bus_occupancy);
    bool peer_had = false;
    bool peer_dirty = false;
    for (std::size_t p = 0; p < l2_.size(); ++p) {
      if (p == core) continue;
      const Mesi s = l2_[p].peek(l2_line);
      if (s == Mesi::kInvalid) continue;
      peer_had = true;
      if (s == Mesi::kModified) {
        peer_dirty = true;
        ++stats_.writebacks;  // owner flushes while supplying
      }
      // All sharers (and the previous owner) drop to Shared.
      l2_[p].set_state(l2_line, Mesi::kShared);
    }
    const Cycles supply =
        peer_dirty ? config_.c2c_latency : config_.memory_latency;
    if (peer_dirty) {
      ++stats_.c2c_transfers;
    } else {
      ++stats_.mem_fetches;
    }
    const Mesi fill_state = peer_had ? Mesi::kShared : Mesi::kExclusive;
    const Cycles t_done = grant + bus_occupancy + supply;
    if (auto victim = l2.fill(l2_line, fill_state)) {
      handle_l2_victim(core, *victim, t_done);
    }
    l1.fill(l1_line, Mesi::kShared);
    return t_done;
  }

  // ------------------------------ WRITE ------------------------------
  const Mesi l2_state = l2.lookup(l2_line);
  switch (l2_state) {
    case Mesi::kModified:
    case Mesi::kExclusive: {
      // Silent E->M promotion; the write retires through the buffer.
      if (l2_state == Mesi::kExclusive) l2.set_state(l2_line, Mesi::kModified);
      if (l1.lookup(l1_line) != Mesi::kInvalid) {
        ++stats_.l1_hits;
      } else {
        ++stats_.l1_misses;
        ++stats_.l2_hits;
        l1.fill(l1_line, Mesi::kShared);
      }
      return now + config_.l1.write_latency;
    }
    case Mesi::kShared: {
      // Upgrade: kill the peer copies, take ownership.
      ++stats_.l1_misses;
      ++stats_.l2_hits;
      ++stats_.upgrades;
      ++stats_.bus_transactions;
      const Cycles grant =
          bus_.acquire(now + config_.l2.read_latency,
                       config_.bus.request_cycles);
      for (std::size_t p = 0; p < l2_.size(); ++p) {
        if (p != core) invalidate_in(static_cast<std::uint16_t>(p), l2_line);
      }
      l2.set_state(l2_line, Mesi::kModified);
      l1.insert(l1_line, Mesi::kShared);
      return grant + config_.bus.request_cycles;
    }
    case Mesi::kInvalid: {
      // Read-for-ownership (BusRdX).
      ++stats_.l1_misses;
      ++stats_.l2_misses;
      ++stats_.bus_transactions;
      const Cycles t_detect = now + config_.l2.read_latency;
      const Cycles grant = bus_.acquire(t_detect, bus_occupancy);
      bool peer_dirty = false;
      for (std::size_t p = 0; p < l2_.size(); ++p) {
        if (p == core) continue;
        const Mesi s = l2_[p].peek(l2_line);
        if (s == Mesi::kInvalid) continue;
        if (s == Mesi::kModified) {
          peer_dirty = true;
          ++stats_.writebacks;
        }
        invalidate_in(static_cast<std::uint16_t>(p), l2_line);
      }
      const Cycles supply =
          peer_dirty ? config_.c2c_latency : config_.memory_latency;
      if (peer_dirty) {
        ++stats_.c2c_transfers;
      } else {
        ++stats_.mem_fetches;
      }
      const Cycles t_done = grant + bus_occupancy + supply;
      if (auto victim = l2.fill(l2_line, Mesi::kModified)) {
        handle_l2_victim(core, *victim, t_done);
      }
      // Inclusion: a line absent from L2 is absent from L1 too.
      l1.fill(l1_line, Mesi::kShared);
      return t_done;
    }
  }
  return now;  // unreachable
}

Mesi MemorySystem::l2_state(std::uint16_t core, SimAddr addr) const {
  return l2_[core].peek(l2_[core].line_of(addr));
}

bool MemorySystem::l1_resident(std::uint16_t core, SimAddr addr) const {
  return l1_[core].peek(l1_[core].line_of(addr)) != Mesi::kInvalid;
}

}  // namespace tflux::machine
