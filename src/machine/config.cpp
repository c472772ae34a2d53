#include "machine/config.h"

namespace tflux::machine {

MachineConfig bagle_sparc(std::uint16_t num_kernels) {
  MachineConfig c;
  c.name = "bagle-sparc-tfluxhard";
  c.num_kernels = num_kernels;
  // Section 6.1.1: 32KB L1D, 64B lines, 4-way, 2-cycle read, 0-cycle
  // write (write buffer); 2MB unified L2, 128B lines, 8-way, 20-cycle.
  c.l1 = CacheGeometry{32 * 1024, 64, 4, 2, 1};
  c.l2 = CacheGeometry{2 * 1024 * 1024, 128, 8, 20, 20};
  c.bus = BusConfig{4, 8};
  c.memory_latency = 120;
  c.c2c_latency = 30;
  // Hardware TSU behind the MMI: 4 cycles over a normal L1 access.
  c.tsu = TsuTiming{6, 1};
  c.thread_switch_cycles = 10;
  return c;
}

MachineConfig xeon_soft(std::uint16_t num_kernels) {
  MachineConfig c;
  c.name = "xeon-x86-tfluxsoft";
  c.num_kernels = num_kernels;
  // Section 6.2.1: 32KB 8-way L1 (3-cycle), 4MB 16-way shared-per-chip
  // L2 modeled private (14-cycle), 64B lines throughout.
  c.l1 = CacheGeometry{32 * 1024, 64, 8, 3, 1};
  c.l2 = CacheGeometry{4 * 1024 * 1024, 64, 16, 14, 14};
  c.bus = BusConfig{6, 8};
  c.memory_latency = 250;
  c.c2c_latency = 60;
  // Software TSU on a dedicated core: every kernel<->TSU exchange is a
  // shared-memory handshake (~ a cache-to-cache transfer), and each
  // TSU operation costs emulator instructions (TUB draining, locking,
  // TKT lookup, SM update). This is why TFluxSoft needs coarser
  // DThreads (unroll > 16) than TFluxHard (section 6.2.2).
  c.tsu = TsuTiming{120, 350};
  c.thread_switch_cycles = 60;
  return c;
}

MachineConfig x86_hard(std::uint16_t num_kernels) {
  MachineConfig c = xeon_soft(num_kernels);
  c.name = "x86-9core-tfluxhard";
  // Same memory system, but the TSU is the hardware module again.
  c.tsu = TsuTiming{6, 1};
  c.thread_switch_cycles = 10;
  return c;
}

MachineConfig xeon_soft_sharded(std::uint16_t num_kernels,
                                std::uint16_t groups) {
  MachineConfig c = xeon_soft(num_kernels);
  c.name = "xeon-x86-tfluxsoft-sharded";
  c.tsu.num_groups = groups;
  // Within the home group the kernel<->TSU handshake stays the
  // xeon_soft shared-L2 cost; an operation leaving the group crosses
  // to another cluster's emulator - a cross-cluster cache-to-cache
  // hop on top (roughly 2x the intra-cluster handshake).
  c.tsu.intergroup_latency = 2 * c.tsu.access_latency;
  return c;
}

}  // namespace tflux::machine
