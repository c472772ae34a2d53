// Machine configurations for the simulated TFlux platforms.
//
// `bagle_sparc()` mirrors the paper's Simics target (section 6.1.1):
// 28-core Sparc "Bagle", 32KB 4-way L1D (64B lines, 2-cycle read),
// 2MB 8-way unified L2 (128B lines, 20-cycle read/write), MESI
// snooping, and the hardware TSU Group reachable through the MMI with
// a 4-cycle penalty over an L1 access.
//
// `xeon_soft()` mirrors the TFluxSoft evaluation machine (section
// 6.2.1): Xeon E5320-like cores, 32KB 8-way L1 (3-cycle), 4MB 16-way
// L2 (14-cycle), with the TSU implemented in software on a dedicated
// core - so TSU operations cost hundreds of cycles (shared-memory
// handshakes + emulator work) instead of single-digit cycles.
#pragma once

#include <cstdint>
#include <string>

#include "core/ready_set.h"
#include "core/types.h"

namespace tflux::machine {

using core::Cycles;

struct CacheGeometry {
  std::uint32_t size_bytes = 0;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 4;
  Cycles read_latency = 1;
  Cycles write_latency = 1;

  std::uint32_t num_sets() const {
    return size_bytes / (line_bytes * ways);
  }
};

struct BusConfig {
  /// Arbitration + address phase occupancy per transaction.
  Cycles request_cycles = 4;
  /// Data phase occupancy for one cache line.
  Cycles line_transfer_cycles = 8;
};

struct TsuTiming {
  /// Kernel <-> TSU communication latency, one way. TFluxHard: the MMI
  /// memory-mapped access penalty. TFluxSoft: a shared-memory handshake
  /// (TUB write / mailbox read), i.e. roughly a cache-to-cache miss.
  Cycles access_latency = 4;
  /// TSU processing time per operation (one Ready Count update, one
  /// metadata load, one fetch). The paper sweeps this 1..128 for the
  /// hardware TSU and finds <1% impact (reproduced by
  /// bench/ablation_tsu_latency).
  Cycles op_cycles = 1;
  /// Number of TSU Groups. The paper (section 4.1): "For systems with
  /// very large number of CPUs it may be beneficial to have multiple
  /// TSU Groups. A version of the TSU Group supporting such
  /// functionality is currently under development." - implemented here
  /// as an extension: the kernels are clustered into contiguous groups
  /// (core::ShardMap), each group has its own command port, and an
  /// operation that crosses groups - a Ready Count update whose target
  /// lives in another group, or a dispatch onto a kernel outside the
  /// DThread's home group - pays `intergroup_latency` (and an update
  /// occupies the remote group's port). Must be in [1, num_kernels].
  std::uint16_t num_groups = 1;
  /// One-way latency of the TSU-to-TSU link between groups.
  Cycles intergroup_latency = 16;
};

struct MachineConfig {
  std::string name = "machine";
  /// Worker kernels (execution cores). The OS core and - for the soft
  /// TSU - the TSU Emulator core are *not* in this count, matching the
  /// paper's "reserve a core for the OS" methodology.
  std::uint16_t num_kernels = 4;

  CacheGeometry l1;
  CacheGeometry l2;
  BusConfig bus;
  /// DRAM access latency (after winning the bus).
  Cycles memory_latency = 200;
  /// Cache-to-cache supply latency (dirty line forwarded by a peer).
  Cycles c2c_latency = 40;

  TsuTiming tsu;
  /// Kernel-side cost of the transition into/out of a DThread (the
  /// paper keeps Kernel and DThread code in one function to make this
  /// minimal).
  Cycles thread_switch_cycles = 10;
  /// DES interleaving granularity for DThread execution (cycles per
  /// segment event). Purely a simulation fidelity/speed knob.
  Cycles exec_quantum = 4096;

  core::PolicyKind policy = core::PolicyKind::kLocality;
  /// Managed data plane (core/dataplane.h): forward/affinity accounting
  /// plus push-side affinity routing under PolicyKind::kAffinity. false
  /// = implicit shared memory only (the ablation baseline); kAffinity
  /// then schedules exactly like kHier.
  bool dataplane = true;
};

/// The paper's TFluxHard target (hardware TSU attached via MMI).
MachineConfig bagle_sparc(std::uint16_t num_kernels);

/// The paper's TFluxSoft target modeled in simulation: same class of
/// machine with x86-ish caches; TSU in software on a dedicated core.
MachineConfig xeon_soft(std::uint16_t num_kernels);

/// The "simulated 9 cores X86 system similar to Bagle" the paper
/// mentions at the end of section 6.1.2: x86-like caches, hardware TSU.
MachineConfig x86_hard(std::uint16_t num_kernels);

/// Sharded TFluxSoft: the xeon_soft machine with its kernels clustered
/// into `groups` TSU groups, one emulator port per group. Exchanges
/// within the home group keep the xeon_soft handshake cost; crossing a
/// group boundary models a cross-cluster cache-to-cache hop. Pair with
/// PolicyKind::kHier for hierarchical stealing.
MachineConfig xeon_soft_sharded(std::uint16_t num_kernels,
                                std::uint16_t groups);

}  // namespace tflux::machine
