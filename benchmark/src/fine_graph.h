// soft-fine's seeded synthetic DDM graph: ~10^5 tiny DThreads (~100 ns
// of integer mixing each) in many DDM Blocks, so the runtime's hot path
// - kernel publish, TUB, SM apply including range sweeps, dispatch,
// park/wake and block transitions - does almost all the work.
//
// Inside a block the threads form layers. Consecutive layers are
// joined by add_arc_range fan-outs of varied width (every consumer has
// exactly one range producer) and by unit fan-in arcs from a second
// producer; each block's first layer also reads one thread of the
// previous block through a cross-block arc. No thread has a footprint,
// so the data plane forwards nothing.
//
// Each body writes a value mixed from its salt and its producers'
// values; fine_oracle() evaluates the same graph sequentially.
#pragma once

#include <cstdint>
#include <vector>

#include "core/program.h"

namespace tflux::bench {

struct FineShape {
  std::uint32_t blocks = 200;
  std::uint32_t threads_per_block = 500;  ///< fits tsu_capacity 512
};

struct FineGraph {
  FineShape shape;
  std::uint32_t num_threads = 0;
  std::vector<std::uint32_t> block_of;  ///< per thread
  /// Producers of thread t: producers[offsets[t] .. offsets[t + 1]).
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> producers;
  std::vector<std::uint64_t> salt;
  struct RangeArc {
    std::uint32_t producer, lo, hi;
  };
  std::vector<RangeArc> range_arcs;
  /// Unit arcs (producer, consumer), same-block fan-ins and
  /// cross-block reads.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> unit_arcs;
};

/// The same seed gives the same graph; every seed gives the same thread
/// and block counts.
FineGraph generate_fine_graph(std::uint64_t seed, const FineShape& shape);

/// Thread t's value from its producers' values (the body's work).
/// `values` is indexed by thread id times kValueStride.
inline constexpr std::size_t kValueStride = 8;  // one cache line each
std::uint64_t fine_value(const FineGraph& g, std::uint32_t t,
                         const std::uint64_t* values);

/// Sequential evaluation in thread-id order (producers precede their
/// consumers by construction). Dense: result[t].
std::vector<std::uint64_t> fine_oracle(const FineGraph& g);

/// Per-kernel body-time accumulator (traced runs time every body).
struct alignas(64) BodyClock {
  std::uint64_t ns = 0;
};

/// Everything a body needs, owned by the caller and outliving the
/// Program: the graph, the padded value array, and one BodyClock per
/// kernel that bodies add their time to while `timing` is set (set it
/// only between runs).
struct FineContext {
  const FineGraph* graph = nullptr;
  std::vector<std::uint64_t> values;  ///< num_threads * kValueStride
  std::vector<BodyClock> clocks;
  bool timing = false;
};

/// Declare the graph through ProgramBuilder (range and unit arcs) and
/// build it for `kernels` Kernels with TSU capacity 512.
core::Program build_fine_program(FineContext& ctx, std::uint16_t kernels);

/// Compare the run's values with the oracle and clear them for the next
/// run. Returns the number of mismatching threads.
std::uint64_t check_and_clear(FineContext& ctx,
                              const std::vector<std::uint64_t>& oracle);

}  // namespace tflux::bench
