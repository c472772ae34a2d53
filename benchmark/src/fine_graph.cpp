#include "fine_graph.h"

#include <algorithm>
#include <chrono>

#include "core/builder.h"
#include "sim/rng.h"

namespace tflux::bench {

namespace {

constexpr std::uint32_t kMaxRange = 64;   // widest range fan-out
constexpr std::uint32_t kMixRounds = 24;  // body work: ~100 ns

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Layer {
  std::uint32_t begin, end;
  std::uint32_t width() const { return end - begin; }
};

}  // namespace

FineGraph generate_fine_graph(std::uint64_t seed, const FineShape& shape) {
  FineGraph g;
  g.shape = shape;
  g.num_threads = shape.blocks * shape.threads_per_block;
  g.block_of.resize(g.num_threads);
  g.salt.resize(g.num_threads);
  std::vector<std::vector<std::uint32_t>> prods(g.num_threads);
  sim::SplitMix64 rng(seed);
  auto pick = [&rng](const Layer& l) {
    return l.begin + static_cast<std::uint32_t>(rng.next_below(l.width()));
  };

  Layer previous_last{0, 0};
  for (std::uint32_t b = 0; b < shape.blocks; ++b) {
    const std::uint32_t first = b * shape.threads_per_block;
    const std::uint32_t stop = first + shape.threads_per_block;
    for (std::uint32_t t = first; t < stop; ++t) {
      g.block_of[t] = b;
      g.salt[t] = rng.next();
    }
    // Layers: a narrow source layer, then widths in [16, 128]; the last
    // layer takes the remainder.
    std::vector<Layer> layers;
    std::uint32_t at = first;
    std::uint32_t width = 4 + static_cast<std::uint32_t>(rng.next_below(13));
    while (at < stop) {
      const std::uint32_t end = stop - at < width + 16 ? stop : at + width;
      layers.push_back({at, end});
      at = end;
      width = 16 + static_cast<std::uint32_t>(rng.next_below(113));
    }
    if (b > 0) {
      for (std::uint32_t t = layers[0].begin; t < layers[0].end; ++t) {
        const std::uint32_t p = pick(previous_last);
        g.unit_arcs.emplace_back(p, t);
        prods[t].push_back(p);
      }
    }
    for (std::size_t l = 1; l < layers.size(); ++l) {
      const Layer& up = layers[l - 1];
      for (std::uint32_t c = layers[l].begin; c < layers[l].end;) {
        const std::uint32_t w =
            1 + static_cast<std::uint32_t>(rng.next_below(kMaxRange));
        const std::uint32_t hi = std::min(c + w, layers[l].end) - 1;
        const std::uint32_t p = pick(up);
        g.range_arcs.push_back({p, c, hi});
        for (std::uint32_t t = c; t <= hi; ++t) prods[t].push_back(p);
        c = hi + 1;
      }
      for (std::uint32_t c = layers[l].begin; c < layers[l].end; ++c) {
        if (up.width() < 2 || rng.next_below(2) == 0) continue;
        std::uint32_t q = pick(up);
        if (q == prods[c][0]) q = q + 1 < up.end ? q + 1 : up.begin;
        g.unit_arcs.emplace_back(q, c);
        prods[c].push_back(q);
      }
    }
    previous_last = layers.back();
  }

  g.offsets.reserve(g.num_threads + 1);
  g.offsets.push_back(0);
  for (const std::vector<std::uint32_t>& p : prods) {
    g.producers.insert(g.producers.end(), p.begin(), p.end());
    g.offsets.push_back(static_cast<std::uint32_t>(g.producers.size()));
  }
  return g;
}

std::uint64_t fine_value(const FineGraph& g, std::uint32_t t,
                         const std::uint64_t* values) {
  std::uint64_t h = g.salt[t];
  for (std::uint32_t i = g.offsets[t]; i < g.offsets[t + 1]; ++i) {
    h = mix(h ^ values[std::size_t{g.producers[i]} * kValueStride]);
  }
  for (std::uint32_t r = 0; r < kMixRounds; ++r) h = mix(h + r);
  return h;
}

std::vector<std::uint64_t> fine_oracle(const FineGraph& g) {
  std::vector<std::uint64_t> padded(std::size_t{g.num_threads} * kValueStride);
  std::vector<std::uint64_t> out(g.num_threads);
  for (std::uint32_t t = 0; t < g.num_threads; ++t) {
    out[t] = padded[std::size_t{t} * kValueStride] = fine_value(g, t, padded.data());
  }
  return out;
}

core::Program build_fine_program(FineContext& ctx, std::uint16_t kernels) {
  const FineGraph& g = *ctx.graph;
  ctx.values.assign(std::size_t{g.num_threads} * kValueStride, 0);
  FineContext* c = &ctx;
  const core::ThreadBody body = [c](const core::ExecContext& e) {
    std::uint64_t* slot = &c->values[std::size_t{e.thread} * kValueStride];
    if (!c->timing) {
      *slot = fine_value(*c->graph, e.thread, c->values.data());
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    *slot = fine_value(*c->graph, e.thread, c->values.data());
    c->clocks[e.kernel].ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  core::ProgramBuilder b("soft-fine");
  for (std::uint32_t k = 0; k < g.shape.blocks; ++k) b.add_block();
  for (std::uint32_t t = 0; t < g.num_threads; ++t) {
    b.add_thread(static_cast<core::BlockId>(g.block_of[t]), "fine", body);
  }
  for (const FineGraph::RangeArc& r : g.range_arcs) {
    b.add_arc_range(r.producer, r.lo, r.hi);
  }
  for (const auto& [p, t] : g.unit_arcs) b.add_arc(p, t);
  core::BuildOptions options;
  options.tsu_capacity = 512;
  options.num_kernels = kernels;
  return b.build(options);
}

std::uint64_t check_and_clear(FineContext& ctx,
                              const std::vector<std::uint64_t>& oracle) {
  std::uint64_t bad = 0;
  for (std::size_t t = 0; t < oracle.size(); ++t) {
    std::uint64_t& v = ctx.values[t * kValueStride];
    if (v != oracle[t]) ++bad;
    v = 0;
  }
  return bad;
}

}  // namespace tflux::bench
