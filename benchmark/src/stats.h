// Order statistics for the benchmark's timings. Percentiles are
// nearest-rank over the recorded samples, the same definition as
// core::LatencySummary, so benchmark and tflux_serve figures agree.
#pragma once

#include <cstddef>
#include <vector>

namespace tflux::bench {

/// Nearest-rank percentile: the ceil(p/100 * N)-th smallest sample
/// (p in (0, 100]). Returns 0 for an empty sample set.
double nearest_rank(std::vector<double> samples, double p);

/// Median (nearest-rank p50).
inline double median(const std::vector<double>& samples) {
  return nearest_rank(samples, 50.0);
}

/// Samples strictly above the nearest-rank p-th percentile's rank:
/// N - ceil(p/100 * N).
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of p50 / p90 / p99 / p99.9 that leaves at least ten
/// samples beyond it (the tail a timing may be reported at), or 0 when
/// even the median does not (fewer than 20 samples).
double reportable_tail(std::size_t n);

}  // namespace tflux::bench
