#include "stats.h"

#include <algorithm>
#include <cmath>

namespace tflux::bench {

namespace {

std::size_t rank_of(std::size_t n, double p) {
  // The epsilon keeps exact products exact (99.9% of 10000 is rank 9990,
  // not 9991 through rounding in p / 100).
  std::size_t r = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double nearest_rank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t r = rank_of(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (r - 1), samples.end());
  return samples[r - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - rank_of(n, p);
}

double reportable_tail(std::size_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

}  // namespace tflux::bench
