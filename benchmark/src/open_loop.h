// Open-loop request generation: requests are due on a seeded schedule
// of exponential interarrivals at a fixed rate, whatever the system's
// state, and each one is timed from its due time - so a stall also
// delays every request due during it. The generator's own lateness
// (send time past due time) is recorded to show it kept up.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "spans.h"

namespace tflux::bench {

class OpenLoop {
 public:
  OpenLoop(std::uint64_t seed, double rate_per_s, Clock::time_point start)
      : rng_(seed), rate_(rate_per_s), due_(start) {
    advance();
  }

  /// When the current request is due.
  Clock::time_point due() const { return due_; }

  /// The current request was sent at `sent`: record its lateness and
  /// move to the next request's due time.
  void sent(Clock::time_point sent) {
    lateness_ms_.push_back(
        sent > due_ ? std::chrono::duration<double, std::milli>(sent - due_).count()
                    : 0.0);
    advance();
  }

  const std::vector<double>& lateness_ms() const { return lateness_ms_; }

 private:
  void advance() {
    const double u = rng_.next_double();
    due_ += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log1p(-u) / rate_));
  }

  sim::SplitMix64 rng_;
  double rate_;
  Clock::time_point due_;
  std::vector<double> lateness_ms_;
};

/// Send every request due before `end`: wait for its due time, submit
/// it (submit may block, making later requests late), record the send.
/// `now` and `sleep_until` are the clock, so tests can drive a fake one.
template <class Now, class SleepUntil, class Submit>
void drive_open_loop(OpenLoop& loop, Clock::time_point end, Now now,
                     SleepUntil sleep_until, Submit submit) {
  while (loop.due() < end) {
    sleep_until(loop.due());
    const Clock::time_point sent = now();
    submit(loop.due());
    loop.sent(sent);
  }
}

}  // namespace tflux::bench
