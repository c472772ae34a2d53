// In-memory span recorder for the traced benchmark run. Spans are taken
// in the benchmark's own code around each call into a TFlux layer
// (apps, core, runtime, executor, machine); the span name's prefix up to
// the first '.' names the layer. Spans stay in memory while the run
// measures and are written once at the end as Chrome trace JSON, which
// Perfetto opens.
//
// Not thread-safe: every span is recorded from the benchmark's driving
// thread (executor request spans are recorded there after completion).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tflux::bench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;    ///< "<layer>.<what>", e.g. "runtime.run"
  std::string detail;  ///< app or config the span covers (may be empty)
  Clock::time_point start{};
  Clock::time_point end{};
  int parent = -1;          ///< index of the enclosing span, -1 = root
  std::uint64_t unit = 0;   ///< measured unit or request id
  bool async = false;       ///< may overlap siblings (executor requests)

  double ms() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
  std::string layer() const { return name.substr(0, name.find('.')); }
};

class SpanRecorder {
 public:
  /// A disabled recorder ignores every call (the untraced phases).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open a span under the innermost open one; returns its index (-1
  /// when disabled).
  int begin(std::string name, std::string detail = {}, std::uint64_t unit = 0);
  void end(int index);

  /// Record a finished span with known bounds under `parent`.
  int add(std::string name, std::string detail, Clock::time_point start,
          Clock::time_point end, int parent, std::uint64_t unit,
          bool async = false);

  /// RAII begin/end.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name, std::string detail = {},
          std::uint64_t unit = 0)
        : rec_(rec), index_(rec.begin(std::move(name), std::move(detail), unit)) {}
    ~Scope() { rec_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int index() const { return index_; }

   private:
    SpanRecorder& rec_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration (ms) of spans named `name` (and `detail`, when
  /// non-empty).
  double total_ms(const std::string& name, const std::string& detail = {}) const;
  /// Durations (ms) of every span named `name`.
  std::vector<double> durations_ms(const std::string& name,
                                   const std::string& detail = {}) const;

  /// Self time per layer (ms): each span's duration minus the union of
  /// its children's intervals, summed by layer.
  std::map<std::string, double> self_ms_by_layer() const;

  /// Write every span as Chrome trace JSON. Returns false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace tflux::bench
