// serve-mix: one resident runtime::Executor with two width-1 tenants
// (pool of 2 Kernels, one TSU Emulator each: four resident workers),
// driven through submit() by this single-threaded generator. Requests
// cycle through TRAPEZ, QSORT and FFT Small, so per-request admission,
// staging, instance reset and worker handoff dominate. Every request
// runs under the sampled online guard (deep checks on every 8th block)
// and is checked before its program slot runs again: its app validates,
// every one of its DThreads ran, and the guard found nothing.
//
// The end-to-end figures come from a closed loop with a fixed number of
// outstanding requests: the median request latency, which with a fixed
// number outstanding also carries the throughput (the traced run
// reports that as serve_rps, with the per-request runtime stats). The
// traced run adds an open loop at one fixed rate, about half the closed-loop
// capacity, with seeded exponential interarrivals and each request
// timed from its due time. Its latency is a per-layer diagnostic only:
// one multi-second stall of the host backs the open loop up for the
// rest of its phase, so on a shared host it does not repeat from run to
// run within any useful bound.
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include "apps/suite.h"
#include "core/error.h"
#include "core/executor.h"
#include "core/guard.h"
#include "open_loop.h"
#include "runtime_tally.h"
#include "runtime/executor.h"
#include "stats.h"
#include "workload.h"

namespace tflux::bench {

namespace {

constexpr std::size_t kClosedOutstanding = 4;
constexpr std::size_t kWindow = 100;  // completions per throughput sample
constexpr double kOpenRate = 600.0;  // requests per second
constexpr std::size_t kSlotsPerKind = 6;
const apps::AppKind kKinds[] = {apps::AppKind::kTrapez, apps::AppKind::kQsort,
                                apps::AppKind::kFft};
constexpr std::size_t kNumKinds = 3;

/// A request to run `handle` under the sampled online guard.
runtime::RunRequest guarded_request(core::ProgramHandle handle) {
  runtime::RunRequest request;
  request.handle = handle;
  request.guard.mode = core::GuardMode::kSampled;
  request.guard.sample_period = 8;
  return request;
}

/// Whether request `r` running `app` completed correctly.
bool request_ok(const apps::AppRun& app, const runtime::RunResult& r) {
  return app.validate() && r.guard_clean &&
         r.stats.total_app_threads_executed() == app.program.num_app_threads();
}

struct Slot {
  std::shared_ptr<apps::AppRun> app;
  core::ProgramHandle handle = core::kInvalidProgram;
  bool busy = false;
};

struct ServeState {
  std::vector<Slot> slots;
  core::ProgramRegistry registry;
  std::unique_ptr<runtime::Executor> executor;  // after the registry it uses
};

struct Pending {
  std::uint64_t id = 0;
  std::size_t slot = 0;
  Clock::time_point due{};
  Clock::time_point submitted{};
  std::future<runtime::RunResult> result;
};

/// Per-phase request outcomes.
struct Outcomes {
  std::vector<double> latency_ms;  ///< due -> completion
  std::vector<double> queue_ms, run_ms;
  /// Client-observed latency (submit call -> future ready) minus queue
  /// and run time: the submit and completion handoffs between this
  /// thread and the executor. Sampled only for requests whose
  /// completion the generator was already blocked on, so its own
  /// scheduling does not count.
  std::vector<double> handoff_ms;
};

class Generator {
 public:
  Generator(ServeState& state, WorkloadResult& result, SpanRecorder& spans,
            std::uint64_t seed)
      : state_(state), result_(result), spans_(spans), next_kind_(seed % kNumKinds) {}

  /// Closed loop for `seconds`: every request's latency (due = submit)
  /// lands in `out`. Returns the median, over windows of kWindow
  /// completions, of completions per second - robust to a stall of the
  /// host, which a whole-phase average is not.
  double closed_loop(double seconds, Outcomes& out) {
    const Clock::time_point t0 = Clock::now();
    std::vector<double> window_rps;
    Clock::time_point window_start = t0;
    std::size_t in_window = 0;
    std::uint64_t completed = 0;
    while (seconds_since(t0) < seconds) {
      while (pending_.size() < kClosedOutstanding) submit(Clock::now(), out);
      complete_oldest(out);
      ++completed;
      if (++in_window == kWindow) {
        window_rps.push_back(kWindow / seconds_since(window_start));
        window_start = Clock::now();
        in_window = 0;
      }
    }
    const double elapsed = seconds_since(t0);
    drain(out);
    return window_rps.empty() ? ratio(double(completed), elapsed)
                              : median(window_rps);
  }

  /// Open loop at kOpenRate for `seconds`.
  Outcomes open_loop(double seconds, std::uint64_t seed,
                     std::vector<double>& lateness_ms) {
    Outcomes out;
    const Clock::time_point t0 = Clock::now();
    OpenLoop loop(seed, kOpenRate, t0);
    drive_open_loop(
        loop, t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds)),
        [] { return Clock::now(); },
        [](Clock::time_point t) { std::this_thread::sleep_until(t); },
        [&](Clock::time_point due) {
          while (!pending_.empty() && pending_.front().result.wait_for(
                                          std::chrono::seconds(0)) ==
                                          std::future_status::ready) {
            complete_oldest(out);
          }
          submit(due, out);
        });
    drain(out);
    lateness_ms = loop.lateness_ms();
    return out;
  }

  /// Per-request runtime stats (RunResult::stats) of traced requests.
  RuntimeTally tally;
  std::uint64_t tallied = 0;

 private:
  void submit(Clock::time_point due, Outcomes& out) {
    const std::size_t kind = next_kind_;
    next_kind_ = (next_kind_ + 1) % kNumKinds;
    std::size_t slot = free_slot(kind);
    while (slot == state_.slots.size()) {
      complete_oldest(out);
      slot = free_slot(kind);
    }
    Pending p;
    p.id = ++ids_;
    p.slot = slot;
    p.due = due;
    const runtime::RunRequest request =
        guarded_request(state_.slots[slot].handle);
    p.submitted = Clock::now();
    try {
      p.result = state_.executor->submit(request);
    } catch (const core::TFluxError& e) {
      result_.check(false, std::string("submit: ") + e.what());
      return;
    }
    state_.slots[slot].busy = true;
    pending_.push_back(std::move(p));
  }

  std::size_t free_slot(std::size_t kind) const {
    for (std::size_t s = kind; s < state_.slots.size(); s += kNumKinds) {
      if (!state_.slots[s].busy) return s;
    }
    return state_.slots.size();
  }

  void complete_oldest(Outcomes& out) {
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    Slot& slot = state_.slots[p.slot];
    runtime::RunResult r;
    const Clock::time_point wait_from = Clock::now();
    Clock::time_point observed{};
    try {
      r = p.result.get();
      observed = Clock::now();
    } catch (const std::exception& e) {
      slot.busy = false;
      result_.check(false, std::string("request: ") + e.what());
      return;
    }
    result_.check(request_ok(*slot.app, r),
                  slot.app->name + " request " + std::to_string(p.id));
    slot.busy = false;
    const double queue = r.queue_seconds * 1e3;
    const double run = r.run_seconds * 1e3;
    out.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(r.completed_at - p.due).count());
    out.queue_ms.push_back(queue);
    out.run_ms.push_back(run);
    const bool blocked = wait_from < r.completed_at;
    if (blocked) {
      out.handoff_ms.push_back(
          std::chrono::duration<double, std::milli>(observed - p.submitted)
              .count() -
          queue - run);
    }
    if (spans_.enabled()) {
      tally.add(r.stats);
      ++tallied;
      const int req =
          spans_.add("executor.request", slot.app->name, p.submitted,
                     blocked ? observed : r.completed_at, -1, p.id, true);
      auto at = [](Clock::time_point t, double ms) {
        return t + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
      };
      spans_.add("executor.queue", slot.app->name, p.submitted,
                 at(p.submitted, queue), req, p.id, true);
      spans_.add("executor.run", slot.app->name, at(r.completed_at, -run),
                 r.completed_at, req, p.id, true);
    }
  }

  void drain(Outcomes& out) {
    while (!pending_.empty()) complete_oldest(out);
  }

  ServeState& state_;
  WorkloadResult& result_;
  SpanRecorder& spans_;
  std::size_t next_kind_;
  std::uint64_t ids_ = 0;
  std::deque<Pending> pending_;
};

}  // namespace

WorkloadResult run_serve_mix(const RunConfig& config) {
  WorkloadResult result;
  SpanRecorder spans;
  spans.set_enabled(config.trace);

  apps::DdmParams params;
  params.num_kernels = 1;
  params.unroll = 4;
  params.tsu_capacity = 64;
  runtime::ExecutorOptions options;
  options.pool_kernels = 2;
  options.partition_width = 1;

  std::unique_ptr<ServeState> state = repeated_setup(result.metrics, [&] {
    SpanRecorder::Scope setup(spans, "bench.setup");
    auto s = std::make_unique<ServeState>();
    for (std::size_t i = 0; i < kSlotsPerKind * kNumKinds; ++i) {
      // Slot s runs kind s % kNumKinds (Generator::free_slot relies on it).
      const apps::AppKind kind = kKinds[i % kNumKinds];
      const char* name = apps::to_string(kind);
      Slot slot;
      {
        SpanRecorder::Scope span(spans, "apps.build", name);
        slot.app = std::make_shared<apps::AppRun>(apps::build_app(
            kind, apps::SizeClass::kSmall, apps::Platform::kNative, params));
      }
      slot.handle = s->registry.add(slot.app->program, slot.app,
                                    slot.app->reset, slot.app->name);
      s->slots.push_back(std::move(slot));
    }
    {
      SpanRecorder::Scope span(spans, "runtime.construct", "Executor");
      s->executor = std::make_unique<runtime::Executor>(s->registry, options);
    }
    // Warm-up: every slot runs once and is checked.
    std::vector<std::future<runtime::RunResult>> warm;
    for (const Slot& slot : s->slots) {
      warm.push_back(s->executor->submit(guarded_request(slot.handle)));
    }
    for (std::size_t i = 0; i < warm.size(); ++i) {
      const runtime::RunResult r = warm[i].get();
      result.check(request_ok(*s->slots[i].app, r),
                   s->slots[i].app->name + " warm-up request");
    }
    return s;
  });
  Metrics& m = result.metrics;
  m["apps.build_ms"] = per_setup_ms(spans, "apps.build");
  m["runtime.construct_ms"] = per_setup_ms(spans, "runtime.construct");

  Generator gen(*state, result, spans, config.seed);
  if (!config.trace) {
    Outcomes closed;
    gen.closed_loop(config.seconds, closed);
    unit_metrics(m, closed.latency_ms);
  } else {
    const double quarter = config.seconds / 4;
    spans.set_enabled(false);
    Outcomes untraced;
    gen.closed_loop(quarter, untraced);
    spans.set_enabled(true);
    Outcomes closed;
    m["serve_rps"] = gen.closed_loop(quarter, closed);
    m["executor.handoff_ms_p50"] = median(closed.handoff_ms);
    trace_metrics(m, untraced.latency_ms, closed.latency_ms);

    state->executor->reset_stats_epoch();
    std::vector<double> lateness;
    const Outcomes open = gen.open_loop(2 * quarter, config.seed, lateness);
    const runtime::ExecutorStats st = state->executor->stats();
    m["executor.run_ms_p50"] = median(open.run_ms);
    m["executor.queue_ms_p50"] = median(open.queue_ms);
    m["executor.queue_ms_p99"] = nearest_rank(open.queue_ms, 99.0);
    m["executor.queue_depth_peak"] = static_cast<double>(st.queue_depth_peak);
    m["executor.rejected"] = static_cast<double>(st.rejected);
    m["executor.fairness_ratio"] = core::fairness_ratio(st.tenants);
    m["executor.gen_late_ms_p99"] = nearest_rank(lateness, 99.0);
    m["latency_ms_p50"] = median(open.latency_ms);
    m["latency_ms_p99"] = nearest_rank(open.latency_ms, 99.0);
    gen.tally.write(m, gen.tallied);
  }
  finish(result, config, spans);
  return result;
}

}  // namespace tflux::bench
