#include "runtime/executor.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/error.h"
#include "runtime/run_frame.h"

namespace tflux::runtime {
namespace {

/// Best-effort self-pinning (modulo the host's CPU count); pinning is
/// an optimization, errors are ignored.
void pin_self_to_cpu(unsigned cpu) {
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % ncpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

struct Executor::Impl {
  /// One admitted program instance: a partition-width RunFrame
  /// assembled by the dispatcher (off the workers' critical path when
  /// stage_depth > 1) and executed by the partition's resident
  /// workers, plus its admission metadata. Nothing in the frame is
  /// shared with other tenants or with the next run of the same
  /// tenant, which is what makes traces replay standalone and guard
  /// findings attributable.
  struct Instance {
    RunFrame frame;
    std::uint64_t ticket;
    core::ProgramHandle handle;
    std::uint16_t tenant;
    std::chrono::steady_clock::time_point submitted_at;
    std::promise<RunResult> promise;

    /// First worker to pick the instance up stamps started_at.
    std::atomic<bool> started{false};
    std::chrono::steady_clock::time_point started_at{};
    /// Roles still running; the worker that decrements this to zero
    /// finalizes the result.
    std::atomic<int> remaining{0};

    /// The frame's TraceLog never arms the process-global emergency
    /// flush: that is single-run machinery, and a resident pool has
    /// many concurrent candidates for it.
    Instance(const core::Program& program, const RuntimeOptions& options,
             const RunRequest& request, std::uint64_t ticket_,
             std::uint16_t tenant_,
             std::chrono::steady_clock::time_point submitted)
        : frame(program, options, request.guard, request.trace, nullptr),
          ticket(ticket_),
          handle(request.handle),
          tenant(tenant_),
          submitted_at(submitted) {
      remaining.store(frame.width() + frame.groups(),
                      std::memory_order_relaxed);
    }
  };

  /// One resident worker's inbox. The dispatcher pushes the same
  /// shared_ptr<Instance> to every role of the target partition, so
  /// all of an instance's actors run concurrently; per-worker queues
  /// (rather than one shared pool queue) guarantee each role runs each
  /// instance exactly once, in admission order.
  struct WorkerChannel {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::shared_ptr<Instance>> queue;
  };

  struct Partition {
    core::TenantPartition part;
    std::deque<WorkerChannel> channels;  // width + groups entries
    std::vector<std::thread> threads;
    /// Instances admitted and not yet finalized (guarded by mu_).
    std::uint16_t inflight = 0;
    /// Stats-epoch-scoped share (guarded by mu_).
    std::uint64_t runs = 0;
    double busy_seconds = 0.0;
  };

  struct Pending {
    RunRequest request;
    std::uint64_t ticket = 0;
    std::chrono::steady_clock::time_point submitted_at;
    std::promise<RunResult> promise;
  };

  core::ProgramRegistry& registry;
  ExecutorOptions options;
  /// What every instance's RunFrame is built from: the executor's
  /// RunOptions at partition width, the rest at RuntimeOptions'
  /// defaults.
  RuntimeOptions run_options;
  std::vector<core::TenantPartition> plan;
  std::deque<Partition> partitions;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;     ///< submitters wait for space
  std::condition_variable dispatch_cv_;  ///< dispatcher waits for work
  std::condition_variable drain_cv_;     ///< drain() waits for idle
  std::deque<Pending> queue_;
  std::vector<bool> handle_busy_;  ///< per-handle serialization
  /// Atomic (not mu_-guarded) because the worker wait predicates read
  /// it under their channel mutex; channel mutexes are leaves in the
  /// lock order, so they must never take mu_. The shutdown sequence
  /// stores it, then lock/unlocks every waiter's mutex before
  /// notifying, so no waiter can miss the transition.
  std::atomic<bool> stop_{false};

  // Stats (guarded by mu_; zeroed by reset_stats_epoch).
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::size_t queue_depth_peak_ = 0;
  std::uint64_t epoch_ = 1;
  /// Never reset: requests accepted and not yet finalized. drain()
  /// and the destructor key off this, so a mid-flight stats-epoch
  /// reset cannot wedge them.
  std::uint64_t outstanding_ = 0;
  std::uint64_t next_ticket_ = 1;
  core::LatencyRecorder latency_;  // internally synchronized

  std::thread dispatcher_;

  Impl(core::ProgramRegistry& reg, ExecutorOptions opts)
      : registry(reg), options(opts) {
    run_options.num_kernels = options.partition_width;
    run_options.run = options.run;
    if (options.pool_kernels == 0) {
      throw core::TFluxError("Executor: pool_kernels must be >= 1");
    }
    plan = core::make_partition_plan(options.pool_kernels,
                                     options.partition_width);
    if (options.stage_depth == 0) {
      throw core::TFluxError("Executor: stage_depth must be >= 1");
    }
    if (options.queue_capacity == 0) {
      throw core::TFluxError("Executor: queue_capacity must be >= 1");
    }
    // Every instance's RunFrame resolves the same map; its group count
    // sizes the partition's emulator roles (and rejects a tsu_groups
    // or shards count the partition width cannot hold).
    const std::uint16_t groups =
        core::ShardMap::resolve(options.partition_width,
                                options.run.tsu_groups, options.run.shards)
            .num_shards();
    const std::uint16_t roles =
        static_cast<std::uint16_t>(options.partition_width + groups);
    for (const core::TenantPartition& part : plan) {
      partitions.emplace_back();
      partitions.back().part = part;
    }
    for (Partition& p : partitions) {
      for (std::uint16_t r = 0; r < roles; ++r) p.channels.emplace_back();
      for (std::uint16_t r = 0; r < roles; ++r) {
        p.threads.emplace_back([this, &p, r, groups] { worker(p, r, groups); });
      }
    }
    dispatcher_ = std::thread([this] { dispatch_loop(); });
  }

  ~Impl() {
    drain();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true, std::memory_order_release);
    }
    dispatch_cv_.notify_all();
    queue_cv_.notify_all();
    dispatcher_.join();
    for (Partition& p : partitions) {
      for (WorkerChannel& ch : p.channels) {
        // Empty lock/unlock: a worker between its predicate check and
        // its wait re-acquires this mutex, so after this pass every
        // waiter either saw the push that woke it or will observe
        // stop_ on its next predicate evaluation.
        { std::lock_guard<std::mutex> lock(ch.mutex); }
        ch.cv.notify_all();
      }
      for (std::thread& t : p.threads) t.join();
    }
  }

  void worker(Partition& p, std::uint16_t role, std::uint16_t groups) {
    if (options.run.pin_threads) {
      // Kernel roles pack onto the pool's kernel CPUs; emulator roles
      // follow after the pool, grouped by tenant.
      const unsigned cpu =
          role < options.partition_width
              ? static_cast<unsigned>(p.part.base + role)
              : static_cast<unsigned>(options.pool_kernels +
                                      p.part.tenant * groups +
                                      (role - options.partition_width));
      pin_self_to_cpu(cpu);
    }
    WorkerChannel& ch = p.channels[role];
    for (;;) {
      std::shared_ptr<Instance> inst;
      {
        std::unique_lock<std::mutex> lock(ch.mutex);
        ch.cv.wait(lock, [&] {
          return !ch.queue.empty() || stop_.load(std::memory_order_acquire);
        });
        if (ch.queue.empty()) return;  // stopped, inbox drained
        inst = std::move(ch.queue.front());
        ch.queue.pop_front();
      }
      bool expected = false;
      if (inst->started.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
        inst->started_at = std::chrono::steady_clock::now();
      }
      if (role < options.partition_width) {
        inst->frame.kernels()[role].run();
      } else {
        inst->frame.emulators()[role - options.partition_width].run();
      }
      if (inst->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        finalize(p, *inst);
      }
    }
  }

  /// Called by the last worker out of an instance; fills the trace and
  /// the result, releases the handle and the partition slot.
  void finalize(Partition& p, Instance& inst) {
    const auto t1 = std::chrono::steady_clock::now();
    inst.frame.finish_trace();

    RunResult result;
    result.instance = inst.ticket;
    result.handle = inst.handle;
    result.tenant = inst.tenant;
    result.completed_at = t1;
    result.queue_seconds =
        std::chrono::duration<double>(inst.started_at - inst.submitted_at)
            .count();
    result.run_seconds =
        std::chrono::duration<double>(t1 - inst.started_at).count();
    result.latency_seconds =
        std::chrono::duration<double>(t1 - inst.submitted_at).count();
    result.stats = inst.frame.stats(result.run_seconds);
    result.guard_clean = result.stats.guard_violations.empty();
    latency_.add(result.latency_seconds);
    {
      std::lock_guard<std::mutex> lock(mu_);
      handle_busy_[inst.handle] = false;
      --p.inflight;
      ++p.runs;
      p.busy_seconds += result.run_seconds;
      ++completed_;
      --outstanding_;
      result.stats.epoch = epoch_;
    }
    inst.promise.set_value(std::move(result));
    dispatch_cv_.notify_one();
    drain_cv_.notify_all();
  }

  /// Under mu_: first queued request that can start now, and the
  /// partition it should start on. Requests whose program is already
  /// in flight are skipped, not blocked on - a busy handle must not
  /// head-of-line-block other tenants' work.
  bool pick_admissible(std::size_t& index_out, std::size_t& partition_out) {
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const Pending& pend = queue_[i];
      if (handle_busy_[pend.request.handle]) continue;
      std::size_t best = partitions.size();
      if (pend.request.tenant >= 0) {
        const auto t = static_cast<std::size_t>(pend.request.tenant);
        if (partitions[t].inflight < options.stage_depth) best = t;
      } else {
        // Least-loaded partition, ties broken toward the tenant with
        // the fewest completed runs so long-run throughput stays fair.
        for (std::size_t t = 0; t < partitions.size(); ++t) {
          if (partitions[t].inflight >= options.stage_depth) continue;
          if (best == partitions.size() ||
              partitions[t].inflight < partitions[best].inflight ||
              (partitions[t].inflight == partitions[best].inflight &&
               partitions[t].runs < partitions[best].runs)) {
            best = t;
          }
        }
      }
      if (best < partitions.size()) {
        index_out = i;
        partition_out = best;
        return true;
      }
    }
    return false;
  }

  void dispatch_loop() {
    for (;;) {
      Pending pend;
      std::size_t index = 0;
      std::size_t target = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        dispatch_cv_.wait(lock, [&] {
          return stop_.load(std::memory_order_acquire) ||
                 pick_admissible(index, target);
        });
        // Shutdown happens after drain(), so a stop with work still
        // queued is impossible; exit unconditionally.
        if (stop_.load(std::memory_order_acquire)) return;
        pend = std::move(queue_[index]);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
        // Reserve before unlocking so no other request is admitted to
        // the same handle or past the partition's stage depth.
        handle_busy_[pend.request.handle] = true;
        ++partitions[target].inflight;
      }
      queue_cv_.notify_one();  // a queue slot freed

      Partition& p = partitions[target];
      std::shared_ptr<Instance> inst;
      try {
        const core::RegisteredProgram& entry =
            registry.get(pend.request.handle);
        // Re-initialize this program's inputs. Safe without the lock:
        // runs of one handle are serialized (handle_busy_), so the
        // previous run has finalized before this reset touches the
        // buffers its DThreads captured.
        if (entry.reset) entry.reset();
        inst = std::make_shared<Instance>(*entry.program, run_options,
                                          pend.request, pend.ticket,
                                          p.part.tenant, pend.submitted_at);
      } catch (...) {
        pend.promise.set_exception(std::current_exception());
        {
          std::lock_guard<std::mutex> lock(mu_);
          handle_busy_[pend.request.handle] = false;
          --p.inflight;
          ++completed_;
          --outstanding_;
        }
        drain_cv_.notify_all();
        continue;
      }
      inst->promise = std::move(pend.promise);
      for (WorkerChannel& ch : p.channels) {
        {
          std::lock_guard<std::mutex> lock(ch.mutex);
          ch.queue.push_back(inst);
        }
        ch.cv.notify_one();
      }
    }
  }

  void validate_request(const RunRequest& request) {
    const core::RegisteredProgram& entry = registry.get(request.handle);
    const std::string err =
        core::tenant_admission_error(*entry.program, options.partition_width);
    if (!err.empty()) {
      throw core::TFluxError("Executor: cannot admit: " + err);
    }
    if (request.tenant >= 0 &&
        static_cast<std::size_t>(request.tenant) >= partitions.size()) {
      throw core::TFluxError(
          "Executor: tenant pin " + std::to_string(request.tenant) +
          " out of range (pool has " + std::to_string(partitions.size()) +
          " partition(s))");
    }
  }

  /// Under mu_ with space available: append the request and account it.
  std::future<RunResult> enqueue_locked(const RunRequest& request) {
    Pending pend;
    pend.request = request;
    pend.ticket = next_ticket_++;
    pend.submitted_at = std::chrono::steady_clock::now();
    std::future<RunResult> future = pend.promise.get_future();
    if (request.handle >= handle_busy_.size()) {
      handle_busy_.resize(request.handle + 1, false);
    }
    queue_.push_back(std::move(pend));
    ++submitted_;
    ++outstanding_;
    queue_depth_peak_ = std::max(queue_depth_peak_, queue_.size());
    return future;
  }

  void drain() {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [&] { return outstanding_ == 0; });
  }
};

Executor::Executor(core::ProgramRegistry& registry, ExecutorOptions options)
    : impl_(std::make_unique<Impl>(registry, options)) {}

Executor::~Executor() = default;

std::future<RunResult> Executor::submit(const RunRequest& request) {
  impl_->validate_request(request);
  std::future<RunResult> future;
  {
    std::unique_lock<std::mutex> lock(impl_->mu_);
    impl_->queue_cv_.wait(lock, [&] {
      return impl_->stop_.load(std::memory_order_acquire) ||
             impl_->queue_.size() < impl_->options.queue_capacity;
    });
    if (impl_->stop_.load(std::memory_order_acquire)) {
      throw core::TFluxError("Executor: submit after shutdown");
    }
    future = impl_->enqueue_locked(request);
  }
  impl_->dispatch_cv_.notify_one();
  return future;
}

std::optional<std::future<RunResult>> Executor::try_submit(
    const RunRequest& request) {
  impl_->validate_request(request);
  std::optional<std::future<RunResult>> future;
  {
    std::lock_guard<std::mutex> lock(impl_->mu_);
    if (impl_->stop_.load(std::memory_order_acquire)) {
      throw core::TFluxError("Executor: submit after shutdown");
    }
    if (impl_->queue_.size() >= impl_->options.queue_capacity) {
      ++impl_->rejected_;
      return std::nullopt;
    }
    future = impl_->enqueue_locked(request);
  }
  impl_->dispatch_cv_.notify_one();
  return future;
}

void Executor::drain() { impl_->drain(); }

ExecutorStats Executor::stats() const {
  ExecutorStats s;
  {
    std::lock_guard<std::mutex> lock(impl_->mu_);
    s.submitted = impl_->submitted_;
    s.completed = impl_->completed_;
    s.rejected = impl_->rejected_;
    s.queue_depth = impl_->queue_.size();
    s.queue_depth_peak = impl_->queue_depth_peak_;
    s.epoch = impl_->epoch_;
    s.tenants.reserve(impl_->partitions.size());
    for (const Impl::Partition& p : impl_->partitions) {
      s.tenants.push_back(core::TenantShare{
          .tenant = p.part.tenant,
          .runs = p.runs,
          .busy_seconds = p.busy_seconds,
      });
    }
  }
  s.latency = impl_->latency_.summary();
  return s;
}

void Executor::reset_stats_epoch() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu_);
    impl_->submitted_ = 0;
    impl_->completed_ = 0;
    impl_->rejected_ = 0;
    impl_->queue_depth_peak_ = impl_->queue_.size();
    ++impl_->epoch_;
    for (Impl::Partition& p : impl_->partitions) {
      p.runs = 0;
      p.busy_seconds = 0.0;
    }
  }
  impl_->latency_.reset();
}

std::uint16_t Executor::num_tenants() const {
  return static_cast<std::uint16_t>(impl_->partitions.size());
}

const ExecutorOptions& Executor::options() const { return impl_->options; }

}  // namespace tflux::runtime
