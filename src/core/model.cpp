#include "core/model.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "core/error.h"

namespace tflux::core {

namespace {

std::string thread_ref(const Program& program, ThreadId tid) {
  if (tid == kInvalidThread || tid >= program.num_threads()) {
    return "thread <invalid>";
  }
  const DThread& t = program.thread(tid);
  return "thread " + std::to_string(tid) +
         (t.label.empty() ? "" : " '" + t.label + "'");
}

// Lifecycle packed into one byte: bits 0-2 the state, bit 3 ever
// dispatched, bit 4 ever executed. The ever-bits survive a mutated
// re-activation overwriting the state, which is exactly how the
// oracle recognizes a double dispatch / double execution.
enum : std::uint8_t {
  kNotLoaded = 0,
  kWaiting = 1,
  kReady = 2,
  kDispatched = 3,
  kExecuted = 4,
  kLifeMask = 0x07,
  kEverDispatched = 0x08,
  kEverExecuted = 0x10,
};

enum : std::uint8_t { kBlockPending = 0, kBlockActive = 1,
                      kBlockRetired = 2 };

/// One in-flight TUB message (kernel -> emulator).
struct Msg {
  enum Tag : std::uint8_t { kUpdateRun = 0, kInletLoaded = 1,
                            kOutletDone = 2 };
  std::uint8_t tag = kUpdateRun;
  std::uint32_t a = 0;  ///< producer / block
  std::uint32_t b = 0;  ///< run lo
  std::uint32_t c = 0;  ///< run hi

  friend bool operator==(const Msg&, const Msg&) = default;
};

/// One transition of the interleaving semantics.
struct Trans {
  enum Kind : std::uint8_t {
    kGrant = 0,    ///< emulator grants ready DThread `arg` to its home
    kExecute = 1,  ///< kernel `arg` executes its mailbox head
    kProcess = 2,  ///< emulator drains kernel `arg`'s TUB lane head
  };
  std::uint8_t kind = kGrant;
  std::uint32_t arg = 0;
};

struct State {
  std::vector<std::uint8_t> life;     ///< per thread, packed lifecycle
  std::vector<std::uint8_t> rc;       ///< remaining Ready Count
  std::vector<std::uint8_t> updates;  ///< updates received (activation)
  std::vector<std::uint8_t> bstate;   ///< per block
  std::uint16_t last_activated = kInvalidBlock;
  std::uint8_t fault_used = 0;        ///< one-shot mutation consumed
  std::uint32_t fault_victim = kInvalidThread;
  std::vector<std::deque<std::uint32_t>> mailbox;  ///< per kernel
  std::vector<std::deque<Msg>> lane;               ///< per kernel

  std::string encode() const {
    std::string out;
    out.reserve(life.size() * 3 + bstate.size() + 8 +
                mailbox.size() * 8 + lane.size() * 16);
    auto put16 = [&out](std::uint16_t v) {
      out.push_back(static_cast<char>(v & 0xff));
      out.push_back(static_cast<char>(v >> 8));
    };
    auto put32 = [&out](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
      }
    };
    out.append(life.begin(), life.end());
    out.append(rc.begin(), rc.end());
    out.append(updates.begin(), updates.end());
    out.append(bstate.begin(), bstate.end());
    put16(last_activated);
    out.push_back(static_cast<char>(fault_used));
    put32(fault_victim);
    for (const auto& box : mailbox) {
      put16(static_cast<std::uint16_t>(box.size()));
      for (std::uint32_t tid : box) put32(tid);
    }
    for (const auto& ln : lane) {
      put16(static_cast<std::uint16_t>(ln.size()));
      for (const Msg& m : ln) {
        out.push_back(static_cast<char>(m.tag));
        put32(m.a);
        put32(m.b);
        put32(m.c);
      }
    }
    return out;
  }
};

/// Sink for oracle trips and (during counterexample re-simulation)
/// trace records. During the BFS search `emit` stays false and the
/// first violation aborts the exploration; during the replay both the
/// violations and the synthetic records are collected.
struct Sink {
  bool emit = false;
  std::uint64_t step = 0;
  std::uint64_t next_seq = 1;
  std::uint32_t max_violations = 1;
  std::vector<ModelViolation> violations;
  std::vector<TraceRecord> records;

  bool full() const { return violations.size() >= max_violations; }

  void violate(FindingCode code, ThreadId thread, ThreadId other,
               BlockId block, std::string message) {
    if (full()) return;
    ModelViolation v;
    v.code = code;
    v.thread = thread;
    v.other = other;
    v.block = block;
    v.step = step;
    v.message = std::move(message);
    violations.push_back(std::move(v));
  }

  void record(TraceEvent event, std::uint16_t actor, std::uint32_t a,
              std::uint32_t b, std::uint32_t c = 0) {
    if (!emit) return;
    TraceRecord r;
    r.seq = next_seq++;
    r.event = event;
    r.actor = actor;
    r.a = a;
    r.b = b;
    r.c = c;
    records.push_back(r);
  }
};

class Model {
 public:
  Model(const Program& program, const ModelOptions& options)
      : program_(program), options_(options) {
    if (options_.kernels == 0) {
      throw TFluxError("ddmmodel: kernels must be >= 1");
    }
    if (program_.num_threads() == 0 || program_.num_blocks() == 0) {
      throw TFluxError("ddmmodel: program has no DThreads");
    }
    if (program_.num_threads() > 4096) {
      throw TFluxError(
          "ddmmodel: " + std::to_string(program_.num_threads()) +
          " DThread instances is beyond small-scope model checking; "
          "shrink the configuration (higher unroll, smaller size)");
    }
    for (const DThread& t : program_.threads()) {
      if (t.ready_count_init > 250) {
        throw TFluxError(
            "ddmmodel: " + thread_ref(program_, t.id) +
            " has initial Ready Count " +
            std::to_string(t.ready_count_init) +
            "; the model caps counts at 250 - shrink the fan-in");
      }
    }
  }

  State initial() const {
    State s;
    const std::uint32_t n = program_.num_threads();
    s.life.assign(n, kNotLoaded);
    s.rc.assign(n, 0);
    s.updates.assign(n, 0);
    s.bstate.assign(program_.num_blocks(), kBlockPending);
    s.mailbox.resize(options_.kernels);
    s.lane.resize(options_.kernels);
    // start(): the first block's Inlet is the only ready DThread.
    s.life[program_.block(0).inlet] = kReady;
    return s;
  }

  bool done(const State& s) const {
    for (std::uint8_t b : s.bstate) {
      if (b != kBlockRetired) return false;
    }
    for (std::uint8_t l : s.life) {
      if ((l & kLifeMask) != kExecuted) return false;
    }
    for (const auto& box : s.mailbox) {
      if (!box.empty()) return false;
    }
    for (const auto& ln : s.lane) {
      if (!ln.empty()) return false;
    }
    return true;
  }

  /// All enabled transitions, in a stable order (grants by thread id,
  /// executes and processes by kernel id) so BFS paths and the
  /// deterministic epilogue are reproducible.
  std::vector<Trans> enabled(const State& s) const {
    std::vector<Trans> out;
    if (options_.por && options_.mutation == ModelMutation::kNone) {
      const std::uint16_t ample = ample_process(s);
      if (ample != options_.kernels) {
        out.push_back(Trans{Trans::kProcess, ample});
        return out;
      }
    }
    for (ThreadId tid = 0; tid < program_.num_threads(); ++tid) {
      if ((s.life[tid] & kLifeMask) == kReady) {
        out.push_back(Trans{Trans::kGrant, tid});
      }
    }
    for (std::uint16_t k = 0; k < options_.kernels; ++k) {
      if (!s.mailbox[k].empty()) out.push_back(Trans{Trans::kExecute, k});
    }
    for (std::uint16_t k = 0; k < options_.kernels; ++k) {
      if (!s.lane[k].empty()) out.push_back(Trans{Trans::kProcess, k});
    }
    return out;
  }

  bool por_reduced(const State& s) const {
    return options_.por && options_.mutation == ModelMutation::kNone &&
           ample_process(s) != options_.kernels;
  }

  /// Apply one transition in place. Oracle trips go to `sink`; the
  /// caller decides whether a trip aborts the search.
  void apply(State& s, const Trans& t, Sink& sink) const {
    switch (t.kind) {
      case Trans::kGrant:
        grant(s, t.arg, sink);
        break;
      case Trans::kExecute:
        execute(s, static_cast<std::uint16_t>(t.arg), sink);
        break;
      case Trans::kProcess:
        process(s, static_cast<std::uint16_t>(t.arg), sink);
        break;
    }
  }

  const ModelOptions& options() const { return options_; }
  const Program& program() const { return program_; }

  KernelId home_of(ThreadId tid) const {
    const KernelId home = program_.thread(tid).home_kernel;
    // The runtime's TKT clamp: a home beyond the run's kernel count
    // folds to kernel 0 (check_trace applies the same rule).
    return home < options_.kernels ? home : KernelId{0};
  }

  std::uint16_t emulator_lane() const { return options_.kernels; }

 private:
  /// The partial-order reduction: kernel whose TUB lane head is a
  /// "safe" update run, or options_.kernels when none qualifies. A
  /// head is safe when every consumer's block is active and no Outlet
  /// completion is anywhere in flight (ready, mailboxed, or as an
  /// OutletDone message): then applying it only moves Ready Counts of
  /// live instances, which commutes with every other enabled
  /// transition - grants and executions do not touch the SM, other
  /// update runs commute on the count algebra, and no retire or
  /// (necessarily stale, hence skipped) activation can touch the
  /// consumers' blocks first.
  std::uint16_t ample_process(const State& s) const {
    for (ThreadId tid = 0; tid < program_.num_threads(); ++tid) {
      if (program_.thread(tid).kind != ThreadKind::kOutlet) continue;
      const std::uint8_t st = s.life[tid] & kLifeMask;
      if (st == kReady || st == kDispatched) return options_.kernels;
    }
    for (std::uint16_t k = 0; k < options_.kernels; ++k) {
      for (const Msg& m : s.lane[k]) {
        if (m.tag == Msg::kOutletDone) return options_.kernels;
      }
    }
    for (std::uint16_t k = 0; k < options_.kernels; ++k) {
      if (s.lane[k].empty()) continue;
      const Msg& m = s.lane[k].front();
      if (m.tag != Msg::kUpdateRun) continue;
      bool safe = true;
      for (std::uint32_t c = m.b; c <= m.c; ++c) {
        if (c >= program_.num_threads() ||
            s.bstate[program_.thread(c).block] != kBlockActive) {
          safe = false;
          break;
        }
      }
      if (safe) return k;
    }
    return options_.kernels;
  }

  void grant(State& s, ThreadId tid, Sink& sink) const {
    const DThread& t = program_.thread(tid);
    sink.record(TraceEvent::kDispatch, emulator_lane(), tid, home_of(tid));
    if (s.life[tid] & kEverDispatched) {
      sink.violate(FindingCode::kDoubleDispatch, tid, kInvalidThread,
                   t.block,
                   thread_ref(program_, tid) +
                       " was granted to a kernel twice; the ready set "
                       "must hand out each instance exactly once");
    } else if (s.updates[tid] < t.ready_count_init) {
      sink.violate(
          FindingCode::kPrematureDispatch, tid, kInvalidThread, t.block,
          thread_ref(program_, tid) + " was dispatched after " +
              std::to_string(s.updates[tid]) + " of " +
              std::to_string(t.ready_count_init) +
              " update(s); its Ready Count had not reached zero");
    }
    s.mailbox[home_of(tid)].push_back(tid);
    if (options_.mutation == ModelMutation::kUnorderedGrant &&
        !s.fault_used) {
      // Guard dropped once: the grant leaves the instance in the
      // ready set, so a second grant of the same DThread can follow.
      s.fault_used = 1;
      s.fault_victim = tid;
      s.life[tid] = static_cast<std::uint8_t>(kReady | kEverDispatched |
                                              (s.life[tid] & kEverExecuted));
      return;
    }
    s.life[tid] = static_cast<std::uint8_t>(
        kDispatched | kEverDispatched |
        (s.life[tid] & (kEverDispatched | kEverExecuted)));
  }

  void execute(State& s, std::uint16_t k, Sink& sink) const {
    const ThreadId tid = s.mailbox[k].front();
    s.mailbox[k].pop_front();
    const DThread& t = program_.thread(tid);
    sink.record(TraceEvent::kComplete, k, tid, t.block);
    if (s.life[tid] & kEverExecuted) {
      sink.violate(FindingCode::kDoubleExecution, tid, kInvalidThread,
                   t.block,
                   thread_ref(program_, tid) +
                       " executed twice; DDM guarantees exactly-once "
                       "execution per DThread");
    }
    s.life[tid] = static_cast<std::uint8_t>(
        kExecuted | kEverExecuted |
        (s.life[tid] & (kEverDispatched | kEverExecuted)));
    switch (t.kind) {
      case ThreadKind::kApplication: {
        publish_runs(s, k, t);
        if (options_.mutation == ModelMutation::kDoublePublish &&
            !s.fault_used && !t.consumer_runs.empty()) {
          // Guard dropped once: the completion publishes its update
          // runs a second time.
          s.fault_used = 1;
          publish_runs(s, k, t);
        }
        break;
      }
      case ThreadKind::kInlet:
        s.lane[k].push_back(Msg{Msg::kInletLoaded, t.block, 0, 0});
        break;
      case ThreadKind::kOutlet:
        sink.record(TraceEvent::kOutletDone, k, t.block, 0);
        s.lane[k].push_back(Msg{Msg::kOutletDone, t.block, 0, 0});
        break;
    }
  }

  void publish_runs(State& s, std::uint16_t k, const DThread& t) const {
    for (const DThread::ConsumerRun& run : t.consumer_runs) {
      s.lane[k].push_back(Msg{Msg::kUpdateRun, t.id, run.lo, run.hi});
    }
  }

  void process(State& s, std::uint16_t k, Sink& sink) const {
    const Msg m = s.lane[k].front();
    s.lane[k].pop_front();
    switch (m.tag) {
      case Msg::kUpdateRun: {
        if (m.b == m.c) {
          sink.record(TraceEvent::kUpdate, k, m.a, m.b);
        } else {
          sink.record(TraceEvent::kRangeUpdate, k, m.a, m.b, m.c);
        }
        for (std::uint32_t c = m.b; c <= m.c; ++c) {
          apply_update(s, m.a, c, sink);
        }
        break;
      }
      case Msg::kInletLoaded: {
        const auto block = static_cast<BlockId>(m.a);
        if (s.last_activated != kInvalidBlock &&
            block <= s.last_activated) {
          // The stale-Inlet guard: the block was already activated
          // (promoted ahead by the pipelined path, or this load is a
          // replayed duplicate) - the redundant load must be dropped.
          if (options_.mutation == ModelMutation::kDropRetireGuard &&
              !s.fault_used) {
            // The PR 4 bug, re-created: the stale load re-activates
            // the block and re-initializes its Ready Counts, so
            // already-executed zero-RC DThreads re-enter the ready
            // pool. No oracle trips *here* - the search runs on until
            // the consequence (a double dispatch, then a double
            // execution) manifests, so the counterexample is the full
            // regression, not just the bad activation. The replayed
            // trace additionally shows ddmcheck the non-ascending
            // inlet-load.
            s.fault_used = 1;
            sink.record(TraceEvent::kInletLoad, emulator_lane(), block, 0);
            activate(s, block);
          }
          break;
        }
        sink.record(TraceEvent::kInletLoad, emulator_lane(), block, 0);
        s.last_activated = block;
        activate(s, block);
        break;
      }
      case Msg::kOutletDone: {
        const auto block = static_cast<BlockId>(m.a);
        if (s.bstate[block] != kBlockActive) {
          sink.violate(FindingCode::kBlockLifecycle, kInvalidThread,
                       kInvalidThread, block,
                       "OutletDone for block " + std::to_string(block) +
                           " which is not active; blocks retire exactly "
                           "once, in declaration order");
        }
        s.bstate[block] = kBlockRetired;
        if (options_.mutation == ModelMutation::kReplayStaleUpdate &&
            !s.fault_used) {
          // Guard dropped once: an already-applied update run of the
          // retired block is re-injected behind the retire. Pick a
          // run with an application consumer - that is the stale-
          // generation class both this oracle and ddmcheck flag as
          // block-lifecycle (Outlet-only runs fall under the surplus-
          // update rule instead). A block with no app->app arc leaves
          // the fault unconsumed for a later block's retire.
          [&] {
            for (ThreadId tid : program_.block(block).app_threads) {
              const DThread& t = program_.thread(tid);
              for (const DThread::ConsumerRun& run : t.consumer_runs) {
                for (std::uint32_t c = run.lo; c <= run.hi; ++c) {
                  if (program_.thread(c).kind !=
                      ThreadKind::kApplication) {
                    continue;
                  }
                  s.fault_used = 1;
                  s.lane[k].push_back(
                      Msg{Msg::kUpdateRun, tid, run.lo, run.hi});
                  return;
                }
              }
            }
          }();
        }
        if (block + 1u < program_.num_blocks()) {
          const auto next = static_cast<BlockId>(block + 1);
          if (options_.pipelined) {
            // PR 3 fast path: the shadow SM generation was prepared
            // ahead; OutletDone flips it and the next block's zero-RC
            // roots become ready without waiting for the Inlet body
            // (which still runs for accounting parity - its load
            // message arrives late and is skipped by the stale guard).
            sink.record(TraceEvent::kBlockPromote, emulator_lane(), next,
                        0);
            s.last_activated = next;
            activate(s, next);
            s.life[program_.block(next).inlet] = make_ready_life(
                s.life[program_.block(next).inlet]);
          } else {
            s.life[program_.block(next).inlet] = make_ready_life(
                s.life[program_.block(next).inlet]);
          }
        }
        break;
      }
    }
  }

  static std::uint8_t make_ready_life(std::uint8_t prev) {
    return static_cast<std::uint8_t>(
        kReady | (prev & (kEverDispatched | kEverExecuted)));
  }

  /// Initialize `block`'s Synchronization Memory entries and ready its
  /// zero-RC application threads (and a zero-sink Outlet). The caller
  /// has already recorded the activation event and updated the
  /// watermark.
  void activate(State& s, BlockId block) const {
    s.bstate[block] = kBlockActive;
    const Block& blk = program_.block(block);
    const bool zeroed =
        options_.mutation == ModelMutation::kSkipShadowPromote &&
        options_.pipelined && !s.fault_used && block > 0;
    for (ThreadId tid : blk.app_threads) {
      const std::uint32_t init =
          zeroed ? 0 : program_.thread(tid).ready_count_init;
      s.rc[tid] = static_cast<std::uint8_t>(init);
      s.updates[tid] = 0;
      s.life[tid] = init == 0
                        ? make_ready_life(s.life[tid])
                        : static_cast<std::uint8_t>(
                              kWaiting |
                              (s.life[tid] &
                               (kEverDispatched | kEverExecuted)));
    }
    const std::uint32_t outlet_init = zeroed ? 0 : blk.sink_count;
    s.rc[blk.outlet] = static_cast<std::uint8_t>(outlet_init);
    s.updates[blk.outlet] = 0;
    s.life[blk.outlet] =
        outlet_init == 0
            ? make_ready_life(s.life[blk.outlet])
            : static_cast<std::uint8_t>(
                  kWaiting | (s.life[blk.outlet] &
                              (kEverDispatched | kEverExecuted)));
    if (zeroed) {
      // One-shot: only the first promoted block gets the zeroed
      // generation.
      s.fault_used = 1;
    }
  }

  void apply_update(State& s, ThreadId producer, ThreadId consumer,
                    Sink& sink) const {
    const DThread& c = program_.thread(consumer);
    if (s.bstate[c.block] == kBlockRetired &&
        c.kind == ThreadKind::kApplication) {
      // Application consumers only, mirroring check_trace: an Outlet
      // consumer on a retired block falls through to the surplus-
      // update oracle instead (same code ddmcheck assigns).
      sink.violate(FindingCode::kBlockLifecycle, consumer, producer,
                   c.block,
                   "update " + thread_ref(program_, producer) + " -> " +
                       thread_ref(program_, consumer) +
                       " landed on block " + std::to_string(c.block) +
                       " after it retired; the decrement would hit a "
                       "reloaded SM generation");
      return;
    }
    if (s.updates[consumer] >= c.ready_count_init) {
      sink.violate(FindingCode::kNegativeReadyCount, consumer, producer,
                   c.block,
                   thread_ref(program_, consumer) + " received " +
                       std::to_string(s.updates[consumer] + 1) +
                       " update(s) against an initial Ready Count of " +
                       std::to_string(c.ready_count_init) +
                       "; the count went negative");
      if (s.updates[consumer] < 250) ++s.updates[consumer];
      return;
    }
    ++s.updates[consumer];
    if (s.rc[consumer] > 0) {
      --s.rc[consumer];
      if (s.rc[consumer] == 0 &&
          (s.life[consumer] & kLifeMask) == kWaiting) {
        s.life[consumer] = make_ready_life(s.life[consumer]);
      }
    }
  }

  const Program& program_;
  ModelOptions options_;
};

/// Deterministic continuation after the first violation (or from the
/// initial state, to materialize one canonical full execution):
/// drain TUB lanes first, then mailboxes, then grants, lowest id
/// first. Returns true when the run reached the final state.
bool run_deterministic(const Model& model, State s, Sink& sink,
                       std::uint32_t max_steps) {
  for (std::uint32_t step = 0; step < max_steps; ++step) {
    if (model.done(s)) return true;
    std::vector<Trans> moves = model.enabled(s);
    if (moves.empty()) return false;
    // Fixed priority: process < execute < grant keeps the epilogue
    // draining toward quiescence instead of fanning out new work.
    const Trans* pick = &moves.front();
    for (const Trans& t : moves) {
      if (t.kind == Trans::kProcess) {
        pick = &t;
        break;
      }
      if (t.kind == Trans::kExecute && pick->kind == Trans::kGrant) {
        pick = &t;
      }
    }
    ++sink.step;
    model.apply(s, *pick, sink);
  }
  return model.done(s);
}

ExecTrace make_trace_shell(const Program& program,
                           const ModelOptions& options) {
  ExecTrace trace;
  trace.program = program.name();
  trace.kernels = options.kernels;
  trace.groups = 1;
  trace.policy = "model";
  trace.pipelined = options.pipelined;
  trace.lockfree = true;
  trace.dataplane = false;
  return trace;
}

}  // namespace

const char* to_string(ModelMutation mutation) {
  switch (mutation) {
    case ModelMutation::kNone:
      return "none";
    case ModelMutation::kDropRetireGuard:
      return "drop-retire-guard";
    case ModelMutation::kSkipShadowPromote:
      return "skip-shadow-promote";
    case ModelMutation::kUnorderedGrant:
      return "unordered-grant";
    case ModelMutation::kDoublePublish:
      return "double-publish";
    case ModelMutation::kReplayStaleUpdate:
      return "replay-stale-update";
  }
  return "?";
}

bool parse_model_mutation(const std::string& name, ModelMutation& out) {
  for (ModelMutation m : all_model_mutations()) {
    if (name == to_string(m)) {
      out = m;
      return true;
    }
  }
  if (name == "none") {
    out = ModelMutation::kNone;
    return true;
  }
  return false;
}

std::vector<ModelMutation> all_model_mutations() {
  return {ModelMutation::kDropRetireGuard, ModelMutation::kSkipShadowPromote,
          ModelMutation::kUnorderedGrant, ModelMutation::kDoublePublish,
          ModelMutation::kReplayStaleUpdate};
}

const char* to_string(ModelVerdict verdict) {
  switch (verdict) {
    case ModelVerdict::kClean:
      return "clean";
    case ModelVerdict::kViolation:
      return "violation";
    case ModelVerdict::kDeadlock:
      return "deadlock";
    case ModelVerdict::kBounded:
      return "bounded";
  }
  return "?";
}

std::string ModelViolation::to_string(const Program& program) const {
  std::ostringstream out;
  out << "[" << core::to_string(code) << "] step " << step;
  if (block != kInvalidBlock) out << ", block " << block;
  if (thread != kInvalidThread) {
    out << ", " << thread_ref(program, thread);
  }
  out << ": " << message;
  return out.str();
}

std::string ModelReport::to_string(const Program& program) const {
  std::ostringstream out;
  for (const ModelViolation& v : violations) {
    out << v.to_string(program) << "\n";
  }
  out << "ddmmodel: " << core::to_string(verdict) << " - "
      << states_explored << " state(s) explored, " << states_deduped
      << " deduped, " << transitions << " transition(s), depth " << depth;
  if (por_ample_hits != 0) out << ", " << por_ample_hits << " POR-reduced";
  out << ", program '" << program.name() << "'\n";
  return out.str();
}

ModelReport check_model(const Program& program,
                        const ModelOptions& options) {
  const Model model(program, options);
  ModelReport report;

  struct Node {
    std::int64_t parent = -1;
    Trans via;
    std::uint32_t depth = 0;
  };
  std::vector<Node> nodes;
  std::unordered_map<std::string, std::uint32_t> seen;
  std::deque<std::pair<std::uint32_t, State>> frontier;

  State init = model.initial();
  seen.emplace(init.encode(), 0);
  nodes.push_back(Node{});
  frontier.emplace_back(0, std::move(init));

  // Counterexample bookkeeping: the node we violated/deadlocked from
  // and (for violations) the transition that tripped the oracle.
  bool found = false;
  bool found_deadlock = false;
  std::uint32_t cex_node = 0;
  Trans cex_trans;

  while (!frontier.empty() && !found) {
    auto [idx, state] = std::move(frontier.front());
    frontier.pop_front();
    ++report.states_explored;
    report.depth = std::max(report.depth, nodes[idx].depth);
    if (options.max_states != 0 &&
        report.states_explored > options.max_states) {
      report.verdict = ModelVerdict::kBounded;
      return report;
    }

    const std::vector<Trans> moves = model.enabled(state);
    if (moves.empty()) {
      if (!model.done(state)) {
        found = true;
        found_deadlock = true;
        cex_node = idx;
      }
      continue;
    }
    if (model.por_reduced(state)) ++report.por_ample_hits;
    for (const Trans& t : moves) {
      State next = state;
      Sink probe;
      ++report.transitions;
      model.apply(next, t, probe);
      if (!probe.violations.empty()) {
        found = true;
        cex_node = idx;
        cex_trans = t;
        break;
      }
      std::string enc = next.encode();
      auto [it, inserted] =
          seen.emplace(std::move(enc),
                       static_cast<std::uint32_t>(nodes.size()));
      if (!inserted) {
        ++report.states_deduped;
        continue;
      }
      nodes.push_back(Node{static_cast<std::int64_t>(idx), t,
                           nodes[idx].depth + 1});
      frontier.emplace_back(it->second, std::move(next));
    }
  }

  if (!found) {
    report.verdict = ModelVerdict::kClean;
    return report;
  }

  // Reconstruct the minimal schedule to the violating (or deadlocked)
  // state and re-simulate it with record emission, then continue
  // deterministically so the downstream consequences (the PR 4 double
  // execution behind the stale activation) land in the same trace.
  std::vector<Trans> path;
  for (std::int64_t at = cex_node; nodes[at].parent >= 0;
       at = nodes[at].parent) {
    path.push_back(nodes[at].via);
  }
  std::reverse(path.begin(), path.end());

  Sink sink;
  sink.emit = true;
  sink.max_violations = std::max<std::uint32_t>(options.max_violations, 1);
  State s = model.initial();
  for (const Trans& t : path) {
    ++sink.step;
    model.apply(s, t, sink);
  }
  if (!found_deadlock) {
    ++sink.step;
    model.apply(s, cex_trans, sink);
  }
  const bool drained =
      found_deadlock
          ? false
          : run_deterministic(model, std::move(s), sink,
                              options.epilogue_steps);

  report.verdict =
      found_deadlock ? ModelVerdict::kDeadlock : ModelVerdict::kViolation;
  report.depth = static_cast<std::uint32_t>(path.size()) +
                 (found_deadlock ? 0 : 1);
  if (found_deadlock) {
    ModelViolation v;
    v.code = FindingCode::kTruncatedTrace;
    v.step = path.size();
    v.message =
        "deadlock: no transition is enabled but the program has not "
        "completed (" +
        std::to_string(path.size()) + " step(s) from the initial state)";
    report.violations.push_back(std::move(v));
  }
  for (ModelViolation& v : sink.violations) {
    report.violations.push_back(std::move(v));
  }
  report.counterexample = make_trace_shell(program, options);
  report.counterexample.records = std::move(sink.records);
  report.counterexample.truncated = !drained;
  report.has_counterexample = true;
  return report;
}

}  // namespace tflux::core
