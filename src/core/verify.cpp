#include "core/verify.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <sstream>
#include <utility>

#include "core/dataplane.h"
#include "core/executor.h"
#include "core/topology.h"

namespace tflux::core {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

const char* to_string(Diag code) {
  switch (code) {
    case Diag::kReadyCountMismatch:
      return "ready-count-mismatch";
    case Diag::kOrphanThread:
      return "orphan-thread";
    case Diag::kOutletReadyCountMismatch:
      return "outlet-ready-count-mismatch";
    case Diag::kInletNotQuiescent:
      return "inlet-not-quiescent";
    case Diag::kIntraBlockCycle:
      return "intra-block-cycle";
    case Diag::kBackwardCrossBlockArc:
      return "backward-cross-block-arc";
    case Diag::kSameBlockCrossArc:
      return "same-block-cross-arc";
    case Diag::kDanglingArc:
      return "dangling-arc";
    case Diag::kEmptyBlock:
      return "empty-block";
    case Diag::kFootprintRace:
      return "footprint-race";
    case Diag::kEmptyRange:
      return "empty-range";
    case Diag::kRangeOverflow:
      return "range-overflow";
    case Diag::kRaceCheckSkipped:
      return "race-check-skipped";
    case Diag::kCapacityExceeded:
      return "capacity-exceeded";
    case Diag::kHomeKernelOutOfRange:
      return "home-kernel-out-of-range";
    case Diag::kHomeKernelUnassigned:
      return "home-kernel-unassigned";
    case Diag::kLaneCapacityStall:
      return "lane-capacity-stall";
    case Diag::kStallProneBlock:
      return "stall-prone-block";
    case Diag::kCoalescableArcs:
      return "coalescable-arcs";
    case Diag::kGuardHotspot:
      return "guard-hotspot";
    case Diag::kShardImbalance:
      return "shard-imbalance";
    case Diag::kAffinitySplit:
      return "affinity-split";
    case Diag::kDeadFootprint:
      return "dead-footprint";
    case Diag::kTenantCapacity:
      return "tenant-capacity";
  }
  return "?";
}

namespace {

std::string thread_ref(const Program& program, ThreadId tid) {
  if (tid == kInvalidThread || tid >= program.num_threads()) {
    return "thread <invalid>";
  }
  const DThread& t = program.thread(tid);
  return "thread " + std::to_string(tid) +
         (t.label.empty() ? "" : " '" + t.label + "'");
}

class Reporter {
 public:
  explicit Reporter(VerifyReport& report) : report_(report) {}

  void add(Severity severity, Diag code, ThreadId thread, ThreadId other,
           BlockId block, std::string message) {
    Diagnostic d;
    d.severity = severity;
    d.code = code;
    d.thread = thread;
    d.other = other;
    d.block = block;
    d.message = std::move(message);
    if (severity == Severity::kError) {
      ++report_.num_errors;
    } else {
      ++report_.num_warnings;
    }
    report_.diagnostics.push_back(std::move(d));
  }

  void error(Diag code, ThreadId thread, BlockId block, std::string message) {
    add(Severity::kError, code, thread, kInvalidThread, block,
        std::move(message));
  }

  void warn(Diag code, ThreadId thread, BlockId block, std::string message) {
    add(Severity::kWarning, code, thread, kInvalidThread, block,
        std::move(message));
  }

 private:
  VerifyReport& report_;
};

/// Per-block view used by several passes: the block's application
/// threads with a dense local index, recomputed producer in-degrees,
/// and the intra-block application-to-application edges.
struct BlockView {
  const Block* block = nullptr;
  std::vector<ThreadId> threads;              // app threads, ascending id
  std::map<ThreadId, std::uint32_t> index;    // ThreadId -> dense index
  std::vector<std::vector<std::uint32_t>> succ;  // dense app-app edges
  std::vector<std::uint32_t> indeg;           // distinct app producers
  std::vector<std::uint32_t> topo;            // Kahn order (dense ids)
  bool acyclic = false;
};

BlockView make_view(const Program& program, const Block& blk) {
  BlockView v;
  v.block = &blk;
  v.threads = blk.app_threads;
  std::sort(v.threads.begin(), v.threads.end());
  for (std::uint32_t i = 0; i < v.threads.size(); ++i) {
    v.index[v.threads[i]] = i;
  }
  v.succ.resize(v.threads.size());
  v.indeg.assign(v.threads.size(), 0);
  for (std::uint32_t i = 0; i < v.threads.size(); ++i) {
    const DThread& t = program.thread(v.threads[i]);
    // Deduplicate defensively: verify must not assume the builder's
    // sorted-unique consumer invariant held up.
    std::vector<ThreadId> consumers = t.consumers;
    std::sort(consumers.begin(), consumers.end());
    consumers.erase(std::unique(consumers.begin(), consumers.end()),
                    consumers.end());
    for (ThreadId c : consumers) {
      auto it = v.index.find(c);
      if (it == v.index.end()) continue;  // outlet or foreign id
      v.succ[i].push_back(it->second);
      ++v.indeg[it->second];
    }
  }
  // Kahn's algorithm over the recomputed in-degrees.
  std::vector<std::uint32_t> indeg = v.indeg;
  std::queue<std::uint32_t> zero;
  for (std::uint32_t i = 0; i < indeg.size(); ++i) {
    if (indeg[i] == 0) zero.push(i);
  }
  while (!zero.empty()) {
    const std::uint32_t u = zero.front();
    zero.pop();
    v.topo.push_back(u);
    for (std::uint32_t c : v.succ[u]) {
      if (--indeg[c] == 0) zero.push(c);
    }
  }
  v.acyclic = v.topo.size() == v.threads.size();
  return v;
}

/// Find one concrete dependency cycle among the block's unordered
/// threads (those Kahn could not place), for the diagnostic message.
std::vector<ThreadId> find_cycle(const BlockView& v) {
  std::vector<bool> in_topo(v.threads.size(), false);
  for (std::uint32_t u : v.topo) in_topo[u] = true;
  // Walk successors restricted to unordered nodes until a repeat.
  std::uint32_t start = 0;
  while (start < v.threads.size() && in_topo[start]) ++start;
  if (start >= v.threads.size()) return {};
  std::vector<std::uint32_t> path;
  std::vector<std::int32_t> visited_at(v.threads.size(), -1);
  std::uint32_t u = start;
  while (visited_at[u] < 0) {
    visited_at[u] = static_cast<std::int32_t>(path.size());
    path.push_back(u);
    std::uint32_t next = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t c : v.succ[u]) {
      if (!in_topo[c]) {
        next = c;
        break;
      }
    }
    if (next == std::numeric_limits<std::uint32_t>::max()) return {};
    u = next;
  }
  std::vector<ThreadId> cycle;
  for (std::size_t i = static_cast<std::size_t>(visited_at[u]);
       i < path.size(); ++i) {
    cycle.push_back(v.threads[path[i]]);
  }
  return cycle;
}

void check_ready_counts(const Program& program, const BlockView& v,
                        Reporter& out) {
  for (std::uint32_t i = 0; i < v.threads.size(); ++i) {
    const DThread& t = program.thread(v.threads[i]);
    if (t.ready_count_init == v.indeg[i]) continue;
    if (t.ready_count_init < v.indeg[i]) {
      out.error(Diag::kReadyCountMismatch, t.id, t.block,
                thread_ref(program, t.id) + " has initial Ready Count " +
                    std::to_string(t.ready_count_init) + " but " +
                    std::to_string(v.indeg[i]) +
                    " distinct same-block producers; it becomes ready "
                    "before all its inputs exist (nondeterministic read)");
    } else {
      out.error(Diag::kOrphanThread, t.id, t.block,
                thread_ref(program, t.id) + " has initial Ready Count " +
                    std::to_string(t.ready_count_init) + " but only " +
                    std::to_string(v.indeg[i]) +
                    " distinct same-block producers; the count can never "
                    "reach zero and the thread (and its dependents) "
                    "deadlocks");
    }
  }
}

void check_inlet_outlet(const Program& program, const BlockView& v,
                        Reporter& out) {
  const Block& blk = *v.block;
  if (blk.inlet != kInvalidThread && blk.inlet < program.num_threads()) {
    const DThread& inlet = program.thread(blk.inlet);
    if (inlet.ready_count_init != 0 || !inlet.consumers.empty()) {
      out.error(Diag::kInletNotQuiescent, inlet.id, blk.id,
                thread_ref(program, inlet.id) +
                    " must have Ready Count 0 and no consumer list (the "
                    "TSU drives block chaining itself)");
    }
  }
  if (blk.outlet == kInvalidThread || blk.outlet >= program.num_threads()) {
    return;
  }
  const DThread& outlet = program.thread(blk.outlet);
  // Recompute the sinks: application threads with no same-block
  // application consumer. Each must feed the Outlet, and the Outlet's
  // Ready Count must equal their number.
  std::uint32_t sinks = 0;
  for (std::uint32_t i = 0; i < v.threads.size(); ++i) {
    if (!v.succ[i].empty()) continue;
    ++sinks;
    const DThread& t = program.thread(v.threads[i]);
    if (std::find(t.consumers.begin(), t.consumers.end(), blk.outlet) ==
        t.consumers.end()) {
      out.error(Diag::kOutletReadyCountMismatch, t.id, blk.id,
                thread_ref(program, t.id) +
                    " is a sink (no same-block consumers) but does not "
                    "feed the block's Outlet; the Outlet would fire "
                    "before the block completed");
    }
  }
  if (blk.sink_count != sinks) {
    out.error(Diag::kOutletReadyCountMismatch, outlet.id, blk.id,
              "block " + std::to_string(blk.id) + " records sink_count " +
                  std::to_string(blk.sink_count) + " but has " +
                  std::to_string(sinks) + " sink threads");
  }
  if (outlet.ready_count_init != sinks) {
    out.error(Diag::kOutletReadyCountMismatch, outlet.id, blk.id,
              thread_ref(program, outlet.id) + " has Ready Count " +
                  std::to_string(outlet.ready_count_init) + " but " +
                  std::to_string(sinks) +
                  " sink threads feed it; the block would " +
                  (outlet.ready_count_init > sinks ? "never complete"
                                                   : "complete early"));
  }
}

void check_consumers(const Program& program, Reporter& out) {
  for (const DThread& t : program.threads()) {
    for (ThreadId c : t.consumers) {
      if (c >= program.num_threads()) {
        out.error(Diag::kDanglingArc, t.id, t.block,
                  thread_ref(program, t.id) + " lists consumer " +
                      std::to_string(c) + " which does not exist");
        continue;
      }
      const DThread& consumer = program.thread(c);
      if (c == t.id) {
        // Reported as a cycle of length 1 by the cycle pass; nothing
        // extra needed here.
        continue;
      }
      if (consumer.block != t.block) {
        out.error(Diag::kDanglingArc, t.id, t.block,
                  thread_ref(program, t.id) + " lists consumer " +
                      thread_ref(program, c) + " in block " +
                      std::to_string(consumer.block) +
                      "; TSU consumer lists must stay within one block "
                      "(cross-block dependencies ride the Inlet/Outlet "
                      "barrier)");
      } else if (consumer.kind == ThreadKind::kInlet) {
        out.error(Diag::kDanglingArc, t.id, t.block,
                  thread_ref(program, t.id) + " lists the block Inlet " +
                      thread_ref(program, c) + " as a consumer");
      }
    }
  }
}

void check_cross_block_arcs(const Program& program, Reporter& out) {
  for (const CrossBlockArc& arc : program.cross_block_arcs()) {
    if (arc.producer >= program.num_threads() ||
        arc.consumer >= program.num_threads()) {
      out.error(Diag::kDanglingArc, arc.producer, kInvalidBlock,
                "cross-block arc references a DThread id that does not "
                "exist");
      continue;
    }
    const DThread& p = program.thread(arc.producer);
    const DThread& c = program.thread(arc.consumer);
    if (!p.is_application() || !c.is_application()) {
      out.error(Diag::kDanglingArc, arc.producer, p.block,
                "cross-block arc " + thread_ref(program, arc.producer) +
                    " -> " + thread_ref(program, arc.consumer) +
                    " touches a non-application thread");
      continue;
    }
    if (p.block > c.block) {
      out.add(Severity::kError, Diag::kBackwardCrossBlockArc, p.id, c.id,
              p.block,
              "backward cross-block arc " + thread_ref(program, p.id) +
                  " (block " + std::to_string(p.block) + ") -> " +
                  thread_ref(program, c.id) + " (block " +
                  std::to_string(c.block) +
                  "): blocks execute in declaration order, so the "
                  "consumer would run before its producer");
    } else if (p.block == c.block) {
      out.add(Severity::kError, Diag::kSameBlockCrossArc, p.id, c.id,
              p.block,
              "arc " + thread_ref(program, p.id) + " -> " +
                  thread_ref(program, c.id) +
                  " is recorded as cross-block but both threads are in "
                  "block " + std::to_string(p.block) +
                  "; it would never reach the TSU as a Ready Count "
                  "entry");
    }
  }
}

void check_capacity_and_kernels(const Program& program,
                                const VerifyOptions& options, Reporter& out) {
  if (options.tsu_capacity != 0) {
    for (const Block& blk : program.blocks()) {
      const std::uint64_t need = blk.app_threads.size() + 2;  // +in/outlet
      if (need > options.tsu_capacity) {
        out.error(Diag::kCapacityExceeded, kInvalidThread, blk.id,
                  "block " + std::to_string(blk.id) + " needs " +
                      std::to_string(need) +
                      " TSU slots (incl. Inlet/Outlet) but the target "
                      "TSU holds " + std::to_string(options.tsu_capacity) +
                      "; split the program into more DDM Blocks");
      }
    }
  }
  if (options.min_block_threads != 0 && program.num_blocks() > 1) {
    // Every block but the last feeds a transition the block pipeline
    // wants to hide; a too-small block drains before the prefetch of
    // the next one can overlap anything.
    for (const Block& blk : program.blocks()) {
      if (blk.id + 1u >= program.num_blocks()) continue;
      if (blk.app_threads.size() < options.min_block_threads) {
        out.warn(Diag::kStallProneBlock, kInvalidThread, blk.id,
                 "block " + std::to_string(blk.id) + " has only " +
                     std::to_string(blk.app_threads.size()) +
                     " application DThread(s), fewer than the stall-"
                     "prone threshold " +
                     std::to_string(options.min_block_threads) +
                     " (num_kernels x 2); it cannot keep the kernels "
                     "busy across its block transition - merge blocks "
                     "or raise the TSU capacity");
      }
    }
  }
  if (options.guard_hotspot_budget != 0) {
    // ddmguard's sampled mode bounds overhead by deep-checking only
    // every Nth block - but the cost of a deep-checked block is its
    // Ready Count fan-in (one accounting step per update received).
    // A block whose fan-in dwarfs the budget concentrates the guard's
    // work into one transition whenever the sampling lands on it.
    for (const Block& blk : program.blocks()) {
      std::uint64_t fan_in = 0;
      for (ThreadId tid : blk.app_threads) {
        fan_in += program.thread(tid).ready_count_init;
      }
      fan_in += program.thread(blk.outlet).ready_count_init;
      if (fan_in > options.guard_hotspot_budget) {
        out.warn(Diag::kGuardHotspot, kInvalidThread, blk.id,
                 "block " + std::to_string(blk.id) + " receives " +
                     std::to_string(fan_in) +
                     " Ready Count update(s), above the sampled-guard "
                     "budget of " +
                     std::to_string(options.guard_hotspot_budget) +
                     "; when ddmguard samples this block its per-member "
                     "accounting lands on one transition - raise the "
                     "sample period, split the block, or reserve "
                     "--guard=full for CI");
      }
    }
  }
  if (options.coalescable_arc_min != 0) {
    // Loop fan-outs declared as N unit arcs to consecutive instances
    // of one consumer (chunk ids of a loop DThread are consecutive by
    // construction) should be one range arc: the declaration is N
    // records where one would do, and builders that bypass
    // ProgramBuilder lose the coalesced publish path entirely. Runs
    // are recomputed from the consumer lists here so the check also
    // covers programs loaded from ddmgraph files.
    for (const DThread& t : program.threads()) {
      if (!t.is_application()) continue;
      std::size_t i = 0;
      while (i < t.consumers.size()) {
        std::size_t j = i + 1;
        while (j < t.consumers.size() &&
               t.consumers[j] == t.consumers[j - 1] + 1) {
          ++j;
        }
        const std::size_t width = j - i;
        if (width >= options.coalescable_arc_min) {
          out.warn(Diag::kCoalescableArcs, t.id, t.block,
                   thread_ref(program, t.id) + " declares " +
                       std::to_string(width) +
                       " unit arcs to the consecutive consumers [" +
                       std::to_string(t.consumers[i]) + ", " +
                       std::to_string(t.consumers[j - 1]) +
                       "]; declare them as a single range arc "
                       "(add_arc_range) so the runtime publishes one "
                       "range update instead of " +
                       std::to_string(width) + " unit records");
        }
        i = j;
      }
    }
  }
  if (options.tenant_width != 0) {
    // Resident-executor admission: a tenant slice is `tenant_width`
    // kernels with local ids 0..width-1; a program homed past that can
    // never be admitted (runtime/executor.h rejects it at submit).
    const std::string admission =
        tenant_admission_error(program, options.tenant_width);
    if (!admission.empty()) {
      out.error(Diag::kTenantCapacity, kInvalidThread, kInvalidBlock,
                admission);
    }
    if (options.tub_lane_capacity != 0) {
      // The slice's whole lock-free TUB budget is width x lane
      // capacity; a single completion with more consumers than that
      // cannot publish even across chunked batches without the
      // emulator draining it mid-publish - a per-tenant stall the
      // full-pool lane check below does not catch.
      const std::uint64_t slice_budget =
          static_cast<std::uint64_t>(options.tenant_width) *
          options.tub_lane_capacity;
      for (const DThread& t : program.threads()) {
        if (!t.is_application()) continue;
        if (t.consumers.size() > slice_budget) {
          out.warn(Diag::kTenantCapacity, t.id, t.block,
                   thread_ref(program, t.id) + " has " +
                       std::to_string(t.consumers.size()) +
                       " consumers, above the tenant slice's combined "
                       "TUB lane budget of " +
                       std::to_string(slice_budget) + " (" +
                       std::to_string(options.tenant_width) +
                       " lane(s) x " +
                       std::to_string(options.tub_lane_capacity) +
                       "); its completion publish stalls the slice "
                       "until the emulator drains - widen the "
                       "partition or reduce the fan-out");
        }
      }
    }
  }
  if (options.tub_lane_capacity != 0) {
    for (const DThread& t : program.threads()) {
      if (!t.is_application()) continue;
      if (t.consumers.size() > options.tub_lane_capacity) {
        out.warn(Diag::kLaneCapacityStall, t.id, t.block,
                 thread_ref(program, t.id) + " has " +
                     std::to_string(t.consumers.size()) +
                     " consumers but a lock-free TUB lane holds " +
                     std::to_string(options.tub_lane_capacity) +
                     "; its completion publish must be chunked and can "
                     "stall the kernel until the TSU emulator drains - "
                     "raise tub_lane_capacity or reduce the fan-out");
      }
    }
  }
  // The target topology of the shard checks: >= 2 clustered groups.
  const bool topology = options.tsu_groups >= 2 &&
                        options.tsu_groups <= options.num_kernels;
  if (topology && options.shard_imbalance_pct != 0) {
    // Per-shard load under the clustered topology the sharded runtime
    // uses: each shard's emulator owns its kernels' SM spans, so a
    // shard's work is the application DThreads homed on its kernels
    // plus the Ready-Count updates those DThreads receive. Stealing
    // rebalances *execution*, not this TSU-side accounting - an
    // unbalanced graph serializes on the loaded shard's emulator.
    const ShardMap map(options.num_kernels, options.tsu_groups);
    std::vector<std::uint64_t> load(options.tsu_groups, 0);
    std::uint64_t total = 0;
    for (const DThread& t : program.threads()) {
      if (!t.is_application()) continue;
      if (t.home_kernel == kInvalidKernel) continue;  // reported below
      const KernelId home = t.home_kernel < options.num_kernels
                                ? t.home_kernel
                                : KernelId{0};  // TKT clamp
      const std::uint64_t work = 1 + t.ready_count_init;
      load[map.shard_of(home)] += work;
      total += work;
    }
    if (total != 0) {
      const double mean =
          static_cast<double>(total) /
          static_cast<double>(options.tsu_groups);
      for (std::uint16_t s = 0; s < options.tsu_groups; ++s) {
        const double dev =
            (static_cast<double>(load[s]) - mean) / mean * 100.0;
        if (dev > static_cast<double>(options.shard_imbalance_pct) ||
            -dev > static_cast<double>(options.shard_imbalance_pct)) {
          std::ostringstream msg;
          msg << "shard " << s << " (kernels " << map.first_kernel(s)
              << ".." << map.last_kernel(s) << " of "
              << options.num_kernels << ") carries " << load[s]
              << " of " << total
              << " DThread+update load units, deviating "
              << static_cast<long long>(dev > 0 ? dev + 0.5 : dev - 0.5)
              << "% from the uniform share (threshold "
              << options.shard_imbalance_pct
              << "%); the loaded shard's emulator becomes the "
                 "bottleneck - rebalance home kernels or revisit the "
                 "decomposition";
          out.warn(Diag::kShardImbalance, kInvalidThread, kInvalidBlock,
                   msg.str());
        }
      }
    }
  }
  if (options.affinity_split != 0) {
    // A consumer whose input bytes come from producers homed on many
    // kernels (shards, when a topology is given) is *split*: the data
    // plane's affinity dispatch can make at most one producer's share
    // warm, and everything else crosses caches no matter the placement.
    // The contribution table already intersects every producer's write
    // set with every consumer's read set over same- and cross-block
    // arcs, zero-byte ranges excluded.
    std::optional<ShardMap> map;
    if (topology) map.emplace(options.num_kernels, options.tsu_groups);
    const DataPlane plane(program);
    std::vector<KernelId> homes;
    for (const DThread& t : program.threads()) {
      if (!t.is_application()) continue;
      homes.clear();
      for (const Contribution& c : plane.contributions(t.id)) {
        KernelId home = program.thread(c.producer).home_kernel;
        if (home == kInvalidKernel) continue;  // reported below
        if (options.num_kernels != 0 && home >= options.num_kernels) {
          home = 0;  // TKT clamp
        }
        if (map) home = map->shard_of(home);
        if (std::find(homes.begin(), homes.end(), home) == homes.end()) {
          homes.push_back(home);
        }
      }
      if (homes.size() > options.affinity_split) {
        out.warn(Diag::kAffinitySplit, t.id, t.block,
                 thread_ref(program, t.id) +
                     "'s input footprint is written by producers homed "
                     "on " +
                     std::to_string(homes.size()) + " distinct " +
                     (map ? "shards" : "kernels") + " (threshold " +
                     std::to_string(options.affinity_split) +
                     "); no placement keeps more than one producer's "
                     "share warm - align producer and consumer homes or "
                     "coarsen the decomposition");
      }
    }
  }
  for (const DThread& t : program.threads()) {
    if (!t.is_application()) continue;
    if (t.home_kernel == kInvalidKernel) {
      out.warn(Diag::kHomeKernelUnassigned, t.id, t.block,
               thread_ref(program, t.id) +
                   " has no home kernel; built programs normally "
                   "round-robin unpinned threads");
    } else if (options.num_kernels != 0 &&
               t.home_kernel >= options.num_kernels) {
      out.error(Diag::kHomeKernelOutOfRange, t.id, t.block,
                thread_ref(program, t.id) + " is pinned to kernel " +
                    std::to_string(t.home_kernel) +
                    " but the target runs " +
                    std::to_string(options.num_kernels) +
                    " kernel(s) (valid ids 0.." +
                    std::to_string(options.num_kernels - 1) + ")");
    }
  }
}

void check_ranges(const Program& program, Reporter& out) {
  constexpr SimAddr kMaxAddr = std::numeric_limits<SimAddr>::max();
  for (const DThread& t : program.threads()) {
    if (!t.is_application()) continue;
    for (std::size_t i = 0; i < t.footprint.ranges.size(); ++i) {
      const MemRange& r = t.footprint.ranges[i];
      if (r.bytes == 0) {
        out.warn(Diag::kEmptyRange, t.id, t.block,
                 thread_ref(program, t.id) + " footprint range #" +
                     std::to_string(i) + " (" +
                     (r.write ? "write" : "read") + " at 0x" +
                     [&] {
                       std::ostringstream hex;
                       hex << std::hex << r.addr;
                       return hex.str();
                     }() +
                     ") is empty; the timing plane ignores it");
      } else if (r.bytes > kMaxAddr - r.addr) {
        out.warn(Diag::kRangeOverflow, t.id, t.block,
                 thread_ref(program, t.id) + " footprint range #" +
                     std::to_string(i) + " wraps the simulated address "
                     "space (addr + bytes overflows SimAddr)");
      }
    }
  }
}

/// Dead-footprint detection (opt-in). A DThread's write ranges are
/// the data its arcs hand downstream; when every same-block consumer
/// declares read ranges and none of them touches any of the
/// producer's writes, the arcs synchronize on data nobody loads -
/// either the footprint or the dependency is wrong. Conservative by
/// design: a consumer with no declared reads suppresses the warning
/// (its footprint is undeclared, not provably disjoint), as does a
/// producer with no writes or no same-block app consumers.
void check_dead_footprints(const Program& program, const BlockView& v,
                           Reporter& out) {
  auto overlaps = [](const MemRange& a, const MemRange& b) {
    if (a.bytes == 0 || b.bytes == 0) return false;
    if (a.bytes > std::numeric_limits<SimAddr>::max() - a.addr ||
        b.bytes > std::numeric_limits<SimAddr>::max() - b.addr) {
      return false;  // wrapping ranges are check_ranges's findings
    }
    return a.addr < b.addr + b.bytes && b.addr < a.addr + a.bytes;
  };
  for (ThreadId tid : v.threads) {
    const DThread& t = program.thread(tid);
    bool has_write = false;
    for (const MemRange& r : t.footprint.ranges) has_write |= r.write;
    if (!has_write) continue;
    std::uint32_t app_consumers = 0;
    bool all_declare_reads = true;
    bool any_read_overlap = false;
    for (ThreadId cid : t.consumers) {
      const DThread& c = program.thread(cid);
      if (!c.is_application()) continue;  // the Outlet reads nothing
      ++app_consumers;
      bool declares_read = false;
      for (const MemRange& cr : c.footprint.ranges) {
        if (cr.write) continue;
        declares_read = true;
        for (const MemRange& pr : t.footprint.ranges) {
          if (pr.write && overlaps(pr, cr)) any_read_overlap = true;
        }
      }
      all_declare_reads &= declares_read;
    }
    if (app_consumers == 0 || !all_declare_reads || any_read_overlap) {
      continue;
    }
    out.warn(Diag::kDeadFootprint, t.id, t.block,
             thread_ref(program, t.id) + " writes " +
                 std::to_string(t.footprint.bytes_written()) +
                 " byte(s) but none of its " +
                 std::to_string(app_consumers) +
                 " consumer(s) declares a read range overlapping any "
                 "of them; the arcs synchronize on data nobody loads - "
                 "fix the footprint or drop the dependency");
  }
}

/// Footprint race detection. Two application DThreads of the same
/// block with no dependency path between them (in either direction)
/// may run concurrently under any ASAP schedule; if their footprints
/// overlap and at least one side writes, the DDM decomposition is
/// nondeterministic. Blocks are the unit of concurrency - the
/// Inlet/Outlet chain is a barrier, so cross-block pairs never race.
void check_races(const Program& program, const BlockView& v,
                 const VerifyOptions& options, Reporter& out) {
  const std::uint32_t n = static_cast<std::uint32_t>(v.threads.size());
  if (n < 2) return;
  if (options.race_check_max_threads != 0 &&
      n > options.race_check_max_threads) {
    out.warn(Diag::kRaceCheckSkipped, kInvalidThread, v.block->id,
             "block " + std::to_string(v.block->id) + " has " +
                 std::to_string(n) +
                 " threads, above the race-check limit of " +
                 std::to_string(options.race_check_max_threads) +
                 "; footprint race detection skipped");
    return;
  }

  // Transitive reachability over the block's app-app edges, as
  // bitsets, filled in reverse topological order.
  const std::uint32_t words = (n + 63) / 64;
  std::vector<std::uint64_t> reach(static_cast<std::size_t>(n) * words, 0);
  auto reaches = [&](std::uint32_t a, std::uint32_t b) {
    return (reach[static_cast<std::size_t>(a) * words + b / 64] >>
            (b % 64)) & 1u;
  };
  for (auto it = v.topo.rbegin(); it != v.topo.rend(); ++it) {
    const std::uint32_t u = *it;
    std::uint64_t* row = &reach[static_cast<std::size_t>(u) * words];
    for (std::uint32_t c : v.succ[u]) {
      row[c / 64] |= std::uint64_t{1} << (c % 64);
      const std::uint64_t* crow =
          &reach[static_cast<std::size_t>(c) * words];
      for (std::uint32_t w = 0; w < words; ++w) row[w] |= crow[w];
    }
  }

  // Sweep all footprint ranges by address; overlapping pairs with at
  // least one write and no ordering are races. Degenerate ranges
  // (empty or wrapping) are excluded - check_ranges reports them.
  struct Rec {
    SimAddr begin = 0;
    SimAddr end = 0;
    bool write = false;
    std::uint32_t owner = 0;  // dense thread index
  };
  std::vector<Rec> recs;
  for (std::uint32_t i = 0; i < n; ++i) {
    const DThread& t = program.thread(v.threads[i]);
    for (const MemRange& r : t.footprint.ranges) {
      if (r.bytes == 0) continue;
      if (r.bytes > std::numeric_limits<SimAddr>::max() - r.addr) continue;
      recs.push_back(Rec{r.addr, r.addr + r.bytes, r.write, i});
    }
  }
  std::sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    return a.begin != b.begin ? a.begin < b.begin : a.owner < b.owner;
  });

  struct RaceInfo {
    SimAddr begin = 0, end = 0;
    bool write_a = false, write_b = false;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, RaceInfo> races;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    for (std::size_t j = i + 1;
         j < recs.size() && recs[j].begin < recs[i].end; ++j) {
      const Rec& a = recs[i];
      const Rec& b = recs[j];
      if (a.owner == b.owner) continue;
      if (!a.write && !b.write) continue;
      if (reaches(a.owner, b.owner) || reaches(b.owner, a.owner)) continue;
      const auto key = std::minmax(a.owner, b.owner);
      if (races.count({key.first, key.second})) continue;
      RaceInfo info;
      info.begin = std::max(a.begin, b.begin);
      info.end = std::min(a.end, b.end);
      info.write_a = (key.first == a.owner) ? a.write : b.write;
      info.write_b = (key.first == a.owner) ? b.write : a.write;
      races[{key.first, key.second}] = info;
    }
  }

  for (const auto& [key, info] : races) {
    const ThreadId ta = v.threads[key.first];
    const ThreadId tb = v.threads[key.second];
    std::ostringstream msg;
    msg << thread_ref(program, ta) << " ("
        << (info.write_a ? "writes" : "reads") << ") and "
        << thread_ref(program, tb) << " ("
        << (info.write_b ? "writes" : "reads")
        << ") have no dependency path between them, so they may run "
           "concurrently, yet their footprints overlap at [0x"
        << std::hex << info.begin << ", 0x" << info.end << std::dec
        << "): the DDM decomposition is nondeterministic - add an arc "
           "or make the ranges disjoint";
    out.add(Severity::kError, Diag::kFootprintRace, ta, tb, v.block->id,
            msg.str());
  }
}

}  // namespace

std::string Diagnostic::to_string(const Program& program) const {
  std::ostringstream out;
  out << core::to_string(severity) << ": [" << core::to_string(code) << "]";
  if (block != kInvalidBlock) out << " block " << block;
  if (thread != kInvalidThread) {
    out << (block != kInvalidBlock ? "," : "") << " "
        << thread_ref(program, thread);
  }
  out << ": " << message;
  return out.str();
}

std::string VerifyReport::to_string(const Program& program) const {
  std::ostringstream out;
  for (const Diagnostic& d : diagnostics) {
    out << d.to_string(program) << "\n";
  }
  out << "ddmlint: " << num_errors << " error(s), " << num_warnings
      << " warning(s) in program '" << program.name() << "'\n";
  return out.str();
}

VerifyReport verify(const Program& program, const VerifyOptions& options) {
  VerifyReport report;
  Reporter out(report);

  check_consumers(program, out);
  check_cross_block_arcs(program, out);
  check_capacity_and_kernels(program, options, out);
  check_ranges(program, out);

  for (const Block& blk : program.blocks()) {
    if (blk.app_threads.empty()) {
      out.error(Diag::kEmptyBlock, kInvalidThread, blk.id,
                "block " + std::to_string(blk.id) +
                    " has no application DThreads; its Outlet fires "
                    "immediately and the block is pure overhead");
      continue;
    }
    const BlockView v = make_view(program, blk);
    check_ready_counts(program, v, out);
    check_inlet_outlet(program, v, out);
    if (options.check_dead_footprint) {
      check_dead_footprints(program, v, out);
    }
    if (!v.acyclic) {
      const std::vector<ThreadId> cycle = find_cycle(v);
      std::ostringstream msg;
      msg << "block " << blk.id << " has a dependency cycle";
      if (!cycle.empty()) {
        msg << ": ";
        for (std::size_t i = 0; i < cycle.size(); ++i) {
          msg << thread_ref(program, cycle[i]) << " -> ";
        }
        msg << thread_ref(program, cycle.front());
      }
      msg << "; " << (blk.app_threads.size() - v.topo.size())
          << " thread(s) can never become ready";
      out.error(Diag::kIntraBlockCycle,
                cycle.empty() ? kInvalidThread : cycle.front(), blk.id,
                msg.str());
    } else if (options.check_races) {
      // Race detection needs a valid topological order; a cyclic block
      // is already broken in a stronger way.
      check_races(program, v, options, out);
    }
  }
  return report;
}

}  // namespace tflux::core
