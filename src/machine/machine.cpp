#include "machine/machine.h"

#include <algorithm>
#include <cassert>

#include "core/error.h"

namespace tflux::machine {

namespace {

/// The machine's TSU-group ownership map. A one-shard topology is the
/// flat baseline: it leaves the interleaved tsu.num_groups model in
/// charge.
core::ShardMap ownership_map(const MachineConfig& config) {
  const std::uint16_t shards =
      config.topology.resolved_shards(config.num_kernels);
  return core::ShardMap::resolve(config.num_kernels, config.tsu.num_groups,
                                 shards >= 2 ? shards : 0);
}

}  // namespace

Machine::Machine(const MachineConfig& config, const core::Program& program,
                 bool invoke_bodies)
    : config_(config),
      program_(program),
      invoke_bodies_(invoke_bodies),
      map_(ownership_map(config_)) {
  if (config_.exec_quantum == 0) {
    throw core::TFluxError("Machine: exec_quantum must be >= 1");
  }
  running_.resize(config_.num_kernels);
}

std::uint64_t Machine::count_lines(const core::Footprint& fp) const {
  const std::uint32_t line = config_.l1.line_bytes;
  std::uint64_t lines = 0;
  for (const core::MemRange& r : fp.ranges) {
    if (r.bytes == 0) continue;  // empty ranges touch no lines
    const SimAddr first = r.addr / line;
    const SimAddr last = (r.addr + r.bytes - 1) / line;
    lines += last - first + 1;
  }
  return lines;
}

std::uint64_t Machine::tsu_ops_for(const core::DThread& t) const {
  switch (t.kind) {
    case core::ThreadKind::kInlet:
      // Loading the block's metadata: one operation per DThread entry.
      return program_.block(t.block).app_threads.size() + 1;
    case core::ThreadKind::kOutlet:
      return 1;
    case core::ThreadKind::kApplication:
      // One Ready Count update per consumer (plus the completion note).
      return t.consumers.size() + 1;
  }
  return 1;
}

void Machine::dispatch(core::KernelId k, core::ThreadId tid) {
  const core::DThread& t = program_.thread(tid);
  ExecCursor& cur = running_[k];
  cur.tid = tid;
  cur.range_idx = 0;
  cur.next_addr = t.footprint.ranges.empty() ? 0 : t.footprint.ranges[0].addr;
  cur.lines_left = count_lines(t.footprint);
  cur.compute_left = t.footprint.compute_cycles;
  cur.compute_per_line =
      cur.lines_left > 0 ? t.footprint.compute_cycles / cur.lines_left : 0;
  if (cur.lines_left > 0) {
    // compute_per_line spreads the ALU work across the accesses; the
    // remainder stays in compute_left.
    cur.compute_left -= cur.compute_per_line * cur.lines_left;
  }
  // Reach the kernel (access latency) and switch into the DThread. A
  // sharded dispatch that crossed a shard boundary (hierarchical
  // steal: the DThread's home lives in another cluster) pays the
  // inter-shard link on top.
  Cycles access = local_access_latency();
  if (map_.clustered()) {
    core::KernelId home = t.home_kernel;
    if (home >= config_.num_kernels) home = 0;
    if (!map_.same_shard(home, k)) access += cross_group_latency();
  }
  const Cycles start = eq_.now() + access + config_.thread_switch_cycles;
  cur.started_at = start;
  eq_.at(start, [this, k] { exec_segment(k); });
}

void Machine::exec_segment(core::KernelId k) {
  ExecCursor& cur = running_[k];
  const core::DThread& t = program_.thread(cur.tid);
  const std::uint32_t line = config_.l1.line_bytes;

  Cycles now = eq_.now();
  Cycles budget = config_.exec_quantum;
  while (budget > 0) {
    if (cur.range_idx < t.footprint.ranges.size()) {
      const core::MemRange& r = t.footprint.ranges[cur.range_idx];
      if (r.bytes == 0) {  // empty range: nothing to access
        ++cur.range_idx;
        if (cur.range_idx < t.footprint.ranges.size()) {
          cur.next_addr = t.footprint.ranges[cur.range_idx].addr;
        }
        continue;
      }
      const SimAddr line_addr = (cur.next_addr / line) * line;
      const Cycles mem_done = mem_->access_line(k, line_addr, r.write, now);
      const Cycles mem_cost = mem_done - now;
      Cycles spent = mem_cost;
      now = mem_done;
      if (cur.compute_per_line > 0) {
        now += cur.compute_per_line;
        spent += cur.compute_per_line;
      }
      --cur.lines_left;
      budget -= std::min(budget, spent == 0 ? Cycles{1} : spent);
      // Advance to the next line of this range, or the next range.
      const SimAddr range_end = r.addr + r.bytes;
      cur.next_addr = line_addr + line;
      if (cur.next_addr >= range_end) {
        ++cur.range_idx;
        if (cur.range_idx < t.footprint.ranges.size()) {
          cur.next_addr = t.footprint.ranges[cur.range_idx].addr;
        }
      }
      // Yield the segment after any access that reached the bus (cost
      // beyond an L2 hit): the bus timeline must interleave per
      // transaction across cores, or concurrent threads would see each
      // other's whole bursts as one opaque busy window. Cache hits and
      // spread compute keep batching within the quantum.
      if (mem_cost > config_.l2.read_latency + 1) break;
    } else if (cur.compute_left > 0) {
      const Cycles c = std::min(budget, cur.compute_left);
      now += c;
      cur.compute_left -= c;
      budget -= c;
    } else {
      break;  // thread finished
    }
  }

  const bool done =
      cur.range_idx >= t.footprint.ranges.size() && cur.compute_left == 0;
  eq_.at(now, [this, k, done] {
    if (done) {
      complete_thread(k);
    } else {
      exec_segment(k);
    }
  });
}

void Machine::complete_thread(core::KernelId k) {
  ExecCursor& cur = running_[k];
  const core::ThreadId tid = cur.tid;
  const core::DThread& t = program_.thread(tid);
  const Cycles now = eq_.now();

  stats_.kernel_busy[k] += now - cur.started_at;
  if (trace_) trace_->add_span(k, cur.started_at, now, t.label);
  if (t.is_application()) {
    ++stats_.threads_executed;
    stats_.thread_cycles.add(now - cur.started_at);
  }
  cur.tid = core::kInvalidThread;

  if (invoke_bodies_ && t.body) {
    t.body(core::ExecContext{k, tid});
  }

  // Post-processing phase at the TSU: the kernel's completion message
  // travels over the MMI, then the TSU serially applies the updates.
  //
  // With multiple TSU Groups (the section 4.1 extension), each
  // operation is applied by the group holding the target DThread's
  // Ready Count (the group of its home kernel); operations for a
  // remote group cross the TSU-to-TSU link (intergroup_latency) and
  // occupy that group's port instead of the local one.
  //
  // A block load (Inlet) is pipelined: the TSU can hand out the first
  // ready DThreads as soon as enough metadata entries are in, while
  // the rest of the load continues in the background - so the visible
  // latency covers only ~one entry per kernel, not the whole block.
  const std::uint16_t local_group = map_.shard_of(k);
  const std::uint16_t groups = map_.num_shards();
  ops_per_group_.assign(groups, 0);
  ops_per_group_[local_group] += 1;  // the completion note itself
  auto target_group = [this](core::ThreadId target) {
    core::KernelId home = program_.thread(target).home_kernel;
    if (home >= config_.num_kernels) home = 0;
    return map_.shard_of(home);
  };
  switch (t.kind) {
    case core::ThreadKind::kInlet:
      for (core::ThreadId app : program_.block(t.block).app_threads) {
        ++ops_per_group_[target_group(app)];
      }
      break;
    case core::ThreadKind::kApplication:
      for (core::ThreadId consumer : t.consumers) {
        ++ops_per_group_[target_group(consumer)];
      }
      break;
    case core::ThreadKind::kOutlet:
      break;
  }

  Cycles t_done = 0;
  for (std::uint16_t g = 0; g < groups; ++g) {
    const std::uint64_t ops = ops_per_group_[g];
    if (ops == 0) continue;
    Cycles ready_at = now + local_access_latency();
    if (g != local_group) {
      ready_at += cross_group_latency();
      stats_.tsu_intergroup_updates += ops;
    }
    const Cycles grant =
        tsu_ports_[g].acquire(ready_at, ops * config_.tsu.op_cycles);
    if (trace_) {
      trace_->add_span(config_.num_kernels + g, grant,
                       grant + ops * config_.tsu.op_cycles,
                       "tsu:" + t.label);
    }
    const std::uint64_t group_kernels = map_.kernels(g).size();
    const std::uint64_t visible_ops =
        t.kind == core::ThreadKind::kInlet
            ? std::min<std::uint64_t>(ops, group_kernels + 1u)
            : ops;
    t_done = std::max(t_done, grant + visible_ops * config_.tsu.op_cycles);
  }
  eq_.at(t_done, [this, k, tid] {
    tsu_->complete(tid);
    if (tsu_->done()) {
      end_time_ = eq_.now();
      return;  // parked kernels stay parked; the event queue drains
    }
    dispatch_parked();
    kernel_request(k);
  });
}

void Machine::kernel_request(core::KernelId k) {
  // Fetch uses the TSU's read path (a memory-mapped read of the ready
  // queue head through the MMI): it pays the access latency and one
  // operation time but does not queue behind the post-processing
  // command stream - kernels asking for work are never stalled by
  // other kernels' completion bursts.
  const Cycles done =
      eq_.now() + local_access_latency() + config_.tsu.op_cycles;
  eq_.at(done, [this, k] {
    if (tsu_->done()) return;
    if (auto tid = tsu_->fetch(k)) {
      dispatch(k, *tid);
    } else {
      ++stats_.parks;
      parked_.push_back(k);
    }
  });
}

void Machine::dispatch_parked() {
  while (!parked_.empty() && tsu_->ready_pool_size() > 0) {
    const core::KernelId k = parked_.front();
    parked_.pop_front();
    auto tid = tsu_->fetch(k);
    assert(tid.has_value());
    dispatch(k, *tid);
  }
}

MachineStats Machine::run() {
  if (ran_) throw core::TFluxError("Machine::run may only be called once");
  ran_ = true;

  mem_ = std::make_unique<MemorySystem>(config_, config_.num_kernels);
  if (config_.dataplane) {
    dataplane_ = std::make_unique<core::DataPlane>(program_, map_.topology());
  }
  tsu_ = std::make_unique<core::TsuState>(program_, config_.num_kernels,
                                          config_.policy, map_.topology(),
                                          dataplane_.get());
  stats_.kernel_busy.assign(config_.num_kernels, 0);
  tsu_ports_ = std::vector<sim::SerialResource>(map_.num_shards());
  if (trace_) {
    for (core::KernelId k = 0; k < config_.num_kernels; ++k) {
      trace_->set_lane_name(k, "kernel " + std::to_string(k));
    }
    for (std::uint16_t g = 0; g < map_.num_shards(); ++g) {
      trace_->set_lane_name(config_.num_kernels + g,
                            "TSU group " + std::to_string(g));
    }
  }
  tsu_->start();

  // All kernels boot and query the TSU; one wins the first block's
  // Inlet, the rest park.
  for (core::KernelId k = 0; k < config_.num_kernels; ++k) {
    kernel_request(k);
  }
  eq_.run();

  if (!tsu_->done()) {
    throw core::TFluxError(
        "Machine: simulation drained before the last Outlet (deadlock)");
  }
  stats_.total_cycles = end_time_;
  stats_.mem = mem_->stats();
  for (const sim::SerialResource& port : tsu_ports_) {
    stats_.tsu_busy_cycles += port.busy_cycles();
    stats_.tsu_wait_cycles += port.wait_cycles();
    stats_.tsu_grants += port.grants();
    stats_.tsu_group_busy.push_back(port.busy_cycles());
  }
  stats_.tsu = tsu_->counters();
  return stats_;
}

Cycles simulate_sequential(const MachineConfig& config,
                           const std::vector<core::Footprint>& plan) {
  MemorySystem mem(config, 1);
  const std::uint32_t line = config.l1.line_bytes;
  Cycles now = 0;
  for (const core::Footprint& fp : plan) {
    for (const core::MemRange& r : fp.ranges) {
      if (r.bytes == 0) continue;
      const SimAddr first = (r.addr / line) * line;
      for (SimAddr a = first; a < r.addr + r.bytes; a += line) {
        now = mem.access_line(0, a, r.write, now);
      }
    }
    now += fp.compute_cycles;
  }
  return now;
}

}  // namespace tflux::machine
