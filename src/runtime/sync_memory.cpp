#include "runtime/sync_memory.h"

#include <algorithm>
#include <cassert>

#include "core/error.h"

namespace tflux::runtime {

SyncMemoryGroup::SyncMemoryGroup(const core::Program& program,
                                 const core::ShardMap& map)
    : program_(program), map_(map), num_kernels_(map.num_kernels()),
      tkt_(program.num_threads()) {
  const std::uint16_t num_kernels = num_kernels_;
  // Pass 1: count each (block, kernel) slice so the arenas can be laid
  // out contiguously (prefix sums), then pass 2 fills them. Placement
  // per slice follows ascending id order: app_threads is ascending by
  // construction, and a block's Inlet/Outlet ids exceed all
  // application ids (and each other, in that order), so appending
  // app threads then Inlet then Outlet keeps every slice sorted.
  const core::KernelId clamp = num_kernels;
  auto home_of = [&](core::ThreadId tid) {
    core::KernelId home = program_.thread(tid).home_kernel;
    return home >= clamp ? core::KernelId{0} : home;  // fewer kernels than homes
  };
  spans_.assign(static_cast<std::size_t>(program.num_blocks()) * num_kernels,
                Span{});
  for (core::BlockId b = 0; b < program.num_blocks(); ++b) {
    const core::Block& blk = program.block(b);
    for (core::ThreadId tid : blk.app_threads) {
      ++spans_[static_cast<std::size_t>(b) * num_kernels + home_of(tid)].len;
    }
    ++spans_[static_cast<std::size_t>(b) * num_kernels + home_of(blk.inlet)]
          .len;
    ++spans_[static_cast<std::size_t>(b) * num_kernels + home_of(blk.outlet)]
          .len;
  }
  std::uint32_t off = 0;
  std::vector<std::uint32_t> max_slots(num_kernels, 0);
  for (core::BlockId b = 0; b < program.num_blocks(); ++b) {
    for (std::uint16_t k = 0; k < num_kernels; ++k) {
      Span& sp = spans_[static_cast<std::size_t>(b) * num_kernels + k];
      sp.off = off;
      off += sp.len;
      max_slots[k] = std::max(max_slots[k], sp.len);
    }
  }
  tids_.resize(off);
  std::vector<std::uint32_t> fill(spans_.size(), 0);
  for (core::BlockId b = 0; b < program.num_blocks(); ++b) {
    const core::Block& blk = program.block(b);
    auto place = [&](core::ThreadId tid) {
      const core::KernelId home = home_of(tid);
      const std::size_t si = static_cast<std::size_t>(b) * num_kernels + home;
      const std::uint32_t slot = fill[si]++;
      tkt_[tid] = SmSlot{home, slot};
      tids_[spans_[si].off + slot] = tid;
    };
    for (core::ThreadId tid : blk.app_threads) place(tid);
    place(blk.inlet);
    place(blk.outlet);
  }
  // Ready Count arenas: kernel k owns [sm_off_[k], sm_off_[k + 1]),
  // sized for its widest block span.
  sm_off_.resize(static_cast<std::size_t>(num_kernels) + 1);
  sm_off_[0] = 0;
  for (std::uint16_t k = 0; k < num_kernels; ++k) {
    sm_off_[k + 1] = sm_off_[k] + max_slots[k];
  }
  for (auto& generation : sm_data_) {
    generation.assign(sm_off_[num_kernels], 0);
  }
  cur_gen_.assign(num_kernels, 0);
  gen_block_.assign(num_kernels,
                    {core::kInvalidBlock, core::kInvalidBlock});
}

void SyncMemoryGroup::preload_shadow(core::BlockId block,
                                     std::uint16_t group) {
  if (block >= program_.num_blocks()) {
    throw core::TFluxError("SyncMemoryGroup::preload_shadow: bad block id");
  }
  for (core::KernelId k : map_.kernels(group)) {
    const std::uint8_t shadow = cur_gen_[k] ^ 1u;
    const Span& sp = span(block, k);
    std::uint32_t* counts = sm_data_[shadow].data() + sm_off_[k];
    for (std::uint32_t s = 0; s < sp.len; ++s) {
      counts[s] = program_.thread(tids_[sp.off + s]).ready_count_init;
    }
    gen_block_[k][shadow] = block;
  }
}

void SyncMemoryGroup::promote_shadow(std::uint16_t group) {
  assert(shadow_block(group) != core::kInvalidBlock);
  for (core::KernelId k : map_.kernels(group)) cur_gen_[k] ^= 1u;
}

SyncMemoryGroup::SmSlot SyncMemoryGroup::find_slot(
    core::ThreadId tid, std::uint64_t* search_steps) const {
  // Sequential search over the SMs - the cost Thread Indexing
  // eliminates (paper section 4.2).
  const core::BlockId block = program_.thread(tid).block;
  for (std::uint16_t k = 0; k < num_kernels_; ++k) {
    const Span& sp = span(block, k);
    for (std::uint32_t s = 0; s < sp.len; ++s) {
      if (search_steps) ++*search_steps;
      if (tids_[sp.off + s] == tid) {
        return SmSlot{static_cast<core::KernelId>(k), s};
      }
    }
  }
  throw core::TFluxError(
      "SyncMemoryGroup::decrement: DThread not in loaded block");
}

bool SyncMemoryGroup::decrement_in(bool shadow, core::ThreadId tid,
                                   bool use_tkt,
                                   std::uint64_t* search_steps) {
  const SmSlot slot = use_tkt ? tkt_[tid] : find_slot(tid, search_steps);
  const std::uint8_t gen = cur_gen_[slot.kernel] ^ (shadow ? 1u : 0u);
  assert(gen_block_[slot.kernel][gen] == program_.thread(tid).block);
  std::uint32_t& count = sm_data_[gen][sm_off_[slot.kernel] + slot.slot];
  assert(count > 0);
  return --count == 0;
}

bool SyncMemoryGroup::decrement(core::ThreadId tid, bool use_tkt,
                                std::uint64_t* search_steps) {
  return decrement_in(/*shadow=*/false, tid, use_tkt, search_steps);
}

bool SyncMemoryGroup::decrement_shadow(core::ThreadId tid, bool use_tkt,
                                       std::uint64_t* search_steps) {
  return decrement_in(/*shadow=*/true, tid, use_tkt, search_steps);
}

std::size_t SyncMemoryGroup::decrement_range_in(
    bool shadow, core::ThreadId lo, core::ThreadId hi, std::uint16_t group,
    std::vector<core::ThreadId>& zeroed) {
  assert(lo <= hi);
  // A range never crosses DDM Blocks (consumer runs are same-block by
  // construction), so lo's block locates every member's spans.
  const core::BlockId block = program_.thread(lo).block;
  std::size_t applied = 0;
  for (core::KernelId k : map_.kernels(group)) {
    const Span& sp = span(block, k);
    const auto first = tids_.begin() + sp.off;
    const auto last = first + sp.len;
    // The slice is ascending, so the range's members homed on kernel k
    // are one contiguous sub-slice - and occupy equally contiguous
    // counter slots.
    const auto run_first = std::lower_bound(first, last, lo);
    const auto run_last = std::upper_bound(run_first, last, hi);
    if (run_first == run_last) continue;
    const std::uint8_t gen = cur_gen_[k] ^ (shadow ? 1u : 0u);
    assert(gen_block_[k][gen] == block);
    std::uint32_t* counts = sm_data_[gen].data() + sm_off_[k] +
                            static_cast<std::uint32_t>(run_first - first);
    for (auto it = run_first; it != run_last; ++it, ++counts) {
      assert(*counts > 0);
      if (--*counts == 0) zeroed.push_back(*it);
    }
    applied += static_cast<std::size_t>(run_last - run_first);
  }
  return applied;
}

std::size_t SyncMemoryGroup::decrement_range(
    core::ThreadId lo, core::ThreadId hi, std::uint16_t group,
    std::vector<core::ThreadId>& zeroed) {
  return decrement_range_in(/*shadow=*/false, lo, hi, group, zeroed);
}

std::size_t SyncMemoryGroup::decrement_range_shadow(
    core::ThreadId lo, core::ThreadId hi, std::uint16_t group,
    std::vector<core::ThreadId>& zeroed) {
  return decrement_range_in(/*shadow=*/true, lo, hi, group, zeroed);
}

void SyncMemoryGroup::collect_owned(core::ThreadId lo, core::ThreadId hi,
                                    std::uint16_t group,
                                    std::vector<core::ThreadId>& out) const {
  assert(lo <= hi);
  const core::BlockId block = program_.thread(lo).block;
  for (core::KernelId k : map_.kernels(group)) {
    const Span& sp = span(block, k);
    const auto first = tids_.begin() + sp.off;
    const auto last = first + sp.len;
    const auto run_first = std::lower_bound(first, last, lo);
    const auto run_last = std::upper_bound(run_first, last, hi);
    out.insert(out.end(), run_first, run_last);
  }
}

std::uint32_t SyncMemoryGroup::count(core::ThreadId tid) const {
  const SmSlot slot = tkt_[tid];
  return sm_data_[cur_gen_[slot.kernel]][sm_off_[slot.kernel] + slot.slot];
}

std::uint32_t SyncMemoryGroup::shadow_count(core::ThreadId tid) const {
  const SmSlot slot = tkt_[tid];
  return sm_data_[cur_gen_[slot.kernel] ^ 1u]
                 [sm_off_[slot.kernel] + slot.slot];
}

std::size_t SyncMemoryGroup::partition_slots(core::BlockId block,
                                             std::uint16_t group) const {
  std::size_t n = 0;
  for (core::KernelId k : map_.kernels(group)) n += span(block, k).len;
  return n;
}

}  // namespace tflux::runtime
