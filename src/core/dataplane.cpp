#include "core/dataplane.h"

#include <algorithm>
#include <utility>

namespace tflux::core {

std::uint64_t footprint_overlap_bytes(const Footprint& producer,
                                      const Footprint& consumer) {
  std::uint64_t total = 0;
  for (const MemRange& w : producer.ranges) {
    // Zero-byte ranges are legal (the verifier warns) but carry no
    // payload; skip them so forwarding never sees a zero-length copy.
    if (!w.write || w.bytes == 0) continue;
    const SimAddr wend = w.addr + w.bytes;
    if (wend < w.addr) continue;  // wrapping range (verifier warns)
    for (const MemRange& r : consumer.ranges) {
      if (r.write || r.bytes == 0) continue;
      const SimAddr rend = r.addr + r.bytes;
      if (rend < r.addr) continue;
      const SimAddr lo = std::max(w.addr, r.addr);
      const SimAddr hi = std::min(wend, rend);
      if (hi > lo) total += hi - lo;
    }
  }
  return total;
}

namespace {

/// (row, entry) pairs in push order, turned into a CsrTable by a
/// stable counting sort: each row keeps its entries' push order.
template <typename T>
CsrTable<T> to_csr(std::size_t rows,
                   const std::vector<std::pair<ThreadId, T>>& items) {
  CsrTable<T> table;
  table.offsets.assign(rows + 1, 0);
  for (const auto& item : items) ++table.offsets[item.first + 1];
  for (std::size_t r = 0; r < rows; ++r) {
    table.offsets[r + 1] += table.offsets[r];
  }
  table.entries.resize(items.size());
  std::vector<std::uint32_t> cursor(table.offsets.begin(),
                                    table.offsets.end() - 1);
  for (const auto& item : items) {
    table.entries[cursor[item.first]++] = item.second;
  }
  return table;
}

}  // namespace

DataPlane::DataPlane(const Program& program, const ShardMap* shards)
    : program_(program),
      shards_(shards),
      exec_kernel_(new std::atomic<KernelId>[program.num_threads()]) {
  const std::size_t n = program.num_threads();
  for (ThreadId t = 0; t < n; ++t) {
    exec_kernel_[t].store(kInvalidKernel, std::memory_order_relaxed);
  }

  auto overlap = [&program](ThreadId p, ThreadId c) -> std::uint64_t {
    const DThread& pt = program.thread(p);
    const DThread& ct = program.thread(c);
    if (!pt.is_application() || !ct.is_application()) return 0;
    return footprint_overlap_bytes(pt.footprint, ct.footprint);
  };

  // (consumer, contribution) and (producer, forward) in push order,
  // each at most one per arc.
  std::vector<std::pair<ThreadId, Contribution>> contributions;
  std::vector<std::pair<ThreadId, ForwardRun>> forwards;
  std::size_t arcs_total = program.cross_block_arcs().size();
  for (const DThread& t : program.threads()) arcs_total += t.consumers.size();
  contributions.reserve(arcs_total);
  forwards.reserve(arcs_total);

  // Same-block arcs: consumer lists and the PR 5 precomputed runs.
  for (const DThread& t : program.threads()) {
    if (!t.is_application()) continue;
    for (const DThread::ConsumerRun& run : t.consumer_runs) {
      std::uint64_t bytes = 0;
      for (ThreadId c = run.lo; c <= run.hi; ++c) bytes += overlap(t.id, c);
      if (bytes > 0) forwards.push_back({t.id, {run.lo, run.hi, bytes}});
    }
    for (ThreadId c : t.consumers) {
      const std::uint64_t b = overlap(t.id, c);
      if (b == 0) continue;
      contributions.push_back({c, {t.id, b}});
    }
  }

  // Cross-block arcs reach the TSU only as the block barrier, but the
  // data they imply still moves; batch them like the same-block runs:
  // maximal consecutive-id runs, split at consumer block boundaries
  // (a forward never spans two block activations).
  std::vector<std::pair<ThreadId, ThreadId>> arcs;
  arcs.reserve(program.cross_block_arcs().size());
  for (const CrossBlockArc& arc : program.cross_block_arcs()) {
    arcs.push_back({arc.producer, arc.consumer});
  }
  CsrTable<ThreadId> xconsumers = to_csr(n, arcs);
  std::vector<std::uint64_t> bytes;
  for (ThreadId p = 0; p < n; ++p) {
    const auto first = xconsumers.entries.begin() + xconsumers.offsets[p];
    auto last = xconsumers.entries.begin() + xconsumers.offsets[p + 1];
    if (first == last) continue;
    std::sort(first, last);
    last = std::unique(first, last);
    const std::span<const ThreadId> cs(first, last);
    bytes.assign(cs.size(), 0);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      bytes[i] = overlap(p, cs[i]);
      if (bytes[i] == 0) continue;
      contributions.push_back({cs[i], {p, bytes[i]}});
    }
    std::size_t i = 0;
    while (i < cs.size()) {
      std::size_t j = i;
      std::uint64_t run_bytes = bytes[i];
      while (j + 1 < cs.size() && cs[j + 1] == cs[j] + 1 &&
             program.thread(cs[j + 1]).block == program.thread(cs[i]).block) {
        ++j;
        run_bytes += bytes[j];
      }
      if (run_bytes > 0) forwards.push_back({p, {cs[i], cs[j], run_bytes}});
      i = j + 1;
    }
  }
  contributions_ = to_csr(n, contributions);
  forwards_ = to_csr(n, forwards);
}

namespace {

/// Warm bytes per kernel for one consumer, deduplicated into a small
/// touched list (consumers have few producers; linear scan beats a
/// full per-kernel array reset).
using WarmList = std::vector<std::pair<KernelId, std::uint64_t>>;

void collect_warm(std::span<const Contribution> contribs,
                  const std::atomic<KernelId>* exec, WarmList& touched) {
  touched.clear();
  for (const Contribution& c : contribs) {
    const KernelId k = exec[c.producer].load(std::memory_order_relaxed);
    if (k == kInvalidKernel) continue;
    bool found = false;
    for (auto& e : touched) {
      if (e.first == k) {
        e.second += c.bytes;
        found = true;
        break;
      }
    }
    if (!found) touched.emplace_back(k, c.bytes);
  }
}

}  // namespace

AffinityScore DataPlane::score(ThreadId consumer) const {
  static thread_local WarmList touched;
  collect_warm(contributions_.row(consumer), exec_kernel_.get(), touched);
  AffinityScore s;
  for (const auto& [k, b] : touched) {
    s.total_bytes += b;
    if (b > s.best_bytes || (b == s.best_bytes && b > 0 && k < s.best)) {
      s.best = k;
      s.best_bytes = b;
    }
  }
  return s;
}

DataPlane::DispatchAccount DataPlane::account_dispatch(ThreadId consumer,
                                                       KernelId target) const {
  static thread_local WarmList touched;
  collect_warm(contributions_.row(consumer), exec_kernel_.get(), touched);
  DispatchAccount account;
  std::uint64_t target_bytes = 0;
  std::uint64_t max_bytes = 0;
  std::uint64_t total = 0;
  for (const auto& [k, b] : touched) {
    total += b;
    max_bytes = std::max(max_bytes, b);
    if (k == target) target_bytes = b;
    if (shards_ != nullptr && !shards_->same_shard(k, target)) {
      account.cross_shard_bytes += b;
    }
  }
  if (total == 0) {
    account.cold = true;
    account.cross_shard_bytes = 0;
    return account;
  }
  account.hit = target_bytes == max_bytes;  // ties count as hits
  return account;
}

}  // namespace tflux::core
