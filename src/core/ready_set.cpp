#include "core/ready_set.h"

#include <cassert>

namespace tflux::core {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo:
      return "fifo";
    case PolicyKind::kLocality:
      return "locality";
    case PolicyKind::kAdaptive:
      return "adaptive";
    case PolicyKind::kHier:
      return "hier";
    case PolicyKind::kAffinity:
      return "affinity";
  }
  return "?";
}

bool parse_policy(const std::string& name, PolicyKind& out) {
  for (PolicyKind kind :
       {PolicyKind::kFifo, PolicyKind::kLocality, PolicyKind::kAdaptive,
        PolicyKind::kHier, PolicyKind::kAffinity}) {
    if (name == to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

ReadySet::ReadySet(std::uint16_t num_kernels, PolicyKind policy,
                   const ShardMap* shards)
    : policy_(policy),
      shards_(policy == PolicyKind::kHier || policy == PolicyKind::kAffinity
                  ? shards
                  : nullptr),
      queues_(policy == PolicyKind::kFifo ? 1u
                                          : (num_kernels == 0 ? 1u
                                                              : num_kernels)) {
  assert(num_kernels >= 1);
  assert(shards_ == nullptr || shards_->num_kernels() == num_kernels);
  if (shards_ != nullptr) {
    shard_backlog_.assign(shards_->num_shards(), 0);
  }
}

void ReadySet::push(ThreadId tid, KernelId home) {
  if (policy_ == PolicyKind::kFifo) {
    queues_[0].push_back(tid);
  } else {
    const std::size_t q = home < queues_.size() ? home : 0u;
    queues_[q].push_back(tid);
    if (shards_ != nullptr) {
      ++shard_backlog_[shards_->shard_of(static_cast<KernelId>(q))];
    }
  }
  ++size_;
}

std::optional<ThreadId> ReadySet::pop_queue(std::size_t q) {
  if (queues_[q].empty()) return std::nullopt;
  const ThreadId tid = queues_[q].front();
  queues_[q].pop_front();
  --size_;
  if (shards_ != nullptr) {
    --shard_backlog_[shards_->shard_of(static_cast<KernelId>(q))];
  }
  return tid;
}

std::optional<ThreadId> ReadySet::pop_hier(KernelId requester) {
  // 1. Home queue: the warm-cache common case.
  if (auto tid = pop_queue(requester)) return tid;
  // 2. Sibling kernels in the requester's shard, ascending from the
  //    requester (deterministic wrap within the shard).
  const std::uint16_t my_shard = shards_->shard_of(requester);
  const std::vector<KernelId>& siblings = shards_->kernels(my_shard);
  std::size_t me = 0;
  while (siblings[me] != requester) ++me;
  for (std::size_t i = 1; i < siblings.size(); ++i) {
    const KernelId k = siblings[(me + i) % siblings.size()];
    if (auto tid = pop_queue(k)) {
      ++steals_;
      ++steal_local_;
      return tid;
    }
  }
  // 3. Remote shards, highest backlog first (ties broken by lowest
  //    shard id for determinism).
  while (size_ > 0) {
    std::uint16_t victim = shards_->num_shards();
    std::size_t best = 0;
    for (std::uint16_t s = 0; s < shards_->num_shards(); ++s) {
      if (s == my_shard) continue;
      if (shard_backlog_[s] > best) {
        best = shard_backlog_[s];
        victim = s;
      }
    }
    if (victim == shards_->num_shards()) break;  // every remote empty
    for (KernelId k : shards_->kernels(victim)) {
      if (auto tid = pop_queue(k)) {
        ++steals_;
        ++steal_remote_;
        return tid;
      }
    }
    assert(false && "shard_backlog_ out of sync with queues");
    break;
  }
  return std::nullopt;
}

std::optional<ThreadId> ReadySet::pop(KernelId requester) {
  if (size_ == 0) return std::nullopt;
  if (policy_ == PolicyKind::kFifo) {
    const ThreadId tid = queues_[0].front();
    queues_[0].pop_front();
    --size_;
    return tid;
  }
  const std::size_t n = queues_.size();
  if (shards_ != nullptr) {  // kHier or kAffinity with a ShardMap
    return pop_hier(requester < n ? requester : KernelId{0});
  }
  const std::size_t start = requester < n ? requester : 0u;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t q = (start + i) % n;
    if (!queues_[q].empty()) {
      const ThreadId tid = queues_[q].front();
      queues_[q].pop_front();
      --size_;
      if (i != 0) ++steals_;
      return tid;
    }
  }
  assert(false && "size_ out of sync with queues");
  return std::nullopt;
}

}  // namespace tflux::core
