#include "src/service/plan_cache.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/metrics.h"

namespace dynapipe::service {
namespace {

// Process-wide gauge of the cache's estimated footprint (cached reference,
// see OBSERVABILITY.md). Multiple caches in one process overwrite each other
// — by design: in production exactly one plan cache exists per trainer.
common::Gauge& PlanCacheBytesGauge() {
  static common::Gauge& g =
      common::MetricsRegistry::Instance().GetGauge("plan_cache_bytes");
  return g;
}

// The sample as the planner stores it: decoder-only models fold the target
// into the input (see CanonicalizeForArch in runtime/planner.cc).
data::Sample Canonical(data::Sample s, bool fold) {
  if (fold) {
    s.input_len += s.target_len;
    s.target_len = 0;
  }
  return s;
}

// Packed canonical length pair of one sample, to match what the planner
// actually plans on.
uint64_t PackedPair(const data::Sample& s, bool fold) {
  const data::Sample c = Canonical(s, fold);
  return (static_cast<uint64_t>(static_cast<uint32_t>(c.input_len)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(c.target_len));
}

}  // namespace

PlanCache::PlanCache(PlanCacheOptions options) : options_(options) {
  DYNAPIPE_CHECK(options_.capacity >= 1);
}

PlanSignature PlanCache::Signature(const std::vector<data::Sample>& minibatch,
                                   bool fold_target_lengths, uint64_t config_hash) {
  PlanSignature sig;
  sig.key.reserve(minibatch.size());
  for (const auto& s : minibatch) {
    sig.key.push_back(PackedPair(s, fold_target_lengths));
  }
  std::sort(sig.key.begin(), sig.key.end());
  uint64_t h = HashCombine(kHashBasis, config_hash);
  h = HashCombine(h, fold_target_lengths ? 1u : 0u);
  h = HashCombine(h, sig.key.size());
  for (const uint64_t k : sig.key) {
    h = HashCombine(h, k);
  }
  sig.hash = h;
  return sig;
}

runtime::IterationPlan PlanCache::Rebind(
    runtime::IterationPlan plan, const std::vector<data::Sample>& minibatch,
    bool fold_target_lengths) {
  // Bucket the new samples by canonical pair; every cached slot then pops a
  // matching sample. Signature equality guarantees the multisets line up.
  std::unordered_map<uint64_t, std::vector<const data::Sample*>> buckets;
  buckets.reserve(minibatch.size());
  for (const auto& s : minibatch) {
    buckets[PackedPair(s, fold_target_lengths)].push_back(&s);
  }
  size_t bound = 0;
  for (auto& replica : plan.replicas) {
    for (auto& micro_batch : replica.micro_batches) {
      for (auto& slot : micro_batch.samples) {
        // The cached plan's samples already carry canonical lengths (the
        // planner folded them), so their pair is the bucket key directly, and
        // the new sample goes in folded the same way: the rebound slot then
        // holds exactly the lengths the cached one did, and the cached
        // padding stats stay correct.
        auto it = buckets.find(PackedPair(slot, fold_target_lengths));
        DYNAPIPE_CHECK_MSG(it != buckets.end() && !it->second.empty(),
                           "plan cache rebind: length multiset mismatch");
        slot = Canonical(*it->second.back(), fold_target_lengths);
        it->second.pop_back();
        ++bound;
      }
    }
  }
  DYNAPIPE_CHECK_MSG(bound == minibatch.size(),
                     "plan cache rebind: sample count mismatch");
  return plan;
}

PlanCache::EntryList::iterator PlanCache::FindLocked(const PlanSignature& sig) {
  auto chain = index_.find(sig.hash);
  if (chain == index_.end()) {
    return entries_.end();
  }
  for (const auto it : chain->second) {
    if (it->sig == sig) {
      return it;
    }
  }
  return entries_.end();
}

std::optional<runtime::IterationPlan> PlanCache::Lookup(
    const PlanSignature& sig, const std::vector<data::Sample>& minibatch,
    bool fold_target_lengths) {
  std::shared_ptr<const runtime::IterationPlan> cached;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = FindLocked(sig);
    if (it == entries_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    entries_.splice(entries_.begin(), entries_, it);  // refresh LRU
    cached = it->plan;  // refcount bump only; the plan copy happens outside
  }
  // The shared_ptr keeps the plan alive even if the entry is evicted while we
  // copy; Rebind's by-value parameter is that copy.
  return Rebind(*cached, minibatch, fold_target_lengths);
}

size_t PlanCache::EstimatePlanBytes(const runtime::IterationPlan& plan) {
  size_t bytes = sizeof(runtime::IterationPlan);
  bytes += plan.infeasible_reason.capacity();
  bytes += plan.predicted_peak_mb.capacity() * sizeof(double);
  for (const auto& replica : plan.replicas) {
    bytes += sizeof(runtime::ReplicaPlan);
    for (const auto& m : replica.micro_batches) {
      bytes += sizeof(mb::MicroBatch) + m.samples.capacity() * sizeof(data::Sample);
    }
    for (const auto& dev : replica.schedule.devices) {
      bytes += sizeof(dev) + dev.capacity() * sizeof(schedule::ScheduledOp);
    }
    for (const auto* ops : {&replica.timeline.fwd, &replica.timeline.bwd}) {
      for (const auto& row : *ops) {
        bytes += sizeof(row) + row.capacity() * sizeof(schedule::OpTimes);
      }
    }
    bytes += (replica.timeline.device_busy_ms.capacity() +
              replica.timeline.device_peak_mb.capacity()) *
             sizeof(double);
    for (const auto& dev : replica.exec_plan.devices) {
      bytes += sizeof(sim::DevicePlan) +
               dev.instructions.capacity() * sizeof(sim::Instruction);
    }
  }
  return bytes;
}

void PlanCache::Insert(const PlanSignature& sig,
                       const runtime::IterationPlan& plan) {
  if (!plan.feasible) {
    return;
  }
  // Copy the plan before taking the lock; a racing insert then only wastes
  // the copy instead of serializing other workers behind it.
  auto copy = std::make_shared<const runtime::IterationPlan>(plan);
  const size_t entry_bytes = sizeof(Entry) + sig.key.capacity() * sizeof(uint64_t) +
                             EstimatePlanBytes(*copy);
  std::lock_guard<std::mutex> lock(mu_);
  const auto existing = FindLocked(sig);
  if (existing != entries_.end()) {
    // Racing miss already filled this signature with the same deterministic
    // plan; keep the first copy.
    entries_.splice(entries_.begin(), entries_, existing);
    return;
  }
  entries_.push_front(Entry{sig, std::move(copy), entry_bytes});
  index_[sig.hash].push_back(entries_.begin());
  ++stats_.insertions;
  stats_.bytes += static_cast<int64_t>(entry_bytes);
  while (entries_.size() > 1 &&
         (entries_.size() > options_.capacity ||
          (options_.max_bytes > 0 &&
           stats_.bytes > static_cast<int64_t>(options_.max_bytes)))) {
    const auto victim = std::prev(entries_.end());
    auto& chain = index_[victim->sig.hash];
    chain.erase(std::find(chain.begin(), chain.end(), victim));
    if (chain.empty()) {
      index_.erase(victim->sig.hash);
    }
    stats_.bytes -= static_cast<int64_t>(victim->bytes);
    entries_.erase(victim);
    ++stats_.evictions;
  }
  PlanCacheBytesGauge().Set(stats_.bytes);
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t PlanCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<size_t>(stats_.bytes);
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dynapipe::service
