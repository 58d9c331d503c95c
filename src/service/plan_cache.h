// Cross-iteration plan cache.
//
// The planner is a deterministic function of the mini-batch's multiset of
// (input_len, target_len) sequence lengths plus the model/cluster/planner
// configuration — sample identities never influence a planning decision, only
// their lengths do. PlanCache exploits that: whole IterationPlans are memoized
// under a canonical *mini-batch signature* (the sorted length multiset hashed
// together with a configuration hash), so epochs that revisit batch shapes —
// epoch-based training replaying the same shuffled batches, recurring task
// mixes — skip partitioning, scheduling, and communication planning entirely
// and pay only a lookup plus a sample rebind.
//
// A cache hit "rebinds" the cached plan to the new mini-batch: every cached
// sample slot is matched to a new sample with the same canonical length pair,
// which the signature guarantees exists. Padded shapes, predicted times,
// schedules, and execution plans depend only on lengths, so a rebound plan is
// bit-identical to replanning.
//
// Thread-safe (one mutex around the LRU structures); concurrent plan-ahead
// workers share one cache. Racing misses on the same signature plan the same
// deterministic result, so whichever insert wins, lookups stay consistent.
#ifndef DYNAPIPE_SRC_SERVICE_PLAN_CACHE_H_
#define DYNAPIPE_SRC_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/data/dataset.h"
#include "src/runtime/planner.h"

namespace dynapipe::service {

// FNV-1a accumulate; seed with kHashBasis. Shared by the signature and the
// trainer's configuration hash.
inline constexpr uint64_t kHashBasis = 1469598103934665603ull;
inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

// Canonical identity of a mini-batch for planning purposes. `key` is the
// sorted multiset of packed (input_len << 32 | target_len) pairs after
// canonicalization; `hash` additionally folds in the configuration hash so
// distinct setups never alias.
struct PlanSignature {
  uint64_t hash = 0;
  std::vector<uint64_t> key;

  bool operator==(const PlanSignature&) const = default;
};

struct PlanCacheOptions {
  // Maximum cached plans; least-recently-used entries are evicted beyond it.
  // Whole plans are a few hundred KB at large batches, so the default keeps
  // the cache at tens of MB worst case.
  size_t capacity = 64;
  // Maximum estimated bytes across cached plans (0: unbounded). Plan size
  // scales with batch size × replica count, so a count cap alone can blow
  // past a memory budget at large batches; the byte cap evicts LRU entries
  // until under budget, always keeping the most recent entry even when it
  // alone exceeds the cap (an empty cache helps nobody).
  size_t max_bytes = 0;
};

struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  // Estimated bytes currently held (sum of EstimatePlanBytes over entries).
  int64_t bytes = 0;

  double hit_rate() const {
    const int64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class PlanCache {
 public:
  explicit PlanCache(PlanCacheOptions options = {});

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Builds the signature of `minibatch`. `fold_target_lengths` mirrors the
  // planner's decoder-only canonicalization (GPT folds target into input);
  // `config_hash` pins the model, cluster, and planner configuration the plan
  // depends on.
  static PlanSignature Signature(const std::vector<data::Sample>& minibatch,
                                 bool fold_target_lengths, uint64_t config_hash);

  // Rebinds `plan` (computed for a batch with the same signature) to
  // `minibatch`: each cached sample slot is replaced by a new sample whose
  // canonical length pair matches, canonicalized the way the planner stores
  // it (folded when `fold_target_lengths`), so the rebound plan — samples and
  // padding stats included — equals a fresh plan of `minibatch`. Shapes,
  // schedules, predictions, and exec plans are untouched. Aborts if the
  // multisets do not match — callers must only rebind within one signature.
  static runtime::IterationPlan Rebind(runtime::IterationPlan plan,
                                       const std::vector<data::Sample>& minibatch,
                                       bool fold_target_lengths);

  // On hit, returns the cached plan rebound to `minibatch` and refreshes its
  // LRU position. The returned plan carries the cached planning stats; the
  // caller decides what to surface for a hit.
  std::optional<runtime::IterationPlan> Lookup(
      const PlanSignature& sig, const std::vector<data::Sample>& minibatch,
      bool fold_target_lengths);

  // Inserts a copy of `plan` under `sig` (first insert wins; re-inserting an
  // existing signature refreshes LRU only). Evicts least-recently-used
  // entries beyond capacity or the byte cap. Infeasible plans are not cached.
  void Insert(const PlanSignature& sig, const runtime::IterationPlan& plan);

  // Deep size estimate of one plan (samples, schedules, timelines,
  // instructions) — what the byte cap and `plan_cache_bytes` account.
  static size_t EstimatePlanBytes(const runtime::IterationPlan& plan);

  size_t size() const;
  size_t bytes() const;
  PlanCacheStats stats() const;

 private:
  struct Entry {
    PlanSignature sig;
    // Immutable once inserted; shared so Lookup only bumps a refcount under
    // the mutex and the (large) plan copy for rebinding happens outside it.
    std::shared_ptr<const runtime::IterationPlan> plan;
    size_t bytes = 0;  // EstimatePlanBytes + key, fixed at insert
  };
  // LRU order, most recent first; the list owns the entries so iterators stay
  // valid across every operation but the owning splice/erase.
  using EntryList = std::list<Entry>;

  EntryList::iterator FindLocked(const PlanSignature& sig);

  PlanCacheOptions options_;
  mutable std::mutex mu_;
  EntryList entries_;
  // hash -> entries with that hash (collision chain holds full-key compare).
  std::unordered_map<uint64_t, std::vector<EntryList::iterator>> index_;
  PlanCacheStats stats_;
};

}  // namespace dynapipe::service

#endif  // DYNAPIPE_SRC_SERVICE_PLAN_CACHE_H_
