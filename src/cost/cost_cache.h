// Shape-memoized cost oracle.
//
// The DP partitioner issues O(N * max window width) cost queries per t_max
// sweep, but on a length-ordered mini-batch the padded window shapes
// (num_samples, input_len, target_len) repeat heavily: runs of equal-length
// samples make consecutive windows collapse to the same shape, the same shapes
// recur across t_max candidates and recompute-mode re-plans, and consecutive
// iterations re-draw similar length mixes. CachedCostOracle memoizes
// PipelineCostModel::MicroBatchTimeMs / MaxActivationMb per (shape, recompute
// mode) so each distinct shape pays the per-stage interpolation walk exactly
// once.
//
// Storage is a fixed-capacity open-addressed table with write-once slots:
// reads are lock-free (one atomic key load + contiguous value read), writes
// claim an empty slot with a CAS after publishing the value, so concurrent
// t_max DPs / recompute modes / planner threads (§3's "planning on spare CPU
// cores", Fig. 17) share one cache without any mutex. Racing misses on the
// same key derive the same deterministic value, so cached reads are
// bit-identical to uncached ones regardless of thread interleaving. When the
// table fills (or a probe run is exhausted), further fresh shapes are simply
// computed uncached — correctness never depends on capacity.
#ifndef DYNAPIPE_SRC_COST_COST_CACHE_H_
#define DYNAPIPE_SRC_COST_COST_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/cost/pipeline_cost_model.h"
#include "src/model/shapes.h"

namespace dynapipe::cost {

// Cumulative hit/miss counters. A "query" is one TimeMs, ActivationMb, or
// Query call; a miss fills both values for the key, so the second call on a
// fresh shape is already a hit.
struct CostCacheCounters {
  int64_t hits = 0;
  int64_t misses = 0;

  double hit_rate() const {
    const int64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class CachedCostOracle {
 public:
  // Both values for one key; a miss fills both at once.
  struct Entry {
    double time_ms = 0.0;
    double act_mb = 0.0;
  };

  // `capacity` (rounded up to a power of two) bounds distinct cached keys. The
  // default's ~6 MB table holds the cross-iteration shape reuse of large-batch
  // epochs (the main hit-rate source) while staying LLC-resident on server
  // parts; much larger tables turn cold misses into DRAM round-trips that cost
  // more than the interpolation walk they front. When the table fills, fresh
  // shapes are computed uncached, and a full table whose lifetime hit rate
  // stays under 10% switches to a probe-free bypass.
  explicit CachedCostOracle(const PipelineCostModel& cm,
                            size_t capacity = size_t{1} << 18);

  CachedCostOracle(const CachedCostOracle&) = delete;
  CachedCostOracle& operator=(const CachedCostOracle&) = delete;

  // Memoized PipelineCostModel::MicroBatchTimeMs (bottleneck-stage fwd+bwd).
  double TimeMs(const model::MicroBatchShape& shape,
                model::RecomputeMode mode) const;
  // Memoized PipelineCostModel::MaxActivationMb (worst stage's activations).
  double ActivationMb(const model::MicroBatchShape& shape,
                      model::RecomputeMode mode) const;
  // Underlying lookup. When `act_limit` > 0 and the activation footprint
  // exceeds it, time is not computed (entry.time_ms is NaN) — mirroring the
  // uncached DP precompute, which never prices windows that already broke the
  // memory cap; a later query of the same key that does need time upgrades the
  // entry in place. When `hit` is non-null it reports whether this query was
  // served from the cache — callers that need exact per-caller counters (the
  // planner's per-recompute-mode adapters run concurrently, so deltas of the
  // global counters would cross-attribute) tally these flags themselves.
  Entry Query(const model::MicroBatchShape& shape, model::RecomputeMode mode,
              bool* hit = nullptr, double act_limit = 0.0) const;

  CostCacheCounters counters() const;
  // Number of distinct (shape, mode) keys currently cached.
  size_t size() const { return entries_.load(std::memory_order_relaxed); }
  size_t capacity() const { return mask_ + 1; }

  const PipelineCostModel& cost_model() const { return cm_; }

 private:
  struct Slot {
    // 0 = empty (real keys are never 0: num_samples >= 1). Published with
    // release after the value fields are written; read with acquire.
    std::atomic<uint64_t> key{0};
    double act_mb = 0.0;
    // NaN until computed (lazy: over-limit windows are never priced unless a
    // later caller asks). Atomic so the in-place upgrade after publication
    // cannot tear; racing upgrades store the same deterministic value.
    std::atomic<double> time_ms{0.0};
  };

  static uint64_t Key(const model::MicroBatchShape& shape,
                      model::RecomputeMode mode);

  const PipelineCostModel& cm_;
  size_t mask_;  // capacity - 1, capacity a power of two
  // Inserts stop at ~3/4 load: past that, linear-probe runs grow sharply and a
  // saturated table would make every miss scan (and fault in) long slot runs —
  // costing more than the interpolation walk the cache exists to avoid.
  size_t insert_cap_;
  std::unique_ptr<Slot[]> slots_;
  mutable std::atomic<size_t> entries_{0};
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  // Adaptive-bypass state (see Query): windowed hit-rate tracking decides
  // whether probing currently earns its cost.
  mutable std::atomic<int32_t> bypassed_{0};
  mutable std::atomic<int64_t> window_start_total_{0};
  mutable std::atomic<int64_t> window_start_hits_{0};
};

}  // namespace dynapipe::cost

#endif  // DYNAPIPE_SRC_COST_COST_CACHE_H_
