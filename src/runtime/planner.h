// Per-iteration execution planning.
//
// IterationPlanner is DynaPipe's planner (§3 "Planners"): for one mini-batch it
// orders samples, partitions them into micro-batches with the DP algorithm,
// balances data-parallel replicas (Karmarkar–Karp), builds the memory-aware
// adaptive schedule with micro-batch reordering, lays out communication, and picks
// the cheapest feasible recomputation mode — emitting one ExecutionPlan per
// replica plus its own predictions of iteration time and peak memory (what Fig. 18
// scores against reality).
//
// PlanBaselineIteration is the MLM+DS-style path: packing (or another static
// batcher), uniform 1F1B, naive-but-fused communication, fixed recompute mode.
#ifndef DYNAPIPE_SRC_RUNTIME_PLANNER_H_
#define DYNAPIPE_SRC_RUNTIME_PLANNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/batchers.h"
#include "src/baselines/packing.h"
#include "src/cost/cost_cache.h"
#include "src/cost/pipeline_cost_model.h"
#include "src/data/dataset.h"
#include "src/mb/dp_partitioner.h"
#include "src/mb/micro_batch.h"
#include "src/mb/ordering.h"
#include "src/schedule/executor_simulator.h"
#include "src/schedule/schedule_types.h"
#include "src/sim/instruction.h"

namespace dynapipe {
class ThreadPool;
}  // namespace dynapipe

namespace dynapipe::runtime {

struct PlannerOptions {
  mb::OrderingMethod ordering = mb::OrderingMethod::kSortByLength;
  // Adaptive schedule + reordering are DynaPipe defaults; both can be disabled for
  // the Fig. 16b ablation (false/false is "1F1B over dynamic micro-batches").
  bool adaptive_schedule = true;
  bool reorder_microbatches = true;
  int32_t reorder_clusters = 3;
  // Dynamic recomputation (§7): try kNone → kSelective → kFull, keep the fastest
  // feasible. When false, only static_recompute is attempted.
  bool dynamic_recompute = true;
  model::RecomputeMode static_recompute = model::RecomputeMode::kNone;
  // DP algorithm knobs (see DpPartitionerOptions).
  double tmax_interval_ms = 0.05;
  int32_t max_tmax_candidates = 256;
  int32_t max_microbatch_size = 128;
  // Memoize DP cost queries in a planner-lifetime CachedCostOracle. On by
  // default; off recovers the seed's uncached oracle (benches use it as the
  // speedup baseline, tests to check bit-equality of cached planning).
  bool cost_cache = true;
  // Share a memoized oracle across planners / epochs instead of building a
  // planner-private one. Null + cost_cache creates a private oracle; the
  // trainer passes its epoch-spanning oracle here so epoch 2 starts with
  // epoch 1's shapes priced. Must be built over the same cost model.
  std::shared_ptr<cost::CachedCostOracle> cost_oracle;
  // Fan independent planning work (recompute modes, per-t_max DPs) over this
  // pool; null plans serially. Plans are bit-identical either way — parallel
  // slots are merged deterministically (see DpPartitionerOptions::pool). The
  // pool may be shared across planners and with the trainer's plan-ahead
  // workers; nested fan-outs are deadlock-free (see ParallelFor).
  ThreadPool* pool = nullptr;
};

struct ReplicaPlan {
  std::vector<mb::MicroBatch> micro_batches;
  schedule::PipelineSchedule schedule;
  schedule::SimulatedTimeline timeline;  // planner's predicted timeline
  sim::ExecutionPlan exec_plan;
};

// Where one PlanIteration call spent its time and how the cost cache behaved,
// summed over every recompute mode tried (losing modes still cost planning
// time). Phase times are CPU work, so with a pool they can exceed the
// wall-clock planning_time_ms.
struct PlanningStats {
  double order_ms = 0.0;      // sample ordering
  double partition_ms = 0.0;  // DP partitioning (windows + t_max sweep)
  double schedule_ms = 0.0;   // replica balance + schedule + comm construction
  int64_t cost_cache_hits = 0;
  int64_t cost_cache_misses = 0;
  int32_t recompute_modes_tried = 0;
  // Always zero: the planner keeps no cross-iteration prefix cache. Kept
  // because bench/e2e reads them for its mb.prefix_hit_rate column.
  int64_t prefix_cache_hits = 0;
  int64_t prefix_cache_misses = 0;

  double cache_hit_rate() const {
    const int64_t total = cost_cache_hits + cost_cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cost_cache_hits) /
                            static_cast<double>(total);
  }
};

struct IterationPlan {
  bool feasible = false;
  std::string infeasible_reason;
  std::vector<ReplicaPlan> replicas;
  model::RecomputeMode recompute = model::RecomputeMode::kNone;
  // Predicted iteration time: max replica makespan. Deliberately excludes the
  // data-parallel gradient allreduce, which the paper's cost model does not cover
  // (its stated source of GPT outliers in Fig. 18a).
  double predicted_iteration_ms = 0.0;
  // Predicted peak memory per stage (max over replicas, static + activations).
  std::vector<double> predicted_peak_mb;
  double planning_time_ms = 0.0;
  mb::PaddingStats padding;
  PlanningStats stats;

  int32_t total_microbatches() const;
};

// Memoized MicroBatchCostFn: binds a CachedCostOracle to one recompute mode.
// Shared by the planner, benches, and tests; thread-safe (the oracle is).
// Tallies hits/misses per adapter, so counters stay exact even when several
// adapters over one oracle run concurrently (the oracle's global counters
// would cross-attribute under concurrency).
class CachedCostAdapter : public mb::MicroBatchCostFn {
 public:
  CachedCostAdapter(const cost::CachedCostOracle& oracle, model::RecomputeMode mode)
      : oracle_(oracle), mode_(mode) {}

  double TimeMs(const model::MicroBatchShape& shape) const override {
    bool hit = false;
    const double v = oracle_.Query(shape, mode_, &hit).time_ms;
    Count(hit);
    return v;
  }
  double ActivationMb(const model::MicroBatchShape& shape) const override {
    bool hit = false;
    const double v =
        oracle_.Query(shape, mode_, &hit, /*act_limit=*/-1.0).act_mb;
    Count(hit);
    return v;
  }
  bool WindowCosts(const model::MicroBatchShape& shape, double limit,
                   double* time_ms, double* act_mb) const override {
    bool hit = false;
    // Forwarding the limit keeps the oracle as lazy as the uncached path:
    // windows that break the memory cap are never priced.
    const cost::CachedCostOracle::Entry e =
        oracle_.Query(shape, mode_, &hit, limit);
    Count(hit);
    *act_mb = e.act_mb;
    if (limit > 0.0 && e.act_mb > limit) {
      return false;
    }
    *time_ms = e.time_ms;
    return true;
  }
  std::pair<int64_t, int64_t> CacheCounters() const override {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed)};
  }

 private:
  void Count(bool hit) const {
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  }

  const cost::CachedCostOracle& oracle_;
  model::RecomputeMode mode_;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
};

class IterationPlanner {
 public:
  IterationPlanner(const cost::PipelineCostModel& cost_model, PlannerOptions options);

  // Thread-safe: the trainer's plan-ahead workers call this concurrently on one
  // planner instance; the cost cache is shared and sharded.
  IterationPlan PlanIteration(const std::vector<data::Sample>& minibatch) const;

  const PlannerOptions& options() const { return options_; }
  // Null when options().cost_cache is false.
  const cost::CachedCostOracle* cost_cache() const { return oracle_.get(); }

 private:
  IterationPlan PlanWithRecompute(const std::vector<data::Sample>& ordered,
                                  model::RecomputeMode mode) const;

  const cost::PipelineCostModel& cm_;
  PlannerOptions options_;
  // Lives as long as the planner, so shapes memoized in one iteration keep
  // paying off across the epoch (consecutive mini-batches draw similar length
  // mixes from the same dataset). Only allocated when the cache is enabled —
  // the table is several MB and uncached planners must not pay for it.
  std::shared_ptr<cost::CachedCostOracle> oracle_;
};

// --- Baseline (MLM+DS-style) planning ---

enum class BaselineBatching { kPacking, kTokenBased, kFixedSize, kNaivePadding };

struct BaselineOptions {
  BaselineBatching batching = BaselineBatching::kPacking;
  // Packing: sequences per micro-batch. Fixed-size/naive: samples per micro-batch.
  int32_t microbatch_size = 1;
  // Token-based batching: padded tokens per micro-batch.
  int64_t tokens_per_microbatch = 4096;
  // Truncation/packing limits.
  int32_t max_input_len = 2048;
  int32_t max_target_len = 0;  // <= 0: derive as max_input_len / 4 for T5
  model::RecomputeMode recompute = model::RecomputeMode::kNone;
  // Order samples before token-based/fixed-size batching (TB(S)/TB(T) in Fig. 16a).
  mb::OrderingMethod ordering = mb::OrderingMethod::kSortByLength;
};

IterationPlan PlanBaselineIteration(const cost::PipelineCostModel& cost_model,
                                    const BaselineOptions& options,
                                    const std::vector<data::Sample>& minibatch);

}  // namespace dynapipe::runtime

#endif  // DYNAPIPE_SRC_RUNTIME_PLANNER_H_
