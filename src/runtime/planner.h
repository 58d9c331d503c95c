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

#include <cstdint>
#include <string>
#include <vector>

#include "src/baselines/batchers.h"
#include "src/baselines/packing.h"
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

// Where one PlanIteration call spent its time, summed over every recompute
// mode tried (losing modes still cost planning time). Phase times are CPU
// work, so with a pool they can exceed the wall-clock planning_time_ms.
struct PlanningStats {
  double order_ms = 0.0;      // sample ordering
  double partition_ms = 0.0;  // DP partitioning (windows + t_max sweep)
  double schedule_ms = 0.0;   // replica balance + schedule + comm construction
  int32_t recompute_modes_tried = 0;
  // Always zero: the planner keeps no cost cache and no cross-iteration
  // prefix cache. Kept because bench/e2e reads them for its
  // cost.cache_hit_rate and mb.prefix_hit_rate columns.
  int64_t cost_cache_hits = 0;
  int64_t cost_cache_misses = 0;
  int64_t prefix_cache_hits = 0;
  int64_t prefix_cache_misses = 0;
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

// The DP partitioner's cost oracle over the profiled cost model for one
// recompute mode: bottleneck-stage time and the worst per-stage activation
// footprint, each window priced from one shared grid lookup. Thread-safe (the
// cost model is immutable).
class CostModelAdapter : public mb::MicroBatchCostFn {
 public:
  CostModelAdapter(const cost::PipelineCostModel& cm, model::RecomputeMode mode)
      : cm_(cm), mode_(mode) {}

  double TimeMs(const model::MicroBatchShape& shape) const override {
    return cm_.MicroBatchTimeMs(shape, mode_);
  }
  double ActivationMb(const model::MicroBatchShape& shape) const override {
    return cm_.MaxActivationMb(shape, mode_);
  }
  bool WindowCosts(const model::MicroBatchShape& shape, double limit,
                   double* time_ms, double* act_mb) const override {
    return cm_.WindowCosts(shape, mode_, limit, time_ms, act_mb);
  }

 private:
  const cost::PipelineCostModel& cm_;
  model::RecomputeMode mode_;
};

class IterationPlanner {
 public:
  IterationPlanner(const cost::PipelineCostModel& cost_model, PlannerOptions options);

  // Thread-safe: the trainer's plan-ahead workers call this concurrently on one
  // planner instance.
  IterationPlan PlanIteration(const std::vector<data::Sample>& minibatch) const;

  const PlannerOptions& options() const { return options_; }

 private:
  IterationPlan PlanWithRecompute(const std::vector<data::Sample>& ordered,
                                  model::RecomputeMode mode) const;

  const cost::PipelineCostModel& cm_;
  PlannerOptions options_;
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
