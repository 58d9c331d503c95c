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
  // Dynamic recomputation (§7): consider kNone → kSelective → kFull, keep the
  // fastest feasible. Serial planning skips a mode whose lower bound
  // (RecomputeLowerBoundsMs) is already no better than the best plan so far;
  // the pool plans every mode. When false, only static_recompute is
  // attempted.
  bool dynamic_recompute = true;
  model::RecomputeMode static_recompute = model::RecomputeMode::kNone;
  // DP algorithm knobs (see DpPartitionerOptions).
  double tmax_interval_ms = 0.05;
  int32_t max_tmax_candidates = 256;
  int32_t max_microbatch_size = 128;
  // Fan independent planning work (every recompute mode, per-t_max DPs) over
  // this pool; null plans serially, pruning modes that cannot win. Plans are
  // bit-identical either way — parallel slots are merged deterministically
  // (see DpPartitionerOptions::pool) and a pruned mode could not have won the
  // merge. The pool may be shared across planners and with the trainer's
  // plan-ahead workers; nested fan-outs are deadlock-free (see ParallelFor).
  ThreadPool* pool = nullptr;
};

struct ReplicaPlan {
  std::vector<mb::MicroBatch> micro_batches;
  schedule::PipelineSchedule schedule;
  schedule::SimulatedTimeline timeline;  // planner's predicted timeline
  sim::ExecutionPlan exec_plan;
};

// Where one PlanIteration call spent its time, summed over the recompute
// modes planned: losing modes that were planned still cost planning time,
// modes pruned by their lower bound cost only the bound. Phase times are CPU
// work, so with a pool they can exceed the wall-clock planning_time_ms.
struct PlanningStats {
  double order_ms = 0.0;      // sample ordering
  // DP partitioning (windows + t_max sweep) plus the recompute lower bounds
  double partition_ms = 0.0;
  double schedule_ms = 0.0;   // replica balance + schedule + comm construction
  // Modes fully planned: with dynamic recompute, all 3 on a pool, and
  // serially only those whose lower bound could still win.
  int32_t recompute_modes_tried = 0;
  // t_max DPs the partitioner solved, summed over the modes planned
  // (mb::PartitionStats::candidates_solved): a pure function of the
  // mini-batch, the options and the pool's width.
  int32_t candidates_solved = 0;
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
// footprint. A DP row is priced by one PipelineCostModel::RowWalk, so each
// window is located by a grid cursor step and read from the packed tables.
// Thread-safe (the cost model is immutable).
class CostModelAdapter : public mb::MicroBatchCostFn {
 public:
  CostModelAdapter(const cost::PipelineCostModel& cm, model::RecomputeMode mode)
      : cm_(cm), mode_(mode) {}
  // Keeps `cm` by reference: a temporary would dangle.
  CostModelAdapter(cost::PipelineCostModel&&, model::RecomputeMode) = delete;

  double TimeMs(const model::MicroBatchShape& shape) const override {
    return cm_.MicroBatchTimeMs(shape, mode_);
  }
  double ActivationMb(const model::MicroBatchShape& shape) const override {
    return cm_.MaxActivationMb(shape, mode_);
  }
  size_t PriceRow(const std::vector<data::Sample>& ordered, size_t start,
                  size_t max_width, double limit, double* times,
                  double* acts) const override;

 private:
  const cost::PipelineCostModel& cm_;
  model::RecomputeMode mode_;
};

// `minibatch` in the order PlanIteration partitions it: decoder-only models
// train on one concatenated sequence per sample, so their target tokens fold
// into the input length; then `ordering` applies.
std::vector<data::Sample> PlanningOrder(const model::ModelConfig& config,
                                        std::vector<data::Sample> minibatch,
                                        mb::OrderingMethod ordering);

// For each of `modes`, a lower bound on the predicted_iteration_ms of every
// plan the planner can build over `ordered` (in PlanningOrder) under that
// mode. The simulator runs a device's ops back to back, so a replica lasts
// at least any one stage's summed fwd+bwd over its micro-batches, and the
// slowest of the dp replicas at least the average. Hence: the max over
// stages of the least summed stage time over every consecutive partition of
// `ordered` into windows of at most max_microbatch_size samples (memory
// ignored), divided by dp. One O(n x width) sweep for all modes: each row is
// one PipelineCostModel::RowWalk, which locates a window by a cursor step and
// reads every stage's fwd once for all modes.
std::vector<double> RecomputeLowerBoundsMs(
    const cost::PipelineCostModel& cm, const std::vector<data::Sample>& ordered,
    const std::vector<model::RecomputeMode>& modes, int32_t max_microbatch_size);

class IterationPlanner {
 public:
  IterationPlanner(const cost::PipelineCostModel& cost_model, PlannerOptions options);
  // Keeps `cost_model` by reference: a temporary would dangle.
  IterationPlanner(cost::PipelineCostModel&&, PlannerOptions) = delete;

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
