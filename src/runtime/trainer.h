// Epoch-level training loop on the simulated cluster.
//
// For every mini-batch the planner (DynaPipe or baseline) produces per-replica
// execution plans; each replica's plan runs on a ClusterSim backed by the noisy
// ground-truth model. Measured iteration time is the slowest replica's makespan
// plus the data-parallel gradient allreduce. Throughput follows the paper's metric:
// real (non-padding) tokens divided by total training time (§8 "Metrics").
#ifndef DYNAPIPE_SRC_RUNTIME_TRAINER_H_
#define DYNAPIPE_SRC_RUNTIME_TRAINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cost/pipeline_cost_model.h"
#include "src/data/dataset.h"
#include "src/data/minibatch_sampler.h"
#include "src/runtime/planner.h"

namespace dynapipe {
class ThreadPool;
namespace service {
class PlanCache;
}  // namespace service
}  // namespace dynapipe

namespace dynapipe::runtime {

struct TrainerOptions {
  int64_t global_batch_tokens = 65'536;
  int32_t max_input_len = 2048;
  // <= 0 derives max target length as max_input_len / 4 for T5 (0 for GPT).
  int32_t max_target_len = 0;
  uint64_t sampler_seed = 7;
  // 0 = full epoch. Benches subsample iterations for tractable run times; the
  // throughput metric is per-time so subsampling is unbiased.
  int32_t max_iterations = 0;
  // Run-time execution noise (relative stddev) applied by the ground truth.
  double noise_stddev = 0.05;
  uint64_t noise_seed = 99;
  // --- Plan-ahead service (src/service/plan_ahead_service.h) ---
  // Every epoch obtains plans through the PlanAheadService; the fields below
  // configure it. Results are identical to inline serial planning — only
  // wall-clock planning latency changes.
  //
  // Worker threads for planning future iterations (<= 1 plans inline unless
  // plan_lookahead says otherwise). Mirrors the paper's overlap of CPU-side
  // planning with GPU execution (§3, Fig. 17). The pool is shared with the
  // planner's intra-iteration fan-outs, so iteration i+1's window precompute
  // overlaps iteration i's candidate sweep; when the PlannerOptions already
  // carry a pool, that one is shared instead of creating a second herd.
  int32_t planning_threads = 0;
  // Look-ahead window depth (iterations planned beyond the one executing).
  // < 0 derives the old trainer heuristic: 2x planning_threads when
  // planning_threads > 1, else 0 (inline).
  int32_t plan_lookahead = -1;
  // Cross-iteration plan cache (service/plan_cache.h): mini-batches whose
  // sequence-length multiset recurs skip planning entirely. The cache lives on
  // the Trainer, so consecutive epochs share it (epoch 2 of a replayed
  // shuffle hits epoch 1's plans) and holds up to 256 plans. DynaPipe
  // planning only — the baseline path repacks samples and cannot be rebound.
  bool plan_cache = false;
  // Distribute plans through the in-process instruction store as serialized
  // bytes (service/plan_serde.h), and bound the store's resident plans (Push
  // backpressure; 0 = unbounded, must be >= dp replicas otherwise). The
  // multi-process publisher — a socket or shm store with executors attached,
  // fed by a PlanAheadService — is executor::Publisher, not the Trainer,
  // which consumes its own plans.
  bool serialize_plans = false;
  size_t instruction_store_capacity = 0;
  // --- Observability (src/common/trace.h, src/common/metrics.h) ---
  // Non-empty enables plan-lifecycle tracing and names the merged
  // Chrome/Perfetto trace JSON written at epoch end (any `<path>.<pid>.part`
  // files other processes wrote there are folded into the merge). Equivalent
  // to setting DYNAPIPE_TRACE in the environment.
  std::string trace_path;
};

struct IterationRecord {
  double planning_ms = 0.0;
  double predicted_ms = 0.0;
  double measured_ms = 0.0;
  double predicted_peak_mb = 0.0;
  double measured_peak_mb = 0.0;
  int32_t num_microbatches = 0;
  model::RecomputeMode recompute = model::RecomputeMode::kNone;
  // Copied from IterationPlan::stats so benches (Fig. 17) report phase splits
  // without re-instrumenting the planner.
  double partition_ms = 0.0;
  double schedule_ms = 0.0;
  int32_t recompute_modes_tried = 0;
  // Always zero (copied from PlanningStats, whose planner keeps no cost cache
  // and no prefix cache). Kept because bench/e2e reads them for
  // cost.cache_hit_rate and mb.prefix_hit_rate.
  int64_t cost_cache_hits = 0;
  int64_t cost_cache_misses = 0;
  int64_t prefix_cache_hits = 0;
  int64_t prefix_cache_misses = 0;
  // Plan-ahead service: whether this iteration's plan came from the
  // cross-iteration plan cache (its phase counters above are then 0), and how
  // long the trainer stalled waiting for the plan (planning latency the
  // look-ahead pipeline failed to hide; the paper's Fig. 17 overlap target).
  bool plan_cache_hit = false;
  double plan_stall_ms = 0.0;
  // Straggler stats from the HeartbeatMonitor, at HeartbeatMonitorOptions'
  // default thresholds (service/heartbeat_monitor.h): the simulated makespan
  // of every replica that reported this iteration, and the replicas flagged
  // over 2x the median. The relative criterion needs >= 3 replicas to be
  // meaningful (with two, nothing can exceed twice the pair's mean).
  int32_t heartbeat_replicas = 0;
  double replica_median_ms = 0.0;
  double replica_max_ms = 0.0;
  std::vector<int32_t> straggler_replicas;
};

struct EpochResult {
  // False when any iteration could not be planned (OOM) or execution failed
  // (deadlock / OOM at run time); `failure` explains why. Configurations that fail
  // are excluded from grid search, like the paper's OOM bars.
  bool feasible = true;
  std::string failure;

  int64_t iterations = 0;
  int64_t real_tokens = 0;
  double train_time_ms = 0.0;
  double planning_time_ms = 0.0;
  // Plan-ahead service totals: stall is the planning latency the executors
  // actually waited for (<= planning_time_ms once the pipeline is warm);
  // plan-cache counters aggregate the per-iteration hits; serialized bytes is
  // the instruction-store wire volume (serialized mode only).
  double plan_stall_ms = 0.0;
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t serialized_plan_bytes = 0;
  mb::PaddingStats padding;
  std::vector<IterationRecord> records;
  int64_t deadlocks = 0;
  int64_t ooms = 0;
  // Total straggler flags raised across the epoch (per-iteration detail in
  // records[*].straggler_replicas).
  int64_t straggler_flags = 0;

  double tokens_per_second() const {
    return train_time_ms <= 0.0 ? 0.0 : static_cast<double>(real_tokens) /
                                            (train_time_ms / 1000.0);
  }
};

class Trainer {
 public:
  Trainer(const model::ModelConfig& config, const model::HardwareSpec& hw,
          const model::ParallelConfig& parallel,
          const cost::ProfileOptions& profile_options = {});

  // DynaPipe planning path.
  EpochResult RunEpoch(const data::Dataset& dataset, const PlannerOptions& planner,
                       const TrainerOptions& options);

  // MLM+DS-style baseline path.
  EpochResult RunEpochBaseline(const data::Dataset& dataset,
                               const BaselineOptions& baseline,
                               const TrainerOptions& options);

  const cost::PipelineCostModel& cost_model() const { return cost_model_; }
  const model::ParallelConfig& parallel() const { return parallel_; }

 private:
  using PlanFn = std::function<IterationPlan(const std::vector<data::Sample>&)>;

  // `pool` (nullable) is shared with the plan-ahead service; `config_hash`
  // pins the planning configuration for plan-cache signatures;
  // `allow_plan_cache` gates the cache to rebindable (DynaPipe) plans.
  EpochResult RunEpochImpl(const data::Dataset& dataset, const TrainerOptions& options,
                           const PlanFn& plan_fn, ThreadPool* pool,
                           uint64_t config_hash, bool allow_plan_cache);

  model::ModelConfig config_;
  model::HardwareSpec hw_;
  model::ParallelConfig parallel_;
  cost::PipelineCostModel cost_model_;
  // Lazily created when TrainerOptions::plan_cache is set; persists across
  // RunEpoch calls so replayed epochs hit.
  std::shared_ptr<service::PlanCache> plan_cache_;
};

}  // namespace dynapipe::runtime

#endif  // DYNAPIPE_SRC_RUNTIME_TRAINER_H_
