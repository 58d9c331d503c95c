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

#include "src/common/metrics.h"
#include "src/cost/pipeline_cost_model.h"
#include "src/data/dataset.h"
#include "src/data/minibatch_sampler.h"
#include "src/runtime/planner.h"
#include "src/service/fleet.h"

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
  // shuffle hits epoch 1's plans). DynaPipe planning only — the baseline path
  // repacks samples and cannot be rebound.
  bool plan_cache = false;
  size_t plan_cache_capacity = 256;
  // Byte budget for the plan cache (estimated deep size; 0 = unbounded).
  // Plans scale with batch size x replicas, so large-batch runs cap by bytes
  // rather than trusting the count alone (see PlanCacheOptions::max_bytes).
  size_t plan_cache_max_bytes = 0;
  // Distribute plans through the instruction store as serialized bytes
  // (service/plan_serde.h), and bound the store's resident plans (Push
  // backpressure; 0 = unbounded, must be >= dp replicas otherwise).
  bool serialize_plans = false;
  size_t instruction_store_capacity = 0;
  // Which instruction-store backend carries plans from the plan-ahead
  // pipeline to the executors (src/transport/):
  //   - kInProcess: the store lives in this process (serialize_plans decides
  //     whether plans cross an encode/decode boundary);
  //   - kUnixSocketMux: plans publish through a MuxInstructionStore client
  //     to an InstructionStoreServer over a Unix domain socket — the full
  //     cross-process wire path (frames, plan_serde bytes, server-side
  //     capacity backpressure) on one persistent connection carrying
  //     request-id-tagged frames (src/transport/mux.h), hosted in-process by
  //     the trainer so results stay bit-identical while exercising the real
  //     transport;
  //   - kSharedMemory: a ShmInstructionStore segment (src/transport/
  //     shm_store.h) — zero-copy same-host distribution; executors could
  //     attach by name from another process, the trainer uses the same
  //     mapping.
  enum class PlanStoreBackend {
    kInProcess,
    kUnixSocketMux,
    kSharedMemory,
  };
  PlanStoreBackend plan_store_backend = PlanStoreBackend::kInProcess;
  // Socket path for kUnixSocketMux; empty derives a unique /tmp path per
  // epoch.
  std::string plan_store_socket_path;
  // Segment name for kSharedMemory ("/dynapipe-..."); empty derives a unique
  // name per epoch.
  std::string plan_store_shm_name;
  // --- Straggler detection (service/heartbeat_monitor.h) ---
  // Replica completion times feed a HeartbeatMonitor: the trainer reports
  // its in-process replicas' simulated makespans, and on the socket
  // backend the server also routes kHeartbeat frames from any attached
  // reporter into the same monitor (heartbeats are non-destructive, unlike
  // fetch — a plan is consumed exactly once, and this trainer consumes its
  // own plans, so standalone dynapipe_executor processes run against a
  // dedicated publisher as in examples/plan_distribution, not against a
  // live trainer's store). A replica is flagged on iteration i when its
  // completion exceeds
  //   straggler_multiple * median + straggler_min_gap_ms;
  // per-iteration stats land in IterationRecord. The relative criterion
  // needs >= 3 replicas to be meaningful (with two, nothing can exceed
  // twice the pair's mean).
  double straggler_multiple = 2.0;
  double straggler_min_gap_ms = 0.0;
  // --- Failure detection & recovery (service/heartbeat_monitor.h,
  // service/fleet.h), cross-process backends only (sockets and shm —
  // anywhere an executor process can die out from under the trainer; the
  // shm segment's liveness source is its header heartbeat slots, polled by
  // a ShmHeartbeatPoller). The trainer's FleetCoordinator runs recovery
  // only: this trainer fetches each in-process replica's plan by exact
  // (iteration, replica) key, so a straggler rebalance or a joiner's steal
  // would move plans out from under it. Rebalance and elastic membership
  // belong to a standalone publisher with attached executors (see
  // ShmFaultControlLoopTest and MembershipChurnTest). ---
  // Liveness deadlines for attached executors; 0 disables the transition. A
  // replica silent past dead_after_ms, or whose connection drops uncleanly
  // and stays gone past connection_grace_ms (grace 0 = a drop is death), is
  // declared kDead: its unfetched plans are re-published to survivors and
  // the death lands in EpochResult::dead_replicas.
  double liveness_suspect_after_ms = 0.0;
  double liveness_dead_after_ms = 0.0;
  double liveness_connection_grace_ms = 0.0;
  // Fleet barrier: hold the epoch (no plan published, no iteration run)
  // until this many replicas have been seen by the liveness monitor —
  // attached executors, counted before the in-process replicas report
  // anything. 0 starts immediately; a barrier that is not met within the
  // timeout fails the epoch rather than training into an absent fleet.
  int32_t liveness_await_replicas = 0;
  double liveness_await_timeout_ms = 30'000.0;
  // kFailFast aborts the epoch (feasible = false) at the first declared
  // death; kDegradeAndContinue (default) finishes on the survivors.
  service::FailurePolicy failure_policy =
      service::FailurePolicy::kDegradeAndContinue;
  // --- Observability (src/common/trace.h, src/common/metrics.h) ---
  // Non-empty enables plan-lifecycle tracing and names the merged
  // Chrome/Perfetto trace JSON written at epoch end (executor processes
  // started with DYNAPIPE_TRACE pointing at the same path contribute
  // `<path>.<pid>.part` files, folded into the merge). Equivalent to setting
  // DYNAPIPE_TRACE in the environment.
  std::string trace_path;
};

// One attached executor connection's process-wide metrics, pulled over the
// wire (a server-initiated kStatsRequest) at epoch end. Socket backend
// only.
struct ExecutorMetrics {
  // Replicas attached on that connection (usually one).
  std::vector<int32_t> replicas;
  common::MetricsSnapshot snapshot;
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
  // Straggler stats from the HeartbeatMonitor: completion times of every
  // replica that reported this iteration (in-process replicas report their
  // simulated makespan; attached executor processes heartbeat wall clock),
  // and the replicas flagged over straggler_multiple x the median.
  int32_t heartbeat_replicas = 0;
  double replica_median_ms = 0.0;
  double replica_max_ms = 0.0;
  std::vector<int32_t> straggler_replicas;
  // Replicas declared dead by the time this iteration completed (cumulative
  // snapshot, ascending) — which iterations of the epoch ran degraded.
  std::vector<int32_t> dead_replicas;
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
  // Recovery (service/fleet.h): replicas declared dead during the epoch
  // (declaration order), how many of their pending plans were re-published
  // to survivors, and the total detect -> re-publish wall time.
  std::vector<int32_t> dead_replicas;
  int64_t replanned_iterations = 0;
  double recovery_ms = 0.0;
  // Per-connection executor metric snapshots pulled over the stats channel
  // at epoch end (empty on non-socket backends or when nothing attached).
  std::vector<ExecutorMetrics> executor_metrics;

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
