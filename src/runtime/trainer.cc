#include "src/runtime/trainer.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "src/common/thread_pool.h"
#include "src/common/trace.h"
#include "src/runtime/ground_truth.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/plan_ahead_service.h"
#include "src/service/plan_cache.h"
#include "src/sim/cluster_sim.h"

namespace dynapipe::runtime {
namespace {

// Plans the Trainer's cross-iteration cache keeps (no byte cap).
constexpr size_t kPlanCacheCapacity = 256;

uint64_t HashDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return service::HashCombine(h, bits);
}

uint64_t HashString(uint64_t h, const std::string& s) {
  h = service::HashCombine(h, s.size());
  for (const char c : s) {
    h = service::HashCombine(h, static_cast<uint8_t>(c));
  }
  return h;
}

// Everything a DynaPipe plan depends on besides the mini-batch: model shape,
// hardware, parallelism, and the planner knobs that change plan values. The
// pool is deliberately excluded — pooled plans are proven bit-identical to
// serial ones (tests/planning_parallel_test.cpp), so including it would only
// split cache populations.
uint64_t PlannerConfigHash(const model::ModelConfig& config,
                           const model::HardwareSpec& hw,
                           const model::ParallelConfig& parallel,
                           const PlannerOptions& planner) {
  uint64_t h = service::HashCombine(service::kHashBasis, 0x44504c4eull);  // "DPLN"
  h = service::HashCombine(h, static_cast<uint64_t>(config.arch));
  h = HashString(h, config.name);
  h = service::HashCombine(h, static_cast<uint64_t>(config.num_layers));
  h = service::HashCombine(h, static_cast<uint64_t>(config.hidden_dim));
  h = service::HashCombine(h, static_cast<uint64_t>(config.num_heads));
  h = service::HashCombine(h, static_cast<uint64_t>(config.kv_channels));
  h = service::HashCombine(h, static_cast<uint64_t>(config.ffn_dim));
  h = service::HashCombine(h, static_cast<uint64_t>(config.vocab_size));
  h = HashDouble(h, hw.peak_tflops);
  h = HashDouble(h, hw.max_utilization);
  h = HashDouble(h, hw.util_half_tokens);
  h = HashDouble(h, hw.attention_efficiency);
  h = HashDouble(h, hw.kernel_overhead_us);
  h = HashDouble(h, hw.device_memory_mb);
  h = HashDouble(h, hw.memory_reserved_fraction);
  h = HashDouble(h, hw.intra_node_bw_gbs);
  h = HashDouble(h, hw.inter_node_bw_gbs);
  h = HashDouble(h, hw.p2p_latency_us);
  h = service::HashCombine(h, static_cast<uint64_t>(hw.gpus_per_node));
  h = service::HashCombine(h, static_cast<uint64_t>(parallel.dp));
  h = service::HashCombine(h, static_cast<uint64_t>(parallel.tp));
  h = service::HashCombine(h, static_cast<uint64_t>(parallel.pp));
  h = service::HashCombine(h, static_cast<uint64_t>(planner.ordering));
  h = service::HashCombine(h, planner.adaptive_schedule ? 1u : 0u);
  h = service::HashCombine(h, planner.reorder_microbatches ? 1u : 0u);
  h = service::HashCombine(h, static_cast<uint64_t>(planner.reorder_clusters));
  h = service::HashCombine(h, planner.dynamic_recompute ? 1u : 0u);
  h = service::HashCombine(h, static_cast<uint64_t>(planner.static_recompute));
  h = HashDouble(h, planner.tmax_interval_ms);
  h = service::HashCombine(h, static_cast<uint64_t>(planner.max_tmax_candidates));
  h = service::HashCombine(h, static_cast<uint64_t>(planner.max_microbatch_size));
  return h;
}

}  // namespace

Trainer::Trainer(const model::ModelConfig& config, const model::HardwareSpec& hw,
                 const model::ParallelConfig& parallel,
                 const cost::ProfileOptions& profile_options)
    : config_(config), hw_(hw), parallel_(parallel),
      cost_model_(cost::PipelineCostModel::Profile(config, hw, parallel,
                                                   profile_options)) {}

EpochResult Trainer::RunEpoch(const data::Dataset& dataset,
                              const PlannerOptions& planner,
                              const TrainerOptions& options) {
  // One pool serves both the service's plan-ahead tasks and the planner's
  // intra-iteration fan-outs (recompute modes, per-t_max DPs): a caller-
  // provided planner pool is reused, otherwise planning_threads creates one.
  std::optional<ThreadPool> owned_pool;
  PlannerOptions popts = planner;
  if (popts.pool == nullptr && options.planning_threads > 1) {
    owned_pool.emplace(options.planning_threads);
    popts.pool = &*owned_pool;
  }
  IterationPlanner iteration_planner(cost_model_, popts);
  return RunEpochImpl(
      dataset, options,
      [&](const std::vector<data::Sample>& minibatch) {
        return iteration_planner.PlanIteration(minibatch);
      },
      popts.pool, PlannerConfigHash(config_, hw_, parallel_, planner),
      /*allow_plan_cache=*/true);
}

EpochResult Trainer::RunEpochBaseline(const data::Dataset& dataset,
                                      const BaselineOptions& baseline,
                                      const TrainerOptions& options) {
  BaselineOptions opts = baseline;
  opts.max_input_len = options.max_input_len;
  if (options.max_target_len > 0) {
    opts.max_target_len = options.max_target_len;
  }
  std::optional<ThreadPool> owned_pool;
  ThreadPool* pool = nullptr;
  if (options.planning_threads > 1) {
    owned_pool.emplace(options.planning_threads);
    pool = &*owned_pool;
  }
  // Baseline plans repack/truncate samples, so they cannot be rebound to a new
  // mini-batch: the plan cache stays off regardless of options.plan_cache.
  return RunEpochImpl(dataset, options,
                      [&, opts](const std::vector<data::Sample>& minibatch) {
                        return PlanBaselineIteration(cost_model_, opts, minibatch);
                      },
                      pool, /*config_hash=*/0, /*allow_plan_cache=*/false);
}

EpochResult Trainer::RunEpochImpl(const data::Dataset& dataset,
                                  const TrainerOptions& options,
                                  const PlanFn& plan_fn, ThreadPool* pool,
                                  uint64_t config_hash, bool allow_plan_cache) {
  EpochResult result;
  if (!options.trace_path.empty()) {
    common::Tracer::Instance().EnableToPath(options.trace_path);
  }
  const bool is_t5 = config_.arch == model::ModelArch::kT5;
  data::MiniBatchSamplerOptions sampler_opts;
  sampler_opts.global_batch_tokens = options.global_batch_tokens;
  sampler_opts.max_input_len = options.max_input_len;
  sampler_opts.max_target_len =
      options.max_target_len > 0
          ? options.max_target_len
          : (is_t5 ? std::max(1, options.max_input_len / 4) : 0);
  sampler_opts.seed = options.sampler_seed;
  data::MiniBatchSampler sampler(dataset, sampler_opts);

  SimGroundTruth ground_truth(config_, hw_, parallel_, options.noise_stddev,
                              options.noise_seed);
  sim::ClusterSimOptions sim_opts;
  sim_opts.static_memory_mb = ground_truth.StaticMemoryMb();
  sim_opts.memory_limit_mb = hw_.usable_memory_mb();

  // Replica completion tracking: each replica reports its simulated
  // makespan. Every iteration has exactly dp replicas reporting; straggler
  // flagging waits for all of them so a fast replica is never compared
  // against a partial report set.
  service::HeartbeatMonitorOptions monitor_opts;
  monitor_opts.expected_replicas = parallel_.dp;
  service::HeartbeatMonitor heartbeat_monitor(monitor_opts);

  // Everything between the sampler and the executors is the plan-ahead
  // service's pipeline: lookahead planning on the shared pool, the
  // cross-iteration plan cache, and (serialized) publication into the
  // in-process instruction store. lookahead == 0 is the inline path.
  const int32_t lookahead =
      options.plan_lookahead >= 0
          ? options.plan_lookahead
          : (options.planning_threads > 1 ? 2 * options.planning_threads : 0);
  std::optional<ThreadPool> service_pool;
  if (lookahead > 0 && pool == nullptr) {
    service_pool.emplace(std::max(2, options.planning_threads));
    pool = &*service_pool;
  }
  service::PlanAheadOptions sopts;
  sopts.lookahead = lookahead;
  sopts.pool = pool;
  sopts.fold_target_lengths = config_.arch == model::ModelArch::kGpt;
  sopts.serialize_plans = options.serialize_plans;
  sopts.store_capacity = options.instruction_store_capacity;
  if (allow_plan_cache && options.plan_cache) {
    if (plan_cache_ == nullptr) {
      plan_cache_ = std::make_shared<service::PlanCache>(
          service::PlanCacheOptions{kPlanCacheCapacity, /*max_bytes=*/0});
    }
    sopts.plan_cache = plan_cache_;
    sopts.config_hash = config_hash;
  }

  int64_t submitted = 0;
  auto source = [&]() -> std::vector<data::Sample> {
    while (sampler.HasNext() &&
           (options.max_iterations <= 0 || submitted < options.max_iterations)) {
      std::vector<data::Sample> minibatch = sampler.Next();
      if (!minibatch.empty()) {
        ++submitted;
        return minibatch;
      }
    }
    return {};
  };
  service::PlanAheadService service(plan_fn, source, sopts);
  // Runs on every exit path (failed epochs included) so diagnostics keep the
  // cache and store counters of the iterations that did happen.
  auto capture_service_stats = [&] {
    const service::PlanAheadServiceStats sstats = service.stats();
    result.plan_cache_hits = sstats.plan_cache_hits;
    result.plan_cache_misses = sstats.plan_cache_misses;
    result.serialized_plan_bytes = sstats.published_bytes;
    // Epoch end is the merge point: fold this process's spans plus any
    // .part files into the one trace JSON this trainer owns.
    if (!options.trace_path.empty()) {
      common::Tracer::Instance().WriteMergedTrace();
    }
  };

  while (std::optional<service::ServicedPlan> serviced = service.NextPlan()) {
    const int64_t iteration = serviced->iteration;
    IterationPlan& plan = serviced->plan;
    result.planning_time_ms += plan.planning_time_ms;
    result.plan_stall_ms += serviced->stall_ms;
    if (!plan.feasible) {
      result.feasible = false;
      result.failure = "iteration " + std::to_string(iteration) +
                       " planning failed: " + plan.infeasible_reason;
      capture_service_stats();
      return result;
    }

    IterationRecord record;
    record.planning_ms = plan.planning_time_ms;
    record.predicted_ms = plan.predicted_iteration_ms;
    record.num_microbatches = plan.total_microbatches();
    record.recompute = plan.recompute;
    record.partition_ms = plan.stats.partition_ms;
    record.schedule_ms = plan.stats.schedule_ms;
    record.recompute_modes_tried = plan.stats.recompute_modes_tried;
    record.prefix_cache_hits = plan.stats.prefix_cache_hits;
    record.prefix_cache_misses = plan.stats.prefix_cache_misses;
    record.plan_cache_hit = serviced->plan_cache_hit;
    record.plan_stall_ms = serviced->stall_ms;
    for (const double peak : plan.predicted_peak_mb) {
      record.predicted_peak_mb = std::max(record.predicted_peak_mb, peak);
    }

    // The service already published each replica's plan to the instruction
    // store (in iteration order, encoded in serialized mode); execution
    // fetches them back out.
    double measured = 0.0;
    for (size_t d = 0; d < plan.replicas.size(); ++d) {
      const sim::ExecutionPlan exec =
          service.FetchExecPlan(iteration, static_cast<int32_t>(d));
      sim::ClusterSim cluster(parallel_.pp, &ground_truth, sim_opts);
      const sim::SimResult res = [&] {
        const common::TraceSpan exec_span("executed", "plan", iteration,
                                          static_cast<int32_t>(d));
        return cluster.Run(exec);
      }();
      if (res.deadlocked) {
        ++result.deadlocks;
        result.feasible = false;
        result.failure = "iteration " + std::to_string(iteration) +
                         " replica " + std::to_string(d) + " " + res.diagnostic;
        capture_service_stats();
        return result;
      }
      if (res.oom) {
        ++result.ooms;
        result.feasible = false;
        result.failure = "iteration " + std::to_string(iteration) + " replica " +
                         std::to_string(d) + " " + res.diagnostic;
        capture_service_stats();
        return result;
      }
      measured = std::max(measured, res.makespan_ms);
      for (const auto& dev : res.devices) {
        record.measured_peak_mb = std::max(record.measured_peak_mb, dev.peak_memory_mb);
      }
      // Replicas complete "now" in wall clock; their simulated makespan is
      // the completion time straggler detection should compare.
      {
        common::TraceSpan hb_span("heartbeat", "plan", iteration,
                                  static_cast<int32_t>(d));
        heartbeat_monitor.OnHeartbeat(static_cast<int32_t>(d), iteration,
                                      res.makespan_ms);
      }
    }
    measured += cost_model_.DpGradSyncMs();
    record.measured_ms = measured;
    record.heartbeat_replicas =
        heartbeat_monitor.ForIteration(iteration).replicas_reported;

    for (const auto& replica : plan.replicas) {
      for (const auto& m : replica.micro_batches) {
        result.real_tokens += m.real_tokens();
      }
    }
    result.padding.real_input_tokens += plan.padding.real_input_tokens;
    result.padding.padded_input_tokens += plan.padding.padded_input_tokens;
    result.padding.real_target_tokens += plan.padding.real_target_tokens;
    result.padding.padded_target_tokens += plan.padding.padded_target_tokens;
    result.train_time_ms += measured;
    result.records.push_back(record);
    ++result.iterations;
  }

  capture_service_stats();
  return result;
}

}  // namespace dynapipe::runtime
