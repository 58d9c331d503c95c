#include "src/runtime/trainer.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include <unistd.h>

#include <atomic>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/common/trace.h"
#include "src/runtime/ground_truth.h"
#include "src/service/fleet.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/plan_ahead_service.h"
#include "src/service/plan_cache.h"
#include "src/sim/cluster_sim.h"
#include "src/transport/mux.h"
#include "src/transport/shm_store.h"
#include "src/transport/store_server.h"
#include "src/transport/transport.h"

namespace dynapipe::runtime {
namespace {

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

// Unique per epoch so concurrent trainers (grid search) never collide on a
// socket path or shm segment name.
uint64_t NextStoreId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1);
}

std::string DeriveSocketPath() {
  return "/tmp/dynapipe-store-" + std::to_string(::getpid()) + "-" +
         std::to_string(NextStoreId()) + ".sock";
}

std::string DeriveShmName() {
  return "/dynapipe-store-" + std::to_string(::getpid()) + "-" +
         std::to_string(NextStoreId());
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

  // Replica completion tracking: the trainer reports each in-process
  // replica's simulated makespan, and — on the socket backend — attached
  // executor processes heartbeat their wall clock through the store server
  // into the same monitor. Declared before the server below so heartbeats
  // arriving during teardown still have a live sink.
  service::HeartbeatMonitorOptions monitor_opts;
  monitor_opts.straggler_multiple = options.straggler_multiple;
  monitor_opts.min_straggler_gap_ms = options.straggler_min_gap_ms;
  monitor_opts.suspect_after_ms = options.liveness_suspect_after_ms;
  monitor_opts.dead_after_ms = options.liveness_dead_after_ms;
  monitor_opts.connection_grace_ms = options.liveness_connection_grace_ms;
  // Every iteration has exactly dp in-process replicas reporting; straggler
  // flagging waits for all of them so a fast replica is never compared
  // against a partial report set (an absent replica used to make the rest
  // look fast — or slow — depending on who was missing).
  monitor_opts.expected_replicas = parallel_.dp;
  service::HeartbeatMonitor heartbeat_monitor(monitor_opts);

  // Everything between the sampler and the executors is the plan-ahead
  // service's pipeline: lookahead planning on the shared pool, the
  // cross-iteration plan cache, and (serialized) publication into the
  // instruction store. lookahead == 0 is the inline path.
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
  // Socket backend: host the server side of the wire (store + listener) and
  // hand the service a mux client on one persistent connection. Declared before
  // `service` below so the server outlives it — the service's shutdown still
  // round-trips through the socket. The publisher's deferral logic needs
  // store_capacity to mirror the server store's bound, which it does by
  // construction here. The shared-memory backend needs no server at all: the
  // segment is the store, and an executor process could attach to it by name.
  std::optional<InstructionStore> server_store;
  std::optional<transport::UnixSocketTransport> socket_transport;
  std::optional<transport::InstructionStoreServer> store_server;
  // Kept alongside sopts.store on the shm path: the coordinator and the
  // heartbeat poller need the concrete segment handle, not the interface.
  std::shared_ptr<transport::ShmInstructionStore> shm_store;
  // Declared after the monitor and store it points at, so it unregisters
  // from the monitor (dtor) before either dies.
  std::optional<service::FleetCoordinator> fleet;
  // Last, so it stops feeding the monitor before any of the above dies.
  std::optional<transport::ShmHeartbeatPoller> shm_poller;
  // React to declared deaths: move the dead replica's unfetched plans to
  // survivors and record the recovery. The coordinator itself always
  // degrades — fail-fast's store shutdown is for a publisher parked in Push
  // backpressure, and would race this trainer's own fetches (it consumes its
  // replicas' plans in-process). options.failure_policy is applied by the
  // epoch loop below instead. In-process replicas cannot die (no wire), so
  // reposts are expected only from attached external replicas — which
  // publish nothing here; the spare base still clears every iteration this
  // epoch could publish.
  auto wire_fleet = [&](runtime::InstructionStoreInterface* store) {
    service::FleetOptions fleet_opts;
    for (int32_t d = 0; d < parallel_.dp; ++d) {
      fleet_opts.replicas.push_back(d);
    }
    fleet_opts.spare_iteration_base = options.max_iterations > 0
                                          ? options.max_iterations
                                          : (int64_t{1} << 32);
    fleet.emplace(store, &heartbeat_monitor, std::move(fleet_opts));
  };
  // Fleet barrier: hold the epoch (nothing published yet) until enough
  // executors have attached. In-process replicas report nothing before
  // iteration 0, so every replica the monitor knows at this point came over
  // the wire or through the segment.
  auto await_fleet = [&] {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double, std::milli>(
                              options.liveness_await_timeout_ms);
    while (static_cast<int32_t>(heartbeat_monitor.KnownReplicas().size()) <
           options.liveness_await_replicas) {
      if (std::chrono::steady_clock::now() >= deadline) {
        result.feasible = false;
        result.failure = "timed out waiting for " +
                         std::to_string(options.liveness_await_replicas) +
                         " replicas to attach";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  if (options.plan_store_backend ==
      TrainerOptions::PlanStoreBackend::kUnixSocketMux) {
    server_store.emplace(InstructionStoreOptions{
        /*serialized=*/true, options.instruction_store_capacity});
    socket_transport.emplace(options.plan_store_socket_path.empty()
                                 ? DeriveSocketPath()
                                 : options.plan_store_socket_path);
    // kHeartbeat frames from any attached reporter route through the server
    // store's sink into the same monitor the in-process replicas feed.
    server_store->set_heartbeat_sink(&heartbeat_monitor);
    // Subscribe the coordinator BEFORE the server starts serving: the socket
    // is already bound (transport ctor), so an executor can attach and die in
    // the window between the first served frame and a later subscription —
    // that death event would fire into a null callback and be lost.
    wire_fleet(&*server_store);
    store_server.emplace(&*socket_transport, &*server_store);
    // The server is accepting, so executors can attach now.
    if (!await_fleet()) {
      return result;
    }
    sopts.store =
        transport::MuxInstructionStore::OverUnixSocket(socket_transport->path());
  } else if (options.plan_store_backend ==
             TrainerOptions::PlanStoreBackend::kSharedMemory) {
    transport::ShmStoreOptions shm_opts;
    shm_opts.capacity = options.instruction_store_capacity;
    shm_store = transport::ShmInstructionStore::Create(
        options.plan_store_shm_name.empty() ? DeriveShmName()
                                            : options.plan_store_shm_name,
        shm_opts);
    sopts.store = shm_store;
    // The segment is the store, so recovery acts on it directly — no server
    // in between. Liveness arrives through the segment too: attached
    // executors stamp their heartbeat slot in shared memory, and the poller
    // replays those beats into this monitor as if they came over a wire.
    wire_fleet(shm_store.get());
    shm_poller.emplace(shm_store, &heartbeat_monitor);
    if (!await_fleet()) {
      return result;
    }
  }
  if (allow_plan_cache && options.plan_cache) {
    if (plan_cache_ == nullptr) {
      plan_cache_ = std::make_shared<service::PlanCache>(service::PlanCacheOptions{
          options.plan_cache_capacity, options.plan_cache_max_bytes});
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
  // cache and wire counters of the iterations that did happen.
  auto capture_service_stats = [&] {
    const service::PlanAheadServiceStats sstats = service.stats();
    result.plan_cache_hits = sstats.plan_cache_hits;
    result.plan_cache_misses = sstats.plan_cache_misses;
    result.serialized_plan_bytes = sstats.published_bytes;
    if (fleet.has_value()) {
      const service::FleetReport report = fleet->report();
      result.dead_replicas = report.dead_replicas;
      result.replanned_iterations = report.replanned_iterations;
      result.recovery_ms = report.recovery_ms;
    }
    if (store_server.has_value()) {
      // Pull each stats-capable attached executor's process-wide snapshot
      // over its own connection. Bounded: an executor that died mid-epoch
      // just contributes nothing.
      for (transport::RemoteReplicaStats& stats :
           store_server->CollectRemoteStats(/*timeout_ms=*/200)) {
        ExecutorMetrics metrics;
        metrics.replicas = std::move(stats.replicas);
        metrics.snapshot = std::move(stats.snapshot);
        result.executor_metrics.push_back(std::move(metrics));
      }
    }
    // Epoch end is the merge point: fold this process's spans plus any
    // executor .part files into the one trace JSON this trainer owns.
    if (!options.trace_path.empty()) {
      common::Tracer::Instance().WriteMergedTrace();
    }
  };

  while (std::optional<service::ServicedPlan> serviced = service.NextPlan()) {
    // Fail-fast: the first declared death aborts the epoch. Checked at the
    // loop top (not inside the recovery callback) so the abort is a clean
    // infeasible result, never a torn iteration. Read through the
    // coordinator's report, not the monitor: the monitor's state flips
    // before the event callback lands, and the report only shows a death
    // once the coordinator has fully processed it.
    if (fleet.has_value() &&
        options.failure_policy == service::FailurePolicy::kFailFast) {
      const std::vector<int32_t> dead = fleet->report().dead_replicas;
      if (!dead.empty()) {
        result.feasible = false;
        result.failure = "replica " + std::to_string(dead.front()) +
                         " declared dead (fail-fast policy)";
        capture_service_stats();
        return result;
      }
    }
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
      std::optional<common::TraceSpan> exec_span;
      exec_span.emplace("executed", "plan", iteration, static_cast<int32_t>(d));
      const sim::SimResult res = cluster.Run(exec);
      exec_span.reset();
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
      // In-process replicas complete "now" in wall clock; their simulated
      // makespan is the completion time straggler detection should compare.
      {
        common::TraceSpan hb_span("heartbeat", "plan", iteration,
                                  static_cast<int32_t>(d));
        heartbeat_monitor.OnHeartbeat(static_cast<int32_t>(d), iteration,
                                      res.makespan_ms);
      }
    }
    measured += cost_model_.DpGradSyncMs();
    record.measured_ms = measured;
    const service::IterationHeartbeatStats hb_stats =
        heartbeat_monitor.ForIteration(iteration);
    record.heartbeat_replicas = hb_stats.replicas_reported;
    record.replica_median_ms = hb_stats.median_wall_ms;
    record.replica_max_ms = hb_stats.max_wall_ms;
    record.straggler_replicas = hb_stats.stragglers;
    if (fleet.has_value()) {
      record.dead_replicas = heartbeat_monitor.DeadReplicas();
    }
    result.straggler_flags +=
        static_cast<int64_t>(record.straggler_replicas.size());

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
