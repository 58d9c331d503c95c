#include "src/runtime/planner.h"

#include <algorithm>
#include <limits>

#include "src/comm/comm_planner.h"
#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/common/timing.h"
#include "src/mb/karmarkar_karp.h"
#include "src/schedule/adaptive_scheduler.h"
#include "src/schedule/one_f_one_b.h"
#include "src/schedule/reorder.h"

namespace dynapipe::runtime {
namespace {

struct ReplicaBuild {
  bool feasible = false;
  std::string reason;
  ReplicaPlan plan;
  double makespan_ms = 0.0;
  std::vector<double> peak_mb;  // per stage, static + activation
};

// Assembles schedule + timeline + communication plan for one replica's
// micro-batches. `adaptive` false gives uniform 1F1B; `naive_comm` true gives the
// baseline send-at-production/recv-at-use plan with fused crossing pairs.
ReplicaBuild BuildReplica(const cost::PipelineCostModel& cm,
                          std::vector<mb::MicroBatch> mbs,
                          model::RecomputeMode mode, bool adaptive, bool reorder,
                          int32_t reorder_clusters, bool naive_comm) {
  ReplicaBuild out;
  const int32_t c = cm.num_stages();
  const int32_t m = static_cast<int32_t>(mbs.size());

  std::vector<double> device_limits(static_cast<size_t>(c));
  for (int32_t s = 0; s < c; ++s) {
    device_limits[static_cast<size_t>(s)] =
        cm.hw().usable_memory_mb() - cm.StaticMemoryMb(s);
    if (device_limits[static_cast<size_t>(s)] <= 0.0) {
      out.reason = "static model state exceeds device memory on stage " +
                   std::to_string(s);
      return out;
    }
  }

  out.peak_mb.resize(static_cast<size_t>(c));
  for (int32_t s = 0; s < c; ++s) {
    out.peak_mb[static_cast<size_t>(s)] = cm.StaticMemoryMb(s);
  }
  if (m == 0) {  // replica idles this iteration
    out.feasible = true;
    out.plan.exec_plan.devices.resize(static_cast<size_t>(c));
    for (int32_t s = 0; s < c; ++s) {
      out.plan.exec_plan.devices[static_cast<size_t>(s)].device = s;
    }
    return out;
  }

  std::vector<model::MicroBatchShape> shapes(static_cast<size_t>(m));
  for (int32_t k = 0; k < m; ++k) {
    shapes[static_cast<size_t>(k)] = mbs[static_cast<size_t>(k)].shape;
  }
  // The per-stage profile walks (StageFwdMs/StageBwdMs/StageActivationMb) are
  // the schedule phase's dominant cost. BuildOpCosts dedups shapes so each
  // distinct one is priced once per stage.
  schedule::OpCostsBuild built = schedule::BuildOpCosts(
      c, shapes,
      [&](int32_t s, const model::MicroBatchShape& shape, double* fwd,
          double* bwd, double* act) {
        *fwd = cm.StageFwdMs(s, shape);
        *bwd = cm.StageBwdMs(s, shape, mode);
        *act = cm.StageActivationMb(s, shape, mode);
      });
  schedule::OpCosts& costs = built.costs;
  std::vector<double>& mb_time = built.mb_time;

  auto boundary_bytes = [&](int32_t stage, int32_t k) {
    return cm.BoundaryBytes(stage, shapes[static_cast<size_t>(k)]);
  };
  schedule::ExecutorSimOptions sim_opts;
  sim_opts.comm_delay_ms = [&cm, shapes](int32_t from, int32_t to, int32_t k,
                                         bool /*backward*/) {
    const int32_t boundary = std::min(from, to);
    return cm.TransferMs(from, to,
                         cm.BoundaryBytes(boundary, shapes[static_cast<size_t>(k)]));
  };

  schedule::PipelineSchedule sched;
  if (adaptive) {
    if (reorder && m > 1) {
      schedule::ReorderOptions ro;
      ro.num_clusters = reorder_clusters;
      ro.device_limit_mb = device_limits;
      ro.sim_options = sim_opts;
      schedule::ReorderResult rr = schedule::ReorderMicroBatches(costs, mb_time, ro);
      if (!rr.feasible) {
        out.reason = "adaptive scheduling infeasible under memory limits";
        return out;
      }
      sched = std::move(rr.schedule);
    } else {
      schedule::AdaptiveScheduleOptions ao;
      ao.device_limit_mb = device_limits;
      auto maybe = schedule::MemoryAwareAdaptiveSchedule(costs, ao);
      if (!maybe.has_value()) {
        out.reason = "adaptive scheduling infeasible under memory limits";
        return out;
      }
      sched = std::move(*maybe);
    }
  } else {
    sched = schedule::OneFOneBSchedule(m, c);
    const std::vector<double> high_water =
        schedule::ScheduleMemoryHighWater(sched, costs);
    for (int32_t s = 0; s < c; ++s) {
      if (high_water[static_cast<size_t>(s)] > device_limits[static_cast<size_t>(s)]) {
        out.reason = "1F1B activation high-water exceeds memory on stage " +
                     std::to_string(s);
        return out;
      }
    }
  }

  out.plan.timeline = schedule::SimulateSchedule(sched, costs, sim_opts);
  out.makespan_ms = out.plan.timeline.makespan_ms;
  for (int32_t s = 0; s < c; ++s) {
    out.peak_mb[static_cast<size_t>(s)] +=
        out.plan.timeline.device_peak_mb[static_cast<size_t>(s)];
  }

  comm::CommPlannerInputs inputs;
  inputs.schedule = &sched;
  inputs.timeline = &out.plan.timeline;
  inputs.shapes = shapes;
  inputs.boundary_bytes = boundary_bytes;
  inputs.recompute = mode;
  out.plan.exec_plan = naive_comm ? comm::PlanCommunicationNaive(inputs)
                                  : comm::PlanCommunication(inputs);
  out.plan.schedule = std::move(sched);
  out.plan.micro_batches = std::move(mbs);
  out.feasible = true;
  return out;
}

// Decoder-only models train on one concatenated sequence per sample (prompt +
// response), so fold target tokens into the input length; otherwise the planner
// would count tokens the compute model never processes.
std::vector<data::Sample> CanonicalizeForArch(const model::ModelConfig& config,
                                              std::vector<data::Sample> samples) {
  if (config.arch != model::ModelArch::kGpt) {
    return samples;
  }
  for (auto& s : samples) {
    s.input_len += s.target_len;
    s.target_len = 0;
  }
  return samples;
}

// Splits micro-batches across replicas with Karmarkar–Karp on predicted times,
// preserving DP output order within each replica.
std::vector<std::vector<mb::MicroBatch>> BalanceReplicas(
    std::vector<mb::MicroBatch> mbs, int32_t dp) {
  std::vector<double> weights;
  weights.reserve(mbs.size());
  for (const auto& m : mbs) {
    weights.push_back(m.predicted_time_ms);
  }
  mb::BalanceResult balance = mb::KarmarkarKarp(weights, dp);
  std::vector<std::vector<mb::MicroBatch>> out(static_cast<size_t>(dp));
  for (size_t d = 0; d < balance.groups.size(); ++d) {
    std::sort(balance.groups[d].begin(), balance.groups[d].end());
    for (const int32_t idx : balance.groups[d]) {
      out[d].push_back(std::move(mbs[static_cast<size_t>(idx)]));
    }
  }
  return out;
}

}  // namespace

int32_t IterationPlan::total_microbatches() const {
  int32_t total = 0;
  for (const auto& r : replicas) {
    total += static_cast<int32_t>(r.micro_batches.size());
  }
  return total;
}

IterationPlanner::IterationPlanner(const cost::PipelineCostModel& cost_model,
                                   PlannerOptions options)
    : cm_(cost_model), options_(std::move(options)) {}

IterationPlan IterationPlanner::PlanWithRecompute(
    const std::vector<data::Sample>& ordered, model::RecomputeMode mode) const {
  IterationPlan plan;
  plan.recompute = mode;
  plan.stats.recompute_modes_tried = 1;
  const int32_t c = cm_.num_stages();
  const int32_t dp = cm_.parallel().dp;

  const double budget = cm_.ActivationBudgetMb();
  if (budget <= 0.0) {
    plan.infeasible_reason = "model static state exceeds device memory";
    return plan;
  }
  // Per-micro-batch memory cap inside the DP (§4 "Limit memory consumption"): 1F1B
  // accumulates up to c in-flight micro-batches so each gets budget/c; the adaptive
  // schedule delays injection on demand, so a single micro-batch may use the whole
  // budget (factors 1/c .. 1 in the paper).
  const double per_mb_limit =
      options_.adaptive_schedule ? budget : budget / static_cast<double>(c);

  const CostModelAdapter adapter(cm_, mode);
  mb::DpPartitionerOptions dp_opts;
  dp_opts.num_stages = c;
  dp_opts.num_replicas = dp;
  dp_opts.activation_limit_mb = per_mb_limit;
  dp_opts.max_microbatch_size = options_.max_microbatch_size;
  dp_opts.tmax_interval_ms = options_.tmax_interval_ms;
  dp_opts.max_tmax_candidates = options_.max_tmax_candidates;
  dp_opts.pool = options_.pool;
  mb::DpPartitioner partitioner(adapter, dp_opts);
  const auto partition_start = SteadyClock::now();
  mb::PartitionResult part = partitioner.Partition(ordered);
  plan.stats.partition_ms = ElapsedMs(partition_start);
  if (!part.feasible) {
    plan.infeasible_reason = "no micro-batch partition fits the memory limit";
    return plan;
  }
  plan.padding = mb::ComputePaddingStats(part.micro_batches);
  const auto schedule_start = SteadyClock::now();

  std::vector<std::vector<mb::MicroBatch>> replica_mbs =
      BalanceReplicas(std::move(part.micro_batches), dp);

  plan.predicted_peak_mb.assign(static_cast<size_t>(c), 0.0);
  for (auto& mbs : replica_mbs) {
    ReplicaBuild rb = BuildReplica(cm_, std::move(mbs), mode,
                                   options_.adaptive_schedule,
                                   options_.reorder_microbatches,
                                   options_.reorder_clusters, /*naive_comm=*/false);
    if (!rb.feasible) {
      plan.infeasible_reason = rb.reason;
      plan.replicas.clear();
      return plan;
    }
    plan.predicted_iteration_ms = std::max(plan.predicted_iteration_ms, rb.makespan_ms);
    for (int32_t s = 0; s < c; ++s) {
      plan.predicted_peak_mb[static_cast<size_t>(s)] =
          std::max(plan.predicted_peak_mb[static_cast<size_t>(s)],
                   rb.peak_mb[static_cast<size_t>(s)]);
    }
    plan.replicas.push_back(std::move(rb.plan));
  }
  plan.stats.schedule_ms = ElapsedMs(schedule_start);
  plan.feasible = true;
  return plan;
}

IterationPlan IterationPlanner::PlanIteration(
    const std::vector<data::Sample>& minibatch) const {
  const auto start = SteadyClock::now();
  const std::vector<data::Sample> ordered = mb::OrderSamples(
      CanonicalizeForArch(cm_.config(), minibatch), options_.ordering);
  const double order_ms = ElapsedMs(start);

  std::vector<model::RecomputeMode> modes;
  if (options_.dynamic_recompute) {
    modes = {model::RecomputeMode::kNone, model::RecomputeMode::kSelective,
             model::RecomputeMode::kFull};
  } else {
    modes = {options_.static_recompute};
  }

  // Recompute modes are independent end-to-end plans over the same ordered
  // samples, so they fan out over the pool into per-mode slots. (Each mode's
  // t_max sweep nests another fan-out on the same pool — safe, see
  // ParallelFor.) The serial merge below prefers strictly faster plans in mode
  // order, which is exactly the seed's serial-loop tie-breaking: kNone beats an
  // equally fast kSelective beats an equally fast kFull.
  std::vector<IterationPlan> outcomes(modes.size());
  ParallelFor(options_.pool, modes.size(), [&](size_t i) {
    outcomes[i] = PlanWithRecompute(ordered, modes[i]);
  });

  IterationPlan best;
  best.predicted_iteration_ms = std::numeric_limits<double>::infinity();
  PlanningStats stats;
  stats.order_ms = order_ms;
  for (auto& candidate : outcomes) {
    stats.partition_ms += candidate.stats.partition_ms;
    stats.schedule_ms += candidate.stats.schedule_ms;
    stats.recompute_modes_tried += candidate.stats.recompute_modes_tried;
    if (candidate.feasible &&
        candidate.predicted_iteration_ms < best.predicted_iteration_ms) {
      best = std::move(candidate);
    } else if (!candidate.feasible && !best.feasible &&
               best.infeasible_reason.empty()) {
      best.infeasible_reason = candidate.infeasible_reason;
    }
  }
  if (!best.feasible) {
    best.predicted_iteration_ms = 0.0;
  }
  best.stats = stats;
  best.planning_time_ms = ElapsedMs(start);
  return best;
}

IterationPlan PlanBaselineIteration(const cost::PipelineCostModel& cost_model,
                                    const BaselineOptions& options,
                                    const std::vector<data::Sample>& raw_minibatch) {
  const auto start = SteadyClock::now();
  const std::vector<data::Sample> minibatch =
      CanonicalizeForArch(cost_model.config(), raw_minibatch);
  IterationPlan plan;
  plan.recompute = options.recompute;
  const int32_t c = cost_model.num_stages();
  const int32_t dp = cost_model.parallel().dp;
  const bool is_t5 = cost_model.config().arch == model::ModelArch::kT5;
  const int32_t max_target =
      options.max_target_len > 0
          ? options.max_target_len
          : (is_t5 ? std::max(1, options.max_input_len / 4) : 0);

  std::vector<mb::MicroBatch> all_mbs;
  switch (options.batching) {
    case BaselineBatching::kPacking: {
      baselines::PackingOptions po;
      po.max_input_len = options.max_input_len;
      po.max_target_len = max_target;
      all_mbs = baselines::PackedMicroBatches(baselines::PackSamples(minibatch, po),
                                              options.microbatch_size,
                                              options.max_input_len,
                                              is_t5 ? max_target : 0);
      break;
    }
    case BaselineBatching::kTokenBased:
    case BaselineBatching::kFixedSize: {
      std::vector<data::Sample> truncated;
      truncated.reserve(minibatch.size());
      for (const auto& s : minibatch) {
        truncated.push_back(data::Truncate(s, options.max_input_len, max_target));
      }
      std::vector<data::Sample> ordered =
          mb::OrderSamples(std::move(truncated), options.ordering);
      all_mbs = options.batching == BaselineBatching::kTokenBased
                    ? baselines::TokenBasedMicroBatches(ordered,
                                                        options.tokens_per_microbatch)
                    : baselines::FixedSizeMicroBatches(ordered,
                                                       options.microbatch_size);
      break;
    }
    case BaselineBatching::kNaivePadding: {
      std::vector<data::Sample> truncated;
      truncated.reserve(minibatch.size());
      for (const auto& s : minibatch) {
        truncated.push_back(data::Truncate(s, options.max_input_len, max_target));
      }
      all_mbs = baselines::NaivePaddingMicroBatches(truncated, options.microbatch_size);
      break;
    }
  }
  plan.padding = mb::ComputePaddingStats(all_mbs);

  // MLM+DS splits the global batch evenly: round-robin micro-batches to replicas.
  std::vector<std::vector<mb::MicroBatch>> replica_mbs(static_cast<size_t>(dp));
  for (size_t k = 0; k < all_mbs.size(); ++k) {
    replica_mbs[k % static_cast<size_t>(dp)].push_back(std::move(all_mbs[k]));
  }

  plan.predicted_peak_mb.assign(static_cast<size_t>(c), 0.0);
  for (auto& mbs : replica_mbs) {
    ReplicaBuild rb =
        BuildReplica(cost_model, std::move(mbs), options.recompute,
                     /*adaptive=*/false, /*reorder=*/false, /*reorder_clusters=*/1,
                     /*naive_comm=*/true);
    if (!rb.feasible) {
      plan.infeasible_reason = rb.reason;
      plan.replicas.clear();
      plan.planning_time_ms = ElapsedMs(start);
      return plan;
    }
    plan.predicted_iteration_ms = std::max(plan.predicted_iteration_ms, rb.makespan_ms);
    for (int32_t s = 0; s < c; ++s) {
      plan.predicted_peak_mb[static_cast<size_t>(s)] =
          std::max(plan.predicted_peak_mb[static_cast<size_t>(s)],
                   rb.peak_mb[static_cast<size_t>(s)]);
    }
    plan.replicas.push_back(std::move(rb.plan));
  }
  plan.feasible = true;
  plan.planning_time_ms = ElapsedMs(start);
  return plan;
}

}  // namespace dynapipe::runtime
