// Google-benchmark microbenchmarks for the planner's hot paths: cost-model
// queries, the micro-batch DP, adaptive scheduling, timeline simulation, and
// communication planning. These are the per-iteration CPU costs that Fig. 17
// aggregates; keeping them fast is what lets planning overlap training.
//
// The headline pair (bench/README.md "Planning-time methodology"):
//   BM_DpPartition         — serial sweep
//   BM_DpPartitionPool/T   — the same partition with a T-thread window
//                            precompute and t_max fan-out
// Their ratio at the same token count is the pool's planning-time speedup;
// outputs are bit-identical (tests/planning_parallel_test.cpp holds that line).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/comm/comm_planner.h"
#include "src/common/thread_pool.h"
#include "src/mb/dp_partitioner.h"
#include "src/mb/karmarkar_karp.h"
#include "src/mb/ordering.h"
#include "src/schedule/adaptive_scheduler.h"
#include "src/schedule/executor_simulator.h"

namespace {

using namespace dynapipe;

const cost::PipelineCostModel& SharedCostModel() {
  static const cost::PipelineCostModel cm = cost::PipelineCostModel::Profile(
      model::ModelConfig::Gpt3_35B(), model::HardwareSpec{}, {1, 1, 4},
      bench::BenchProfile());
  return cm;
}

std::vector<data::Sample> OrderedMiniBatch(int64_t tokens) {
  const data::Dataset dataset = bench::BenchDataset(4000, 3);
  std::vector<data::Sample> minibatch;
  int64_t total = 0;
  for (const auto& s : dataset.samples()) {
    const data::Sample t = data::Truncate(s, 2048, 0);
    minibatch.push_back(t);
    total += t.total_tokens();
    if (total > tokens) {
      break;
    }
  }
  return mb::OrderSamples(minibatch, mb::OrderingMethod::kSortByLength);
}

void BM_CostModelQuery(benchmark::State& state) {
  const auto& cm = SharedCostModel();
  model::MicroBatchShape shape{4, 777, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cm.MicroBatchTimeMs(shape, model::RecomputeMode::kNone));
    shape.input_len = shape.input_len % 4000 + 13;
  }
}
BENCHMARK(BM_CostModelQuery);

// The DP's feasible-window probe: activation and time of one shape over all
// stages from a single grid lookup, on the same query mix as
// BM_CostModelQuery.
void BM_WindowCosts(benchmark::State& state) {
  const auto& cm = SharedCostModel();
  const double limit = cm.ActivationBudgetMb();
  model::MicroBatchShape shape{4, 777, 0};
  double time_ms = 0.0;
  double act_mb = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cm.WindowCosts(shape, model::RecomputeMode::kNone,
                                            limit, &time_ms, &act_mb));
    benchmark::DoNotOptimize(time_ms);
    shape.input_len = shape.input_len % 4000 + 13;
  }
}
BENCHMARK(BM_WindowCosts);

mb::DpPartitionerOptions PartitionBenchOptions() {
  mb::DpPartitionerOptions opts;
  opts.num_stages = 4;
  opts.activation_limit_mb = SharedCostModel().ActivationBudgetMb();
  opts.tmax_interval_ms = 0.2;
  opts.max_tmax_candidates = 96;
  opts.max_microbatch_size = 128;
  return opts;
}

// Serial path: no pool.
void BM_DpPartition(benchmark::State& state) {
  const auto ordered = OrderedMiniBatch(state.range(0));
  const runtime::CostModelAdapter cost_fn(SharedCostModel(),
                                          model::RecomputeMode::kNone);
  mb::DpPartitioner partitioner(cost_fn, PartitionBenchOptions());
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner.Partition(ordered));
  }
  state.SetLabel(std::to_string(ordered.size()) + " samples");
}
BENCHMARK(BM_DpPartition)->Arg(16'384)->Arg(65'536);

// Pooled path: window precompute and per-t_max DPs fanned over a pool. Second
// arg is the pool size; compare against BM_DpPartition at the same token
// count.
void BM_DpPartitionPool(benchmark::State& state) {
  const auto ordered = OrderedMiniBatch(state.range(0));
  const int32_t threads = static_cast<int32_t>(state.range(1));
  const runtime::CostModelAdapter cost_fn(SharedCostModel(),
                                          model::RecomputeMode::kNone);
  ThreadPool pool(threads);
  mb::DpPartitionerOptions opts = PartitionBenchOptions();
  opts.pool = &pool;
  mb::DpPartitioner partitioner(cost_fn, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner.Partition(ordered));
  }
  state.SetLabel(std::to_string(ordered.size()) + " samples, " +
                 std::to_string(threads) + " threads");
}
BENCHMARK(BM_DpPartitionPool)
    ->Args({16'384, 1})
    ->Args({16'384, 2})
    ->Args({16'384, 4})
    ->Args({16'384, 8})
    ->Args({65'536, 4});

void BM_SampleOrderingTsp(benchmark::State& state) {
  const data::Dataset dataset = bench::BenchDataset(4000, 5);
  std::vector<data::Sample> minibatch(dataset.samples().begin(),
                                      dataset.samples().begin() + state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mb::OrderSamples(minibatch, mb::OrderingMethod::kTsp));
  }
}
BENCHMARK(BM_SampleOrderingTsp)->Arg(64)->Arg(256);

void BM_KarmarkarKarp(benchmark::State& state) {
  Rng rng(9);
  std::vector<double> weights;
  for (int i = 0; i < state.range(0); ++i) {
    weights.push_back(rng.NextDouble(1.0, 100.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mb::KarmarkarKarp(weights, 4));
  }
}
BENCHMARK(BM_KarmarkarKarp)->Arg(32)->Arg(256);

void BM_AdaptiveSchedule(benchmark::State& state) {
  const auto costs = schedule::OpCosts::Uniform(
      4, static_cast<int32_t>(state.range(0)), 1.0, 2.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule::MemoryAwareAdaptiveSchedule(costs));
  }
}
BENCHMARK(BM_AdaptiveSchedule)->Arg(16)->Arg(64);

void BM_TimelineSimulation(benchmark::State& state) {
  const int32_t m = static_cast<int32_t>(state.range(0));
  const auto costs = schedule::OpCosts::Uniform(4, m, 1.0, 2.0, 1.0);
  const auto sched = *schedule::MemoryAwareAdaptiveSchedule(costs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule::SimulateSchedule(sched, costs));
  }
}
BENCHMARK(BM_TimelineSimulation)->Arg(16)->Arg(64);

void BM_CommPlanning(benchmark::State& state) {
  const int32_t m = static_cast<int32_t>(state.range(0));
  const auto costs = schedule::OpCosts::Uniform(4, m, 1.0, 2.0, 1.0);
  const auto sched = *schedule::MemoryAwareAdaptiveSchedule(costs);
  const auto tl = schedule::SimulateSchedule(sched, costs);
  std::vector<model::MicroBatchShape> shapes(static_cast<size_t>(m),
                                             model::MicroBatchShape{2, 512, 0});
  comm::CommPlannerInputs inputs;
  inputs.schedule = &sched;
  inputs.timeline = &tl;
  inputs.shapes = shapes;
  inputs.boundary_bytes = [](int32_t, int32_t) { return int64_t{1'000'000}; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(comm::PlanCommunication(inputs));
  }
}
BENCHMARK(BM_CommPlanning)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
