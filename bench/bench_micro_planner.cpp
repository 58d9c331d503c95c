// Google-benchmark microbenchmarks for the planner's hot paths: cost-model
// queries, DP row pricing and the recompute bound sweep, the micro-batch DP,
// adaptive scheduling, timeline simulation, and communication planning. These
// are the per-iteration CPU costs that Fig. 17 aggregates; keeping them fast
// is what lets planning overlap training.
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
#include "src/data/minibatch_sampler.h"
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

// The t5-inline shape (bench/e2e): T5-5.5B dp1/tp2/pp2 planning one sorted
// 65,536-token mini-batch, samples cut at 2048 input and 512 target tokens.
const cost::PipelineCostModel& T5InlineCostModel() {
  static const cost::PipelineCostModel cm = cost::PipelineCostModel::Profile(
      model::ModelConfig::T5_5_5B(), model::HardwareSpec{}, {1, 2, 2},
      bench::BenchProfile());
  return cm;
}

std::vector<data::Sample> T5InlineBatch() {
  const data::Dataset dataset = bench::BenchDataset(4000, 3);
  data::MiniBatchSamplerOptions opts;
  opts.global_batch_tokens = 65'536;
  opts.max_input_len = 2048;
  opts.max_target_len = 512;
  data::MiniBatchSampler sampler(dataset, opts);
  return runtime::PlanningOrder(model::ModelConfig::T5_5_5B(), sampler.Next(),
                                mb::OrderingMethod::kSortByLength);
}

// The DP's window precompute on the t5-inline shape: every row of the window
// table priced by the cost model's row hook, one grid cursor per row.
// items_per_second counts windows priced.
void BM_PriceRows(benchmark::State& state) {
  const auto& cm = T5InlineCostModel();
  const auto ordered = T5InlineBatch();
  const runtime::CostModelAdapter cost_fn(cm, model::RecomputeMode::kNone);
  const size_t n = ordered.size();
  const size_t width = std::min<size_t>(n, bench::BenchPlanner().max_microbatch_size);
  std::vector<double> times(width);
  std::vector<double> acts(width);
  int64_t windows = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      windows += static_cast<int64_t>(
          cost_fn.PriceRow(ordered, i, std::min(width, n - i), cm.ActivationBudgetMb(),
                           times.data(), acts.data()));
    }
    benchmark::DoNotOptimize(times.data());
  }
  state.SetItemsProcessed(windows);
  state.SetLabel(std::to_string(n) + " samples");
}
BENCHMARK(BM_PriceRows);

// The serial planner's recompute bound on the t5-inline shape: the sweep
// over kSelective and kFull that runs after kNone's plan. items_per_second
// counts windows swept.
void BM_RecomputeLowerBounds(benchmark::State& state) {
  const auto& cm = T5InlineCostModel();
  const auto ordered = T5InlineBatch();
  const int32_t width = bench::BenchPlanner().max_microbatch_size;
  const std::vector<model::RecomputeMode> modes = {model::RecomputeMode::kSelective,
                                                   model::RecomputeMode::kFull};
  int64_t windows_per_sweep = 0;
  for (size_t i = 0; i < ordered.size(); ++i) {
    windows_per_sweep += static_cast<int64_t>(
        std::min(ordered.size() - i, static_cast<size_t>(width)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::RecomputeLowerBoundsMs(cm, ordered, modes, width));
  }
  state.SetItemsProcessed(windows_per_sweep * state.iterations());
  state.SetLabel(std::to_string(ordered.size()) + " samples");
}
BENCHMARK(BM_RecomputeLowerBounds);

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
