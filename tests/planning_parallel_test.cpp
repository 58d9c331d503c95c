// Tests for the parallel planning subsystem: ParallelFor (including nested
// fan-outs), parallel-vs-serial determinism of the DP partitioner and the full
// planner, golden plan digests that pin planner output bit for bit, row
// pricing (the DP rows and the recompute bound sweep) against per-window
// oracles, the t_max sweep's early stop against a full sweep, and
// ThreadPool-backed grid search equivalence.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/data/flan_generator.h"
#include "src/data/minibatch_sampler.h"
#include "src/mb/dp_partitioner.h"
#include "src/runtime/grid_search.h"
#include "src/runtime/planner.h"
#include "src/runtime/trainer.h"
#include "src/service/plan_serde.h"

namespace dynapipe {
namespace {

// ---------- ParallelFor ----------

TEST(ParallelForTest, CoversAllIndicesOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(100);
  ParallelFor(&pool, counts.size(), [&](size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(ParallelForTest, NullPoolRunsSerially) {
  int sum = 0;
  ParallelFor(nullptr, 10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelForTest, AcceptsLvalueCallable) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  auto body = [&](size_t i) { sum.fetch_add(static_cast<int>(i)); };
  ParallelFor(&pool, 10, body);  // Fn deduces to L&; must still compile
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelForTest, NestedFanOutsComplete) {
  // A fan-out whose tasks fan out again onto the same pool must not deadlock
  // even when the pool is narrower than the nesting (help-draining waiters).
  ThreadPool pool(2);
  std::atomic<int> total{0};
  ParallelFor(&pool, 4, [&](size_t) {
    ParallelFor(&pool, 4, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

// ---------- Shared fixtures ----------

cost::ProfileOptions SmallProfile() {
  cost::ProfileOptions opts;
  opts.max_microbatch_size = 32;
  opts.max_seq_len = 4096;
  return opts;
}

runtime::PlannerOptions FastPlanner() {
  runtime::PlannerOptions opts;
  opts.max_tmax_candidates = 48;
  opts.tmax_interval_ms = 0.5;
  opts.max_microbatch_size = 32;
  opts.reorder_clusters = 2;
  opts.dynamic_recompute = true;
  return opts;
}

// ---------- DpPartitioner parallel determinism ----------

// Synthetic monotone cost oracle (cheap, deterministic).
class SyntheticCost : public mb::MicroBatchCostFn {
 public:
  double TimeMs(const model::MicroBatchShape& shape) const override {
    return 0.3 + 0.002 * static_cast<double>(shape.padded_tokens());
  }
  double ActivationMb(const model::MicroBatchShape& shape) const override {
    return 0.05 * static_cast<double>(shape.padded_tokens());
  }
};

std::vector<data::Sample> RandomOrderedSamples(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<data::Sample> samples;
  for (int i = 0; i < n; ++i) {
    data::Sample s;
    s.id = static_cast<uint64_t>(i);
    s.input_len = static_cast<int32_t>(rng.NextInt(10, 300));
    s.target_len = static_cast<int32_t>(rng.NextInt(0, 60));
    samples.push_back(s);
  }
  return mb::OrderSamples(samples, mb::OrderingMethod::kSortByLength);
}

TEST(DpPartitionerParallelTest, PoolOutputBitIdenticalToSerial) {
  const auto ordered = RandomOrderedSamples(200, 11);
  SyntheticCost cost;
  mb::DpPartitionerOptions opts;
  opts.num_stages = 4;
  opts.num_replicas = 2;
  opts.activation_limit_mb = 40.0;
  opts.max_microbatch_size = 16;
  opts.tmax_interval_ms = 0.05;
  opts.max_tmax_candidates = 64;

  mb::DpPartitioner serial(cost, opts);
  const mb::PartitionResult base = serial.Partition(ordered);
  ASSERT_TRUE(base.feasible);
  ASSERT_GT(base.micro_batches.size(), 1u);

  for (const int32_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    mb::DpPartitionerOptions popts = opts;
    popts.pool = &pool;
    mb::DpPartitioner parallel(cost, popts);
    const mb::PartitionResult got = parallel.Partition(ordered);
    ASSERT_TRUE(got.feasible);
    // Bit-identical: same widths, same realized times, same objective.
    ASSERT_EQ(got.micro_batches.size(), base.micro_batches.size());
    for (size_t k = 0; k < base.micro_batches.size(); ++k) {
      EXPECT_EQ(got.micro_batches[k].samples.size(),
                base.micro_batches[k].samples.size());
      EXPECT_EQ(got.micro_batches[k].predicted_time_ms,
                base.micro_batches[k].predicted_time_ms);
    }
    EXPECT_EQ(got.objective_ms, base.objective_ms);
    EXPECT_EQ(got.max_time_ms, base.max_time_ms);
    EXPECT_EQ(got.total_time_ms, base.total_time_ms);
    EXPECT_EQ(got.candidates_tried, base.candidates_tried);
  }
}

TEST(DpPartitionerParallelTest, InLambdaCutoffsStillFindBruteForceOptimum) {
  // The t_max cutoff per (start, candidate) is now derived inside the
  // parallel candidate lambda (binary search on the sorted window times)
  // instead of a serial pre-walked table. upper_bound returns exactly the
  // count the old merge-walk produced, so the DP must still land on the
  // brute-force-optimal objective — serial and pooled alike.
  for (const uint64_t seed : {3u, 19u, 42u}) {
    const auto ordered = RandomOrderedSamples(12, seed);
    SyntheticCost cost;
    mb::DpPartitionerOptions opts;
    opts.num_stages = 3;
    opts.num_replicas = 1;
    opts.activation_limit_mb = 60.0;
    opts.max_microbatch_size = 6;
    opts.tmax_interval_ms = 0.001;  // fine quantization: near-exact candidates
    opts.max_tmax_candidates = 256;
    const mb::PartitionResult brute =
        mb::BruteForcePartition(cost, opts, ordered);
    ASSERT_TRUE(brute.feasible);

    mb::DpPartitioner serial(cost, opts);
    const mb::PartitionResult dp = serial.Partition(ordered);
    ASSERT_TRUE(dp.feasible);
    EXPECT_NEAR(dp.objective_ms, brute.objective_ms, 1e-2) << "seed " << seed;

    ThreadPool pool(4);
    mb::DpPartitionerOptions popts = opts;
    popts.pool = &pool;
    mb::DpPartitioner parallel(cost, popts);
    const mb::PartitionResult pooled = parallel.Partition(ordered);
    ASSERT_TRUE(pooled.feasible);
    // Pooled is bit-identical to serial, not merely near the optimum.
    EXPECT_EQ(pooled.objective_ms, dp.objective_ms) << "seed " << seed;
    EXPECT_EQ(pooled.max_time_ms, dp.max_time_ms) << "seed " << seed;
  }
}

TEST(DpPartitionerParallelTest, SubsampledCandidatesKeepExtremesFeasible) {
  // With the candidate cap at its minimum the subsample must still include the
  // largest quantized window time, without which no candidate is feasible.
  const auto ordered = RandomOrderedSamples(120, 7);
  SyntheticCost cost;
  mb::DpPartitionerOptions opts;
  opts.num_stages = 2;
  opts.max_microbatch_size = 16;
  opts.tmax_interval_ms = 0.01;  // many distinct quantized times
  opts.max_tmax_candidates = 2;
  mb::DpPartitioner partitioner(cost, opts);
  const mb::PartitionResult result = partitioner.Partition(ordered);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.candidates_tried, 2);
}

// ---------- Planner determinism and stats ----------

// The planner and its DP oracle keep the cost model by reference, so neither
// may be built from a temporary.
static_assert(!std::is_constructible_v<runtime::IterationPlanner,
                                       cost::PipelineCostModel&&,
                                       runtime::PlannerOptions>);
static_assert(!std::is_constructible_v<runtime::CostModelAdapter,
                                       cost::PipelineCostModel&&,
                                       model::RecomputeMode>);

class PlannerParallelTest : public ::testing::Test {
 protected:
  PlannerParallelTest()
      : cm_(cost::PipelineCostModel::Profile(model::ModelConfig::Gpt3_35B(),
                                             model::HardwareSpec{}, {1, 1, 4},
                                             SmallProfile())) {}

  static std::vector<data::Sample> MiniBatch(int n, uint64_t seed) {
    data::FlanGeneratorOptions gen;
    gen.num_samples = n;
    gen.seed = seed;
    gen.length_cap = 1024;
    return data::GenerateFlanLikeDataset(gen).samples();
  }

  static void ExpectPlansBitIdentical(const runtime::IterationPlan& a,
                                      const runtime::IterationPlan& b) {
    ASSERT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.recompute, b.recompute);
    EXPECT_EQ(a.predicted_iteration_ms, b.predicted_iteration_ms);
    ASSERT_EQ(a.replicas.size(), b.replicas.size());
    for (size_t d = 0; d < a.replicas.size(); ++d) {
      ASSERT_EQ(a.replicas[d].micro_batches.size(),
                b.replicas[d].micro_batches.size());
      for (size_t k = 0; k < a.replicas[d].micro_batches.size(); ++k) {
        EXPECT_EQ(a.replicas[d].micro_batches[k].samples.size(),
                  b.replicas[d].micro_batches[k].samples.size());
        EXPECT_EQ(a.replicas[d].micro_batches[k].predicted_time_ms,
                  b.replicas[d].micro_batches[k].predicted_time_ms);
      }
    }
  }

  cost::PipelineCostModel cm_;
};

TEST_F(PlannerParallelTest, PooledPlanningBitIdenticalToSerial) {
  const auto minibatch = MiniBatch(60, 22);
  const runtime::IterationPlanner serial(cm_, FastPlanner());
  const runtime::IterationPlan base = serial.PlanIteration(minibatch);
  ASSERT_TRUE(base.feasible);
  for (const int32_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    runtime::PlannerOptions opts = FastPlanner();
    opts.pool = &pool;
    const runtime::IterationPlanner parallel(cm_, opts);
    const runtime::IterationPlan got = parallel.PlanIteration(minibatch);
    ExpectPlansBitIdentical(base, got);
  }
}

// ---------- Golden plan digest ----------

// Pins the planner's output for bench-shaped mini-batches to constants: a
// change that moves a micro-batch boundary or a predicted value by one bit
// fails here, serially and on a pool alike. Update the constants only for a
// change that is meant to alter plans. They hold for x86-64 builds, where the
// default flags emit no fused multiply-add; a target that contracts a + t*b
// into one FMA rounds differently and needs its own constants.
uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

uint64_t HashDouble(double v, uint64_t h) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return Fnv1a(&bits, sizeof(bits), h);
}

// The knobs the benches use (bench::BenchProfile, bench::BenchPlanner).
cost::ProfileOptions BenchProfile() {
  cost::ProfileOptions profile;
  profile.max_microbatch_size = 128;
  profile.max_seq_len = 16'384;
  return profile;
}

runtime::PlannerOptions BenchPlanner() {
  runtime::PlannerOptions popts;
  popts.max_tmax_candidates = 96;
  popts.tmax_interval_ms = 0.2;
  popts.max_microbatch_size = 128;
  popts.dynamic_recompute = true;
  return popts;
}

struct BenchBatchPlans {
  uint64_t digest = 0;
  std::vector<int32_t> modes_tried;  // PlanningStats::recompute_modes_tried
};

// Plans eight seeded 64k-token mini-batches with the benches' knobs and
// digests the plans.
BenchBatchPlans PlanBenchBatches(const model::ModelConfig& config,
                                 const model::ParallelConfig& parallel,
                                 ThreadPool* pool) {
  const cost::PipelineCostModel cm = cost::PipelineCostModel::Profile(
      config, model::HardwareSpec{}, parallel, BenchProfile());
  runtime::PlannerOptions popts = BenchPlanner();
  popts.pool = pool;
  const runtime::IterationPlanner planner(cm, popts);

  data::FlanGeneratorOptions gen;
  gen.num_samples = 4000;
  gen.seed = 42;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  data::MiniBatchSamplerOptions sopts;
  sopts.global_batch_tokens = 65'536;
  sopts.max_input_len = 2048;
  sopts.seed = 5;
  data::MiniBatchSampler sampler(dataset, sopts);

  BenchBatchPlans out;
  uint64_t h = 1469598103934665603ull;
  for (int it = 0; it < 8; ++it) {
    const runtime::IterationPlan plan = planner.PlanIteration(sampler.Next());
    EXPECT_TRUE(plan.feasible) << "iteration " << it;
    out.modes_tried.push_back(plan.stats.recompute_modes_tried);
    h = HashDouble(plan.predicted_iteration_ms, h);
    for (const auto& replica : plan.replicas) {
      for (const auto& m : replica.micro_batches) {
        const uint64_t width = m.samples.size();
        h = Fnv1a(&width, sizeof(width), h);
        h = HashDouble(m.predicted_time_ms, h);
        h = HashDouble(m.predicted_activation_mb, h);
      }
    }
  }
  out.digest = h;
  return out;
}

uint64_t PlanDigest(const model::ModelConfig& config,
                    const model::ParallelConfig& parallel, ThreadPool* pool) {
  return PlanBenchBatches(config, parallel, pool).digest;
}

TEST(GoldenPlanDigestTest, T5SerialAndPooledMatchGolden) {
  const model::ParallelConfig parallel{1, 2, 2};
  const uint64_t serial = PlanDigest(model::ModelConfig::T5_5_5B(), parallel, nullptr);
  ThreadPool pool(3);
  const uint64_t pooled = PlanDigest(model::ModelConfig::T5_5_5B(), parallel, &pool);
  EXPECT_EQ(serial, 0x6cc2b28389c42761ull) << std::hex << serial;
  EXPECT_EQ(pooled, 0x6cc2b28389c42761ull) << std::hex << pooled;
}

TEST(GoldenPlanDigestTest, GptSerialAndPooledMatchGolden) {
  const model::ParallelConfig parallel{3, 1, 4};
  const uint64_t serial = PlanDigest(model::ModelConfig::Gpt3_35B(), parallel, nullptr);
  ThreadPool pool(3);
  const uint64_t pooled = PlanDigest(model::ModelConfig::Gpt3_35B(), parallel, &pool);
  EXPECT_EQ(serial, 0xed5b13ed4c1a06f6ull) << std::hex << serial;
  EXPECT_EQ(pooled, 0xed5b13ed4c1a06f6ull) << std::hex << pooled;
}

// ---------- Recompute-mode pruning ----------

// On T5 dp1/tp2/pp2 kNone wins every batch by more than the other modes'
// lower bounds, so serial planning plans only kNone; the pool still plans
// all three modes. A change that silently disables pruning fails here.
TEST(RecomputePruningTest, SerialT5PlansOnlyTheWinningMode) {
  const model::ParallelConfig parallel{1, 2, 2};
  const BenchBatchPlans serial =
      PlanBenchBatches(model::ModelConfig::T5_5_5B(), parallel, nullptr);
  ThreadPool pool(3);
  const BenchBatchPlans pooled =
      PlanBenchBatches(model::ModelConfig::T5_5_5B(), parallel, &pool);
  EXPECT_EQ(serial.modes_tried, std::vector<int32_t>(8, 1));
  EXPECT_EQ(pooled.modes_tried, std::vector<int32_t>(8, 3));
}

struct BoundCase {
  const char* name;
  model::ModelConfig config;
  model::ParallelConfig parallel;
  double device_memory_mb;
  int64_t batch_tokens;
  // A mode that must win at least one batch, so pruning is exercised where
  // kNone is not the answer; kNone when any winner will do.
  model::RecomputeMode must_win;
};

// RecomputeLowerBoundsMs never exceeds the predicted iteration time of a plan
// built with that mode alone (where it is exact, at pp1, it may overshoot by
// summation-order rounding only), and the pruned serial dynamic plan
// serializes to exactly the bytes of the pooled plan, which plans every mode.
TEST(RecomputePruningTest, BoundIsSoundAndPrunedPlansMatchPooled) {
  const model::HardwareSpec defaults;
  const BoundCase cases[] = {
      {"T5 dp1/tp2/pp2", model::ModelConfig::T5_5_5B(), {1, 2, 2},
       defaults.device_memory_mb, 65'536, model::RecomputeMode::kNone},
      {"T5 dp2/tp1/pp2", model::ModelConfig::T5_5_5B(), {2, 1, 2},
       defaults.device_memory_mb, 65'536, model::RecomputeMode::kSelective},
      {"T5 dp1/tp4/pp1", model::ModelConfig::T5_5_5B(), {1, 4, 1},
       defaults.device_memory_mb, 65'536, model::RecomputeMode::kNone},
      {"GPT dp3/tp1/pp4", model::ModelConfig::Gpt3_35B(), {3, 1, 4},
       defaults.device_memory_mb, 65'536, model::RecomputeMode::kNone},
      {"GPT dp2/tp2/pp1", model::ModelConfig::Gpt3_35B(), {2, 2, 1},
       defaults.device_memory_mb, 65'536, model::RecomputeMode::kNone},
      {"GPT dp1/tp1/pp4 20GB", model::ModelConfig::Gpt3_35B(), {1, 1, 4},
       20.0 * 1024.0, 131'072, model::RecomputeMode::kFull},
  };
  const model::RecomputeMode modes[] = {model::RecomputeMode::kNone,
                                        model::RecomputeMode::kSelective,
                                        model::RecomputeMode::kFull};
  const runtime::PlannerOptions popts = BenchPlanner();
  data::FlanGeneratorOptions gen;
  gen.num_samples = 4000;
  gen.seed = 42;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  ThreadPool pool(3);

  for (const BoundCase& bc : cases) {
    SCOPED_TRACE(bc.name);
    model::HardwareSpec hw;
    hw.device_memory_mb = bc.device_memory_mb;
    const cost::PipelineCostModel cm = cost::PipelineCostModel::Profile(
        bc.config, hw, bc.parallel, BenchProfile());
    runtime::PlannerOptions pooled_opts = popts;
    pooled_opts.pool = &pool;
    const runtime::IterationPlanner serial(cm, popts);
    const runtime::IterationPlanner pooled(cm, pooled_opts);

    data::MiniBatchSamplerOptions sopts;
    sopts.global_batch_tokens = bc.batch_tokens;
    sopts.max_input_len = 2048;
    sopts.seed = 5;
    data::MiniBatchSampler sampler(dataset, sopts);
    bool winner_seen = false;
    for (int it = 0; it < 3; ++it) {
      SCOPED_TRACE("batch " + std::to_string(it));
      const std::vector<data::Sample> minibatch = sampler.Next();
      const std::vector<data::Sample> ordered =
          runtime::PlanningOrder(bc.config, minibatch, popts.ordering);
      // One sweep over all modes prices each exactly as a sweep of its own.
      const std::vector<double> joint = runtime::RecomputeLowerBoundsMs(
          cm, ordered, {std::begin(modes), std::end(modes)},
          popts.max_microbatch_size);
      for (size_t m = 0; m < std::size(modes); ++m) {
        const model::RecomputeMode mode = modes[m];
        const double bound = runtime::RecomputeLowerBoundsMs(
            cm, ordered, {mode}, popts.max_microbatch_size)[0];
        EXPECT_EQ(joint[m], bound) << model::RecomputeModeName(mode);
        runtime::PlannerOptions alone = popts;
        alone.dynamic_recompute = false;
        alone.static_recompute = mode;
        const runtime::IterationPlan plan =
            runtime::IterationPlanner(cm, alone).PlanIteration(minibatch);
        if (!plan.feasible) {
          continue;
        }
        EXPECT_LE(bound, plan.predicted_iteration_ms * (1.0 + 1e-12))
            << model::RecomputeModeName(mode);
      }

      const runtime::IterationPlan a = serial.PlanIteration(minibatch);
      const runtime::IterationPlan b = pooled.PlanIteration(minibatch);
      ASSERT_TRUE(a.feasible);
      ASSERT_TRUE(b.feasible);
      EXPECT_EQ(a.recompute, b.recompute);
      EXPECT_EQ(a.predicted_iteration_ms, b.predicted_iteration_ms);
      ASSERT_EQ(a.replicas.size(), b.replicas.size());
      for (size_t d = 0; d < a.replicas.size(); ++d) {
        EXPECT_EQ(service::EncodeExecutionPlan(a.replicas[d].exec_plan),
                  service::EncodeExecutionPlan(b.replicas[d].exec_plan))
            << "replica " << d;
      }
      EXPECT_EQ(b.stats.recompute_modes_tried, 3);
      winner_seen |= a.recompute == bc.must_win;
    }
    EXPECT_TRUE(bc.must_win == model::RecomputeMode::kNone || winner_seen)
        << model::RecomputeModeName(bc.must_win) << " never won";
  }
}

// ---------- Row pricing: the DP rows and the bound sweep ----------

struct RowCase {
  const char* name;
  model::ModelConfig config;
  model::ParallelConfig parallel;
};

const RowCase kRowCases[] = {
    {"T5 dp1/tp2/pp2", model::ModelConfig::T5_5_5B(), {1, 2, 2}},
    {"GPT dp3/tp1/pp4", model::ModelConfig::Gpt3_35B(), {3, 1, 4}},
};

// Three seeded 65,536-token mini-batches in planning order.
std::vector<std::vector<data::Sample>> OrderedBenchBatches(
    const model::ModelConfig& config) {
  data::FlanGeneratorOptions gen;
  gen.num_samples = 4000;
  gen.seed = 42;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  data::MiniBatchSamplerOptions sopts;
  sopts.global_batch_tokens = 65'536;
  sopts.max_input_len = 2048;
  sopts.seed = 5;
  data::MiniBatchSampler sampler(dataset, sopts);
  std::vector<std::vector<data::Sample>> batches;
  for (int it = 0; it < 3; ++it) {
    batches.push_back(
        runtime::PlanningOrder(config, sampler.Next(), BenchPlanner().ordering));
  }
  return batches;
}

// The cost model's row hook prices every window exactly as the per-stage
// accessors price it alone, and stops at the same first window over the
// memory limit: with the budget the DP uses and with a limit tight enough
// that rows stop early.
TEST(RowPricingTest, RowHookBitEqualsPerWindowPricing) {
  const int32_t width = BenchPlanner().max_microbatch_size;
  for (const RowCase& rc : kRowCases) {
    SCOPED_TRACE(rc.name);
    const cost::PipelineCostModel cm = cost::PipelineCostModel::Profile(
        rc.config, model::HardwareSpec{}, rc.parallel, BenchProfile());
    const auto batches = OrderedBenchBatches(rc.config);
    for (const auto mode : {model::RecomputeMode::kNone, model::RecomputeMode::kSelective,
                            model::RecomputeMode::kFull}) {
      SCOPED_TRACE(model::RecomputeModeName(mode));
      const runtime::CostModelAdapter adapter(cm, mode);
      int64_t windows = 0;
      int64_t stopped_rows = 0;
      for (const double limit : {cm.ActivationBudgetMb(), cm.ActivationBudgetMb() / 16}) {
        for (const auto& ordered : batches) {
          const size_t n = ordered.size();
          for (size_t i = 0; i < n; ++i) {
            const size_t max_width = std::min(n - i, static_cast<size_t>(width));
            std::vector<double> times(max_width, -1.0);
            std::vector<double> acts(max_width, -1.0);
            const size_t len =
                adapter.PriceRow(ordered, i, max_width, limit, times.data(), acts.data());
            // The per-window oracle: every stage priced on its own.
            model::MicroBatchShape shape;
            size_t want_len = max_width;
            for (size_t w = 0; w < max_width; ++w) {
              mb::ExtendWindow(shape, ordered[i + w]);
              double want_time = 0.0;
              double want_act = 0.0;
              for (int32_t s = 0; s < cm.num_stages(); ++s) {
                want_time = std::max(want_time, cm.StageFwdMs(s, shape) +
                                                    cm.StageBwdMs(s, shape, mode));
                want_act = std::max(want_act, cm.StageActivationMb(s, shape, mode));
              }
              if (want_act > limit) {
                want_len = w;
                break;
              }
              ASSERT_LT(w, len) << "row " << i;
              EXPECT_EQ(times[w], want_time) << "row " << i << " width " << w + 1;
              EXPECT_EQ(acts[w], want_act) << "row " << i << " width " << w + 1;
              ++windows;
            }
            ASSERT_EQ(len, want_len) << "row " << i;
            stopped_rows += want_len < max_width ? 1 : 0;
          }
        }
      }
      EXPECT_GT(windows, 10'000);
      EXPECT_GT(stopped_rows, 0);
    }
  }
}

// Reference RecomputeLowerBoundsMs: each window located by a grid search and
// priced stage by stage through the per-stage accessors.
std::vector<double> LowerBoundsOracle(const cost::PipelineCostModel& cm,
                                      const std::vector<data::Sample>& ordered,
                                      const std::vector<model::RecomputeMode>& modes,
                                      int32_t max_microbatch_size) {
  const size_t n = ordered.size();
  const size_t c = static_cast<size_t>(cm.num_stages());
  const size_t cols = modes.size() * c;
  const size_t max_width = std::min(n, static_cast<size_t>(max_microbatch_size));
  std::vector<double> least((n + 1) * cols, std::numeric_limits<double>::infinity());
  std::fill_n(least.begin(), cols, 0.0);
  for (size_t i = 0; i < n; ++i) {
    model::MicroBatchShape shape;
    for (size_t w = 1; w <= max_width && i + w <= n; ++w) {
      mb::ExtendWindow(shape, ordered[i + w - 1]);
      for (size_t s = 0; s < c; ++s) {
        const int32_t stage = static_cast<int32_t>(s);
        const double fwd = cm.StageFwdMs(stage, shape);
        for (size_t m = 0; m < modes.size(); ++m) {
          double& to = least[(i + w) * cols + m * c + s];
          to = std::min(to, least[i * cols + m * c + s] + fwd +
                                cm.StageBwdMs(stage, shape, modes[m]));
        }
      }
    }
  }
  std::vector<double> bounds(modes.size());
  for (size_t m = 0; m < modes.size(); ++m) {
    const double* last = least.data() + n * cols + m * c;
    bounds[m] = *std::max_element(last, last + c) / static_cast<double>(cm.parallel().dp);
  }
  return bounds;
}

TEST(RowPricingTest, LowerBoundsBitEqualPerWindowOracle) {
  const int32_t width = BenchPlanner().max_microbatch_size;
  const std::vector<std::vector<model::RecomputeMode>> mode_sets = {
      {model::RecomputeMode::kNone, model::RecomputeMode::kSelective,
       model::RecomputeMode::kFull},
      {model::RecomputeMode::kSelective, model::RecomputeMode::kFull},
      {model::RecomputeMode::kFull},
  };
  for (const RowCase& rc : kRowCases) {
    SCOPED_TRACE(rc.name);
    const cost::PipelineCostModel cm = cost::PipelineCostModel::Profile(
        rc.config, model::HardwareSpec{}, rc.parallel, BenchProfile());
    for (const auto& ordered : OrderedBenchBatches(rc.config)) {
      for (const auto& modes : mode_sets) {
        const std::vector<double> got =
            runtime::RecomputeLowerBoundsMs(cm, ordered, modes, width);
        const std::vector<double> want = LowerBoundsOracle(cm, ordered, modes, width);
        ASSERT_EQ(got.size(), want.size());
        for (size_t m = 0; m < got.size(); ++m) {
          EXPECT_EQ(got[m], want[m]) << model::RecomputeModeName(modes[m]);
        }
      }
    }
  }
}

// ---------- The t_max sweep's stop rule against the full sweep ----------

// The sweep the partitioner ran before its stop rule: every t_max candidate
// solved, then the ascending strict-improvement merge. Same candidate list,
// same DP arithmetic, same smallest-width reconstruction.
struct FullSweep {
  mb::PartitionResult result;
  std::vector<double> candidates;
  // Per candidate: Eq. 1 objective (infinite if infeasible) and realized max.
  std::vector<double> objectives;
  std::vector<double> realized_max;
  size_t winner = 0;  // candidates.size() if none is feasible
};

FullSweep FullSweepPartition(const mb::MicroBatchCostFn& cost,
                             const mb::DpPartitionerOptions& opts,
                             const std::vector<data::Sample>& ordered) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  FullSweep out;
  const size_t n = ordered.size();
  if (n == 0) {
    out.result.feasible = true;
    return out;
  }
  const size_t width = std::min(n, static_cast<size_t>(opts.max_microbatch_size));
  std::vector<std::vector<double>> times(n);
  std::vector<std::vector<double>> acts(n);
  for (size_t i = 0; i < n; ++i) {
    times[i].resize(std::min(width, n - i));
    acts[i].resize(times[i].size());
    const size_t len = cost.PriceRow(ordered, i, times[i].size(), opts.activation_limit_mb,
                                     times[i].data(), acts[i].data());
    if (len == 0) {
      return out;
    }
    times[i].resize(len);
    acts[i].resize(len);
  }

  // Candidates: quantized distinct window times at or above the largest
  // single-sample time, evenly subsampled with both extremes kept.
  double max_single = 0.0;
  for (const auto& row : times) {
    max_single = std::max(max_single, row[0]);
  }
  const double interval = opts.tmax_interval_ms;
  std::vector<double> quantized;
  for (const auto& row : times) {
    for (const double t : row) {
      if (t + 1e-12 >= max_single) {
        quantized.push_back(std::ceil(t / interval) * interval);
      }
    }
  }
  std::sort(quantized.begin(), quantized.end());
  quantized.erase(std::unique(quantized.begin(), quantized.end()), quantized.end());
  const size_t cap = static_cast<size_t>(opts.max_tmax_candidates);
  if (quantized.size() <= cap) {
    out.candidates = quantized;
  } else {
    out.candidates.push_back(quantized.front());
    for (size_t k = 1; k + 1 < cap; ++k) {
      const size_t idx = k * (quantized.size() - 1) / (cap - 1);
      if (quantized[idx] > out.candidates.back()) {
        out.candidates.push_back(quantized[idx]);
      }
    }
    if (quantized.back() > out.candidates.back()) {
      out.candidates.push_back(quantized.back());
    }
  }

  // One DP per candidate; widths back-to-front.
  auto solve = [&](double candidate, std::vector<size_t>* widths, double* realized) {
    const double tmax = candidate + 1e-12;
    std::vector<double> f(n + 1, kInf);
    f[0] = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t w = 0; w < times[i].size() && times[i][w] <= tmax; ++w) {
        f[i + w + 1] = std::min(f[i + w + 1], f[i] + times[i][w]);
      }
    }
    if (f[n] == kInf) {
      return kInf;
    }
    double realized_max = 0.0;
    for (size_t k = n; k > 0;) {
      size_t found = 0;
      for (size_t w = 1; w <= std::min(k, width); ++w) {
        const std::vector<double>& row = times[k - w];
        if (w <= row.size() && row[w - 1] <= tmax && f[k - w] + row[w - 1] == f[k]) {
          found = w;
          realized_max = std::max(realized_max, row[w - 1]);
          break;
        }
      }
      EXPECT_GE(found, 1u);
      if (found == 0) {
        return kInf;
      }
      if (widths != nullptr) {
        widths->push_back(found);
      }
      k -= found;
    }
    *realized = realized_max;
    return (opts.num_stages - 1) * realized_max + f[n] / opts.num_replicas;
  };
  out.winner = out.candidates.size();
  double best = kInf;
  for (size_t k = 0; k < out.candidates.size(); ++k) {
    double realized = kInf;
    out.objectives.push_back(solve(out.candidates[k], nullptr, &realized));
    out.realized_max.push_back(realized);
    if (out.objectives[k] < best) {
      best = out.objectives[k];
      out.winner = k;
    }
  }
  out.result.candidates_tried = static_cast<int32_t>(out.candidates.size());
  if (out.winner == out.candidates.size()) {
    return out;
  }
  std::vector<size_t> widths;
  double realized = 0.0;
  solve(out.candidates[out.winner], &widths, &realized);
  std::reverse(widths.begin(), widths.end());
  size_t pos = 0;
  for (const size_t w : widths) {
    mb::MicroBatch m;
    m.samples.assign(ordered.begin() + static_cast<ptrdiff_t>(pos),
                     ordered.begin() + static_cast<ptrdiff_t>(pos + w));
    m.predicted_time_ms = times[pos][w - 1];
    m.predicted_activation_mb = acts[pos][w - 1];
    out.result.max_time_ms = std::max(out.result.max_time_ms, m.predicted_time_ms);
    out.result.total_time_ms += m.predicted_time_ms;
    out.result.micro_batches.push_back(std::move(m));
    pos += w;
  }
  out.result.objective_ms = (opts.num_stages - 1) * out.result.max_time_ms +
                            out.result.total_time_ms / opts.num_replicas;
  out.result.feasible = true;
  return out;
}

// Partition's result equals the full sweep's bit for bit.
void ExpectSameAsFullSweep(const mb::PartitionResult& got, const FullSweep& want) {
  ASSERT_EQ(got.feasible, want.result.feasible);
  EXPECT_EQ(got.candidates_tried, want.result.candidates_tried);
  EXPECT_GE(got.stats.candidates_solved, got.feasible ? 1 : 0);
  EXPECT_LE(got.stats.candidates_solved, got.candidates_tried);
  if (!got.feasible) {
    return;
  }
  ASSERT_EQ(got.micro_batches.size(), want.result.micro_batches.size());
  for (size_t k = 0; k < got.micro_batches.size(); ++k) {
    const mb::MicroBatch& a = got.micro_batches[k];
    const mb::MicroBatch& b = want.result.micro_batches[k];
    ASSERT_EQ(a.samples.size(), b.samples.size()) << "micro-batch " << k;
    EXPECT_EQ(a.predicted_time_ms, b.predicted_time_ms) << "micro-batch " << k;
    EXPECT_EQ(a.predicted_activation_mb, b.predicted_activation_mb) << "micro-batch " << k;
  }
  EXPECT_EQ(got.objective_ms, want.result.objective_ms);
  EXPECT_EQ(got.max_time_ms, want.result.max_time_ms);
  EXPECT_EQ(got.total_time_ms, want.result.total_time_ms);
}

// Synthetic costs built to tie: times rounded up to a coarse unit, so many
// windows and many candidates share one time, or a flat time for every
// window. Unrounded times (unit < 0) under fine intervals put candidates
// close together, where the stop bound is nearly tight. Activation grows
// with padded tokens.
class TieCost : public mb::MicroBatchCostFn {
 public:
  explicit TieCost(double unit) : unit_(unit) {}
  double TimeMs(const model::MicroBatchShape& shape) const override {
    if (unit_ == 0.0) {
      return 1.5;
    }
    const double raw = 0.3 + 0.004 * static_cast<double>(shape.padded_tokens());
    return unit_ < 0.0 ? raw : std::ceil(raw / unit_) * unit_;
  }
  double ActivationMb(const model::MicroBatchShape& shape) const override {
    return 0.05 * static_cast<double>(shape.padded_tokens());
  }

 private:
  double unit_;  // 0: flat
};

TEST(TmaxSweepStopTest, MatchesFullSweepOnSeededTieInstances) {
  const double units[] = {-1.0, 0.0, 0.25, 0.5, 1.0, 2.0};
  const int32_t stages[] = {1, 2, 4, 8};
  const int32_t replicas[] = {1, 3};
  const double intervals[] = {0.001, 0.01, 0.05, 0.25, 0.5, 1.0};
  const int32_t lengths[] = {8, 16, 24, 32, 64};
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  ThreadPool* const pools[] = {&pool1, &pool2, &pool8};
  int64_t solved = 0;
  int64_t tried = 0;
  for (uint64_t seed = 1; seed <= 10'000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const TieCost cost(units[rng.NextBelow(std::size(units))]);
    std::vector<data::Sample> samples(static_cast<size_t>(rng.NextInt(1, 40)));
    for (size_t i = 0; i < samples.size(); ++i) {
      samples[i].id = i;
      samples[i].input_len = lengths[rng.NextBelow(std::size(lengths))];
      samples[i].target_len = lengths[rng.NextBelow(std::size(lengths))] / 8;
    }
    const auto ordered = mb::OrderSamples(samples, mb::OrderingMethod::kSortByLength);
    mb::DpPartitionerOptions opts;
    opts.num_stages = stages[rng.NextBelow(std::size(stages))];
    opts.num_replicas = replicas[rng.NextBelow(std::size(replicas))];
    opts.max_microbatch_size = static_cast<int32_t>(rng.NextInt(1, 24));
    opts.tmax_interval_ms = intervals[rng.NextBelow(std::size(intervals))];
    opts.max_tmax_candidates = static_cast<int32_t>(rng.NextInt(2, 100));
    if (rng.NextBelow(2) == 1) {
      // Every single sample fits; wider windows may not.
      double widest_single = 0.0;
      for (const data::Sample& s : ordered) {
        model::MicroBatchShape shape;
        mb::ExtendWindow(shape, s);
        widest_single = std::max(widest_single, cost.ActivationMb(shape));
      }
      opts.activation_limit_mb = widest_single * rng.NextDouble(1.0, 6.0);
    }
    const FullSweep want = FullSweepPartition(cost, opts, ordered);

    const mb::PartitionResult serial = mb::DpPartitioner(cost, opts).Partition(ordered);
    ExpectSameAsFullSweep(serial, want);
    solved += serial.stats.candidates_solved;
    tried += serial.candidates_tried;
    mb::DpPartitionerOptions popts = opts;
    popts.pool = pools[seed % std::size(pools)];
    ExpectSameAsFullSweep(mb::DpPartitioner(cost, popts).Partition(ordered), want);
    if (HasFailure()) {
      break;
    }
  }
  // The instances exercise the stop, not only the full walk.
  EXPECT_LT(solved, tried);
}

// Widths-only cost: t(1) = 1, t(2) = 1.25, t(3) = 3 ms.
class WidthCost : public mb::MicroBatchCostFn {
 public:
  double TimeMs(const model::MicroBatchShape& shape) const override {
    return shape.num_samples == 1 ? 1.0 : shape.num_samples == 2 ? 1.25 : 3.0;
  }
  double ActivationMb(const model::MicroBatchShape& shape) const override {
    return static_cast<double>(shape.num_samples);
  }
};

// Three samples, c = 2, candidates {1, 1.25, 3}. Candidate 2's optimal path
// is a pair then a single, which fits candidate 1, so the two score the same
// objective bit for bit and the merge keeps candidate 1: the case the stop
// rule leans on when it skips a candidate whose path fits its lower
// neighbour.
TEST(TmaxSweepStopTest, TieKeepsTheLowerCandidate) {
  const WidthCost cost;
  const std::vector<data::Sample> ordered(3);
  mb::DpPartitionerOptions opts;
  opts.num_stages = 2;
  opts.max_microbatch_size = 3;
  opts.tmax_interval_ms = 0.25;
  const FullSweep want = FullSweepPartition(cost, opts, ordered);
  ASSERT_EQ(want.candidates, (std::vector<double>{1.0, 1.25, 3.0}));
  EXPECT_EQ(want.objectives, (std::vector<double>{4.0, 3.5, 3.5}));
  EXPECT_LE(want.realized_max[2], want.candidates[1]);
  EXPECT_EQ(want.winner, 1u);

  const mb::PartitionResult got = mb::DpPartitioner(cost, opts).Partition(ordered);
  ExpectSameAsFullSweep(got, want);
  ASSERT_EQ(got.micro_batches.size(), 2u);
  EXPECT_EQ(got.micro_batches[0].samples.size(), 2u);
  EXPECT_EQ(got.max_time_ms, 1.25);
}

// The DP options PlanWithRecompute builds for `cm` with BenchPlanner().
mb::DpPartitionerOptions BenchPartitionOptions(const cost::PipelineCostModel& cm,
                                               ThreadPool* pool) {
  const runtime::PlannerOptions popts = BenchPlanner();
  mb::DpPartitionerOptions opts;
  opts.num_stages = cm.num_stages();
  opts.num_replicas = cm.parallel().dp;
  opts.activation_limit_mb = cm.ActivationBudgetMb();  // adaptive schedule
  opts.max_microbatch_size = popts.max_microbatch_size;
  opts.tmax_interval_ms = popts.tmax_interval_ms;
  opts.max_tmax_candidates = popts.max_tmax_candidates;
  opts.pool = pool;
  return opts;
}

// The bench batches in every recompute mode, serial and pooled, match the
// full sweep. Serially on GPT dp3/pp4 the stop fires early: a sweep that
// silently went back to solving every candidate fails here.
TEST(TmaxSweepStopTest, BenchBatchesMatchFullSweepAndGptStopsEarly) {
  ThreadPool pool(3);
  for (const RowCase& rc : kRowCases) {
    SCOPED_TRACE(rc.name);
    const bool gpt = rc.config.arch == model::ModelArch::kGpt;
    const cost::PipelineCostModel cm = cost::PipelineCostModel::Profile(
        rc.config, model::HardwareSpec{}, rc.parallel, BenchProfile());
    int64_t solved = 0;
    int64_t tried = 0;
    for (const auto& ordered : OrderedBenchBatches(rc.config)) {
      for (const auto mode : {model::RecomputeMode::kNone, model::RecomputeMode::kSelective,
                              model::RecomputeMode::kFull}) {
        SCOPED_TRACE(model::RecomputeModeName(mode));
        const runtime::CostModelAdapter adapter(cm, mode);
        const FullSweep want =
            FullSweepPartition(adapter, BenchPartitionOptions(cm, nullptr), ordered);
        const mb::PartitionResult serial =
            mb::DpPartitioner(adapter, BenchPartitionOptions(cm, nullptr)).Partition(ordered);
        ExpectSameAsFullSweep(serial, want);
        ExpectSameAsFullSweep(
            mb::DpPartitioner(adapter, BenchPartitionOptions(cm, &pool)).Partition(ordered),
            want);
        solved += serial.stats.candidates_solved;
        tried += serial.candidates_tried;
      }
    }
    if (gpt) {
      EXPECT_LE(solved * 10, tried) << solved << " of " << tried << " solved";
    }
  }
}

// PlanningStats::candidates_solved sums the partitioner's count over the
// modes planned: all three on a pool.
TEST(TmaxSweepStopTest, PlanningStatsSumSolvedOverModes) {
  const RowCase& rc = kRowCases[1];
  const cost::PipelineCostModel cm = cost::PipelineCostModel::Profile(
      rc.config, model::HardwareSpec{}, rc.parallel, BenchProfile());
  ThreadPool pool(3);
  runtime::PlannerOptions popts = BenchPlanner();
  popts.pool = &pool;
  data::FlanGeneratorOptions gen;
  gen.num_samples = 4000;
  gen.seed = 42;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  data::MiniBatchSamplerOptions sopts;
  sopts.global_batch_tokens = 65'536;
  sopts.max_input_len = 2048;
  sopts.seed = 5;
  const std::vector<data::Sample> minibatch = data::MiniBatchSampler(dataset, sopts).Next();
  const runtime::IterationPlan plan =
      runtime::IterationPlanner(cm, popts).PlanIteration(minibatch);
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.stats.recompute_modes_tried, 3);
  const auto ordered = runtime::PlanningOrder(rc.config, minibatch, popts.ordering);
  int32_t want = 0;
  for (const auto mode : {model::RecomputeMode::kNone, model::RecomputeMode::kSelective,
                          model::RecomputeMode::kFull}) {
    const runtime::CostModelAdapter adapter(cm, mode);
    want += mb::DpPartitioner(adapter, BenchPartitionOptions(cm, &pool))
                .Partition(ordered)
                .stats.candidates_solved;
  }
  EXPECT_EQ(plan.stats.candidates_solved, want);
}

// ---------- Grid search equivalence ----------

TEST(GridSearchParallelTest, PooledSearchMatchesSerial) {
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  data::FlanGeneratorOptions gen;
  gen.num_samples = 150;
  gen.length_cap = 512;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);

  runtime::GridSearchOptions opts;
  opts.eval_iterations = 1;
  opts.profile = SmallProfile();
  opts.trainer.global_batch_tokens = 4096;
  opts.trainer.max_input_len = 512;

  runtime::PlannerOptions planner = FastPlanner();
  planner.dynamic_recompute = false;

  const runtime::DynaPipeSearchResult serial =
      GridSearchDynaPipe(config, hw, 2, dataset, planner, opts);

  ThreadPool pool(4);
  runtime::GridSearchOptions popts = opts;
  popts.pool = &pool;
  const runtime::DynaPipeSearchResult parallel =
      GridSearchDynaPipe(config, hw, 2, dataset, planner, popts);

  ASSERT_EQ(serial.found, parallel.found);
  EXPECT_EQ(serial.best.dp, parallel.best.dp);
  EXPECT_EQ(serial.best.tp, parallel.best.tp);
  EXPECT_EQ(serial.best.pp, parallel.best.pp);
  EXPECT_EQ(serial.tokens_per_second, parallel.tokens_per_second);
  ASSERT_EQ(serial.all.size(), parallel.all.size());
  for (size_t i = 0; i < serial.all.size(); ++i) {
    EXPECT_EQ(serial.all[i].feasible, parallel.all[i].feasible);
    EXPECT_EQ(serial.all[i].tokens_per_second, parallel.all[i].tokens_per_second);
  }
}

}  // namespace
}  // namespace dynapipe
