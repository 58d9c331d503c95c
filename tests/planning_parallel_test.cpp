// Tests for the parallel planning subsystem: ParallelFor (including nested
// fan-outs), parallel-vs-serial determinism of the DP partitioner and the full
// planner, golden plan digests that pin planner output bit for bit, and
// ThreadPool-backed grid search equivalence.
#include <atomic>
#include <cmath>
#include <cstring>
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

// Digest of eight seeded 64k-token mini-batches planned with the knobs the
// benches use (bench::BenchPlanner, bench::BenchProfile).
uint64_t PlanDigest(const model::ModelConfig& config,
                    const model::ParallelConfig& parallel, ThreadPool* pool) {
  cost::ProfileOptions profile;
  profile.max_microbatch_size = 128;
  profile.max_seq_len = 16'384;
  const cost::PipelineCostModel cm = cost::PipelineCostModel::Profile(
      config, model::HardwareSpec{}, parallel, profile);
  runtime::PlannerOptions popts;
  popts.max_tmax_candidates = 96;
  popts.tmax_interval_ms = 0.2;
  popts.max_microbatch_size = 128;
  popts.dynamic_recompute = true;
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

  uint64_t h = 1469598103934665603ull;
  for (int it = 0; it < 8; ++it) {
    const runtime::IterationPlan plan = planner.PlanIteration(sampler.Next());
    EXPECT_TRUE(plan.feasible) << "iteration " << it;
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
  return h;
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
