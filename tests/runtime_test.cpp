// Tests for src/runtime: ground truth wiring, iteration planning (DynaPipe and
// baseline), the instruction store, the trainer loop, and grid search.
#include <gtest/gtest.h>

#include "src/data/flan_generator.h"
#include "src/runtime/grid_search.h"
#include "src/runtime/ground_truth.h"
#include "src/runtime/instruction_store.h"
#include "src/runtime/planner.h"
#include "src/runtime/trainer.h"
#include "src/sim/cluster_sim.h"

namespace dynapipe::runtime {
namespace {

// Small, fast profile for tests.
cost::ProfileOptions TestProfile() {
  cost::ProfileOptions opts;
  opts.max_microbatch_size = 32;
  opts.max_seq_len = 4096;
  return opts;
}

PlannerOptions FastPlanner() {
  PlannerOptions opts;
  opts.max_tmax_candidates = 48;
  opts.tmax_interval_ms = 0.5;
  opts.max_microbatch_size = 32;
  opts.reorder_clusters = 2;
  opts.dynamic_recompute = false;  // keep tests fast; dedicated tests enable it
  return opts;
}

std::vector<data::Sample> TestMiniBatch(int n, uint64_t seed, int32_t max_len = 1024) {
  data::FlanGeneratorOptions gen;
  gen.num_samples = n;
  gen.seed = seed;
  gen.length_cap = max_len;
  const data::Dataset d = data::GenerateFlanLikeDataset(gen);
  return d.samples();
}

// ---------- SimGroundTruth ----------

TEST(SimGroundTruthTest, MatchesStageModelsWithoutNoise) {
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  const model::ParallelConfig par{1, 1, 4};
  SimGroundTruth gt(config, hw, par, 0.0, 1);
  sim::Instruction fwd;
  fwd.type = sim::InstrType::kForwardPass;
  fwd.shape = {2, 512, 0};
  const auto stages = model::BuildStageModels(config, hw, 4, 1);
  EXPECT_DOUBLE_EQ(gt.ComputeMs(1, fwd), stages[1].FwdMs(fwd.shape));
  EXPECT_DOUBLE_EQ(gt.ActivationMb(1, fwd),
                   stages[1].ActivationMb(fwd.shape, fwd.recompute));
}

TEST(SimGroundTruthTest, NoiseChangesDurations) {
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  const model::ParallelConfig par{1, 1, 2};
  SimGroundTruth noisy(config, hw, par, 0.2, 5);
  SimGroundTruth exact(config, hw, par, 0.0, 5);
  sim::Instruction fwd;
  fwd.type = sim::InstrType::kForwardPass;
  fwd.shape = {2, 512, 0};
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    if (std::abs(noisy.ComputeMs(0, fwd) - exact.ComputeMs(0, fwd)) > 1e-9) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(SimGroundTruthTest, StaticMemoryPerStage) {
  const auto config = model::ModelConfig::Gpt6_7B();
  const model::HardwareSpec hw;
  SimGroundTruth gt(config, hw, {2, 1, 4}, 0.0, 1);
  const auto mem = gt.StaticMemoryMb();
  ASSERT_EQ(mem.size(), 4u);
  for (const double m : mem) {
    EXPECT_GT(m, 0.0);
  }
}

// ---------- InstructionStore ----------

TEST(InstructionStoreTest, PushFetchRoundTrip) {
  InstructionStore store;
  sim::ExecutionPlan plan;
  plan.num_microbatches = 3;
  store.Push(7, 0, plan);
  EXPECT_TRUE(store.Contains(7, 0));
  EXPECT_EQ(store.size(), 1u);
  const sim::ExecutionPlan out = store.Fetch(7, 0);
  EXPECT_EQ(out.num_microbatches, 3);
  EXPECT_FALSE(store.Contains(7, 0));
}

TEST(InstructionStoreTest, KeysAreIndependent) {
  InstructionStore store;
  store.Push(1, 0, {});
  store.Push(1, 1, {});
  store.Push(2, 0, {});
  EXPECT_EQ(store.size(), 3u);
  store.Fetch(1, 1);
  EXPECT_TRUE(store.Contains(1, 0));
  EXPECT_TRUE(store.Contains(2, 0));
}

// ---------- IterationPlanner ----------

class IterationPlannerTest : public ::testing::Test {
 protected:
  IterationPlannerTest()
      : config_(model::ModelConfig::Gpt3_35B()), parallel_{1, 1, 4},
        cm_(cost::PipelineCostModel::Profile(config_, hw_, parallel_,
                                             TestProfile())) {}

  // Runs a replica's plan on the cluster simulator, the one plan checker:
  // admitted and drained, neither refused nor deadlocked.
  void ExpectRuns(const sim::ExecutionPlan& plan) const {
    SimGroundTruth gt(config_, hw_, parallel_, 0.0, 1);
    sim::ClusterSim cluster(parallel_.pp, &gt);
    const sim::SimResult res = cluster.Run(plan);
    EXPECT_FALSE(res.refused) << res.diagnostic;
    EXPECT_FALSE(res.deadlocked) << res.diagnostic;
  }

  model::ModelConfig config_;
  model::HardwareSpec hw_;
  model::ParallelConfig parallel_;
  cost::PipelineCostModel cm_;
};

TEST_F(IterationPlannerTest, ProducesFeasiblePlan) {
  IterationPlanner planner(cm_, FastPlanner());
  const IterationPlan plan = planner.PlanIteration(TestMiniBatch(60, 1));
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  ASSERT_EQ(plan.replicas.size(), 1u);
  EXPECT_GT(plan.total_microbatches(), 0);
  EXPECT_GT(plan.predicted_iteration_ms, 0.0);
  EXPECT_GT(plan.planning_time_ms, 0.0);
}

TEST_F(IterationPlannerTest, PlanIsWellFormedAndOrderConsistent) {
  IterationPlanner planner(cm_, FastPlanner());
  const IterationPlan plan = planner.PlanIteration(TestMiniBatch(60, 2));
  ASSERT_TRUE(plan.feasible);
  for (const auto& replica : plan.replicas) {
    ExpectRuns(replica.exec_plan);
  }
}

TEST_F(IterationPlannerTest, AllSamplesCovered) {
  IterationPlanner planner(cm_, FastPlanner());
  const auto minibatch = TestMiniBatch(80, 3);
  const IterationPlan plan = planner.PlanIteration(minibatch);
  ASSERT_TRUE(plan.feasible);
  size_t total = 0;
  for (const auto& replica : plan.replicas) {
    for (const auto& m : replica.micro_batches) {
      total += m.samples.size();
    }
  }
  EXPECT_EQ(total, minibatch.size());
}

TEST_F(IterationPlannerTest, DataParallelBalancesReplicas) {
  const model::ParallelConfig par{2, 1, 2};
  const auto cm = cost::PipelineCostModel::Profile(config_, hw_, par, TestProfile());
  IterationPlanner planner(cm, FastPlanner());
  const IterationPlan plan = planner.PlanIteration(TestMiniBatch(100, 4));
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.replicas.size(), 2u);
  double t0 = 0.0;
  double t1 = 0.0;
  for (const auto& m : plan.replicas[0].micro_batches) {
    t0 += m.predicted_time_ms;
  }
  for (const auto& m : plan.replicas[1].micro_batches) {
    t1 += m.predicted_time_ms;
  }
  EXPECT_GT(t0, 0.0);
  EXPECT_GT(t1, 0.0);
  // Karmarkar–Karp keeps totals close.
  EXPECT_LT(std::abs(t0 - t1), 0.5 * std::max(t0, t1));
}

TEST_F(IterationPlannerTest, DynamicRecomputeSelectsCheapestFeasible) {
  PlannerOptions opts = FastPlanner();
  opts.dynamic_recompute = true;
  IterationPlanner planner(cm_, opts);
  const IterationPlan plan = planner.PlanIteration(TestMiniBatch(40, 5));
  ASSERT_TRUE(plan.feasible);
  // With plenty of memory, kNone (no recompute overhead) must win.
  EXPECT_EQ(plan.recompute, model::RecomputeMode::kNone);
}

TEST_F(IterationPlannerTest, TightMemoryFallsBackToRecompute) {
  model::HardwareSpec tight = hw_;
  // Just above the static footprint so only small/recomputed activations fit.
  tight.device_memory_mb = 9000.0;
  const auto cm =
      cost::PipelineCostModel::Profile(config_, tight, parallel_, TestProfile());
  PlannerOptions opts = FastPlanner();
  opts.dynamic_recompute = true;
  IterationPlanner planner(cm, opts);
  const IterationPlan plan = planner.PlanIteration(TestMiniBatch(60, 6, 2048));
  if (plan.feasible) {
    EXPECT_NE(plan.recompute, model::RecomputeMode::kNone);
  }
  // (Either outcome is acceptable; what matters is no crash and no kNone pick.)
}

TEST_F(IterationPlannerTest, InfeasibleWhenWeightsDontFit) {
  model::HardwareSpec tiny = hw_;
  tiny.device_memory_mb = 256.0;  // GPT-3.35B stage cannot fit
  const auto cm =
      cost::PipelineCostModel::Profile(config_, tiny, parallel_, TestProfile());
  IterationPlanner planner(cm, FastPlanner());
  const IterationPlan plan = planner.PlanIteration(TestMiniBatch(20, 7));
  EXPECT_FALSE(plan.feasible);
  EXPECT_FALSE(plan.infeasible_reason.empty());
}

TEST_F(IterationPlannerTest, EmptyMiniBatchFeasible) {
  IterationPlanner planner(cm_, FastPlanner());
  const IterationPlan plan = planner.PlanIteration({});
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.total_microbatches(), 0);
}

// ---------- Baseline planning ----------

TEST_F(IterationPlannerTest, BaselinePackingPlanExecutable) {
  BaselineOptions opts;
  opts.batching = BaselineBatching::kPacking;
  opts.microbatch_size = 2;
  opts.max_input_len = 1024;
  const IterationPlan plan =
      PlanBaselineIteration(cm_, opts, TestMiniBatch(80, 8));
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  for (const auto& replica : plan.replicas) {
    // Fused 1F1B naive comm is order-consistent for uniform micro-batches.
    ExpectRuns(replica.exec_plan);
  }
}

TEST_F(IterationPlannerTest, BaselineTokenBasedCoversSamples) {
  BaselineOptions opts;
  opts.batching = BaselineBatching::kTokenBased;
  opts.tokens_per_microbatch = 4096;
  opts.max_input_len = 1024;
  const auto minibatch = TestMiniBatch(60, 9);
  const IterationPlan plan = PlanBaselineIteration(cm_, opts, minibatch);
  ASSERT_TRUE(plan.feasible);
  size_t total = 0;
  for (const auto& replica : plan.replicas) {
    for (const auto& m : replica.micro_batches) {
      total += m.samples.size();
    }
  }
  EXPECT_EQ(total, minibatch.size());
}

TEST_F(IterationPlannerTest, PackingPaddingEfficiencyHigh) {
  BaselineOptions opts;
  opts.batching = BaselineBatching::kPacking;
  opts.microbatch_size = 4;
  opts.max_input_len = 2048;
  // (4 x 2048) activations under kNone exceed 1F1B's 4-deep accumulation window;
  // the paper's baseline grid search would pick a checkpointing strategy here.
  opts.recompute = model::RecomputeMode::kSelective;
  const IterationPlan plan =
      PlanBaselineIteration(cm_, opts, TestMiniBatch(300, 10, 512));
  ASSERT_TRUE(plan.feasible);
  EXPECT_GT(plan.padding.overall_efficiency(), 0.7);
}

// ---------- Trainer ----------

TEST(TrainerTest, EpochRunsAndCountsTokens) {
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  Trainer trainer(config, hw, {1, 1, 4}, TestProfile());
  data::FlanGeneratorOptions gen;
  gen.num_samples = 400;
  gen.length_cap = 2048;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  TrainerOptions opts;
  opts.global_batch_tokens = 16'384;
  opts.max_input_len = 1024;
  opts.max_iterations = 3;
  const EpochResult res = trainer.RunEpoch(dataset, FastPlanner(), opts);
  ASSERT_TRUE(res.feasible) << res.failure;
  EXPECT_EQ(res.iterations, 3);
  EXPECT_GT(res.real_tokens, 0);
  EXPECT_GT(res.train_time_ms, 0.0);
  EXPECT_GT(res.tokens_per_second(), 0.0);
  EXPECT_EQ(res.deadlocks, 0);
  EXPECT_EQ(res.records.size(), 3u);
}

TEST(TrainerTest, PredictionsTrackMeasurementsWithoutNoise) {
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  Trainer trainer(config, hw, {1, 1, 4}, TestProfile());
  data::FlanGeneratorOptions gen;
  gen.num_samples = 300;
  gen.length_cap = 1024;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  TrainerOptions opts;
  opts.global_batch_tokens = 8192;
  opts.max_input_len = 1024;
  opts.max_iterations = 4;
  opts.noise_stddev = 0.0;
  const EpochResult res = trainer.RunEpoch(dataset, FastPlanner(), opts);
  ASSERT_TRUE(res.feasible) << res.failure;
  for (const auto& rec : res.records) {
    // Without noise, error comes only from cost-model interpolation and comm
    // modelling: should be tight.
    EXPECT_NEAR(rec.predicted_ms / rec.measured_ms, 1.0, 0.25);
    EXPECT_NEAR(rec.predicted_peak_mb / rec.measured_peak_mb, 1.0, 0.25);
  }
}

TEST(TrainerTest, BaselineEpochRuns) {
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  Trainer trainer(config, hw, {1, 1, 4}, TestProfile());
  data::FlanGeneratorOptions gen;
  gen.num_samples = 300;
  gen.length_cap = 2048;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  TrainerOptions opts;
  opts.global_batch_tokens = 16'384;
  opts.max_input_len = 1024;
  opts.max_iterations = 2;
  BaselineOptions base;
  base.batching = BaselineBatching::kPacking;
  base.microbatch_size = 2;
  const EpochResult res = trainer.RunEpochBaseline(dataset, base, opts);
  ASSERT_TRUE(res.feasible) << res.failure;
  EXPECT_GT(res.tokens_per_second(), 0.0);
}

TEST(TrainerTest, T5PathRuns) {
  const auto config = model::ModelConfig::T5_5_5B();
  const model::HardwareSpec hw;
  // T5-5.5B at dp=1 needs 16 B/param: pp=2 alone does not fit 40 GB; tp=2 does.
  Trainer trainer(config, hw, {1, 2, 2}, TestProfile());
  data::FlanGeneratorOptions gen;
  gen.num_samples = 200;
  gen.length_cap = 1024;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  TrainerOptions opts;
  opts.global_batch_tokens = 8192;
  opts.max_input_len = 512;
  opts.max_iterations = 2;
  const EpochResult res = trainer.RunEpoch(dataset, FastPlanner(), opts);
  ASSERT_TRUE(res.feasible) << res.failure;
  EXPECT_GT(res.real_tokens, 0);
  // Decoder side exists for T5.
  EXPECT_GT(res.padding.padded_target_tokens, 0);
}

// ---------- Grid search ----------

TEST(GridSearchTest, FindsAConfigForSmallSetup) {
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  data::FlanGeneratorOptions gen;
  gen.num_samples = 200;
  gen.length_cap = 1024;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  GridSearchOptions opts;
  opts.eval_iterations = 1;
  opts.profile = TestProfile();
  opts.trainer.global_batch_tokens = 8192;
  opts.trainer.max_input_len = 512;
  const DynaPipeSearchResult res =
      GridSearchDynaPipe(config, hw, 4, dataset, FastPlanner(), opts);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.best.num_gpus(), 4);
  EXPECT_GT(res.tokens_per_second, 0.0);
  EXPECT_FALSE(res.all.empty());
}

TEST(GridSearchTest, BaselineSweepsMicrobatchSize) {
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  data::FlanGeneratorOptions gen;
  gen.num_samples = 200;
  gen.length_cap = 1024;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  GridSearchOptions opts;
  opts.eval_iterations = 1;
  opts.profile = TestProfile();
  opts.trainer.global_batch_tokens = 8192;
  opts.trainer.max_input_len = 512;
  opts.microbatch_sizes = {1, 4};
  opts.recompute_modes = {model::RecomputeMode::kNone};
  const BaselineSearchResult res = GridSearchBaselineAtParallel(
      config, hw, {1, 1, 2}, dataset, BaselineBatching::kPacking, opts);
  ASSERT_TRUE(res.found);
  EXPECT_GT(res.microbatch_size, 0);
  EXPECT_GT(res.tokens_per_second, 0.0);
}

}  // namespace
}  // namespace dynapipe::runtime
