// Tests for src/comm: the ahead-of-time communication planner (deadlock-freedom by
// construction) and the naive baseline (deadlocks under dynamic schedules, works
// under fused uniform 1F1B). Every plan is checked by executing it on
// sim::ClusterSim, which refuses malformed plans.
#include <vector>

#include <gtest/gtest.h>

#include "src/comm/comm_planner.h"
#include "src/common/rng.h"
#include "src/schedule/adaptive_scheduler.h"
#include "src/schedule/executor_simulator.h"
#include "src/schedule/one_f_one_b.h"
#include "src/sim/cluster_sim.h"

namespace dynapipe::comm {
namespace {

using schedule::OpCosts;
using schedule::PipelineSchedule;

// Ground truth keyed off instruction shape: duration scales with padded tokens.
class ShapeGroundTruth : public sim::GroundTruth {
 public:
  double ComputeMs(int32_t, const sim::Instruction& instr) override {
    const double tokens = static_cast<double>(instr.shape.padded_tokens());
    return (instr.type == sim::InstrType::kForwardPass ? 1.0 : 2.0) *
           (0.1 + tokens / 1000.0);
  }
  double ActivationMb(int32_t, const sim::Instruction& instr) override {
    return static_cast<double>(instr.shape.padded_tokens()) / 100.0;
  }
  double TransferMs(int32_t, int32_t, int64_t bytes) override {
    return 0.01 + static_cast<double>(bytes) / 1e7;
  }
};

struct Scenario {
  OpCosts costs;
  std::vector<model::MicroBatchShape> shapes;
};

Scenario MakeScenario(int32_t c, int32_t m, uint64_t seed) {
  Scenario sc;
  dynapipe::Rng rng(seed);
  sc.shapes.resize(static_cast<size_t>(m));
  sc.costs.fwd_ms.assign(static_cast<size_t>(c),
                         std::vector<double>(static_cast<size_t>(m)));
  sc.costs.bwd_ms = sc.costs.fwd_ms;
  sc.costs.act_mb = sc.costs.fwd_ms;
  for (int32_t i = 0; i < m; ++i) {
    model::MicroBatchShape& shape = sc.shapes[static_cast<size_t>(i)];
    shape.num_samples = static_cast<int32_t>(rng.NextInt(1, 8));
    shape.input_len = static_cast<int32_t>(rng.NextInt(64, 2048));
    shape.target_len = 0;
    const double tokens = static_cast<double>(shape.padded_tokens());
    for (int32_t j = 0; j < c; ++j) {
      sc.costs.fwd_ms[static_cast<size_t>(j)][static_cast<size_t>(i)] =
          0.1 + tokens / 1000.0;
      sc.costs.bwd_ms[static_cast<size_t>(j)][static_cast<size_t>(i)] =
          2.0 * (0.1 + tokens / 1000.0);
      sc.costs.act_mb[static_cast<size_t>(j)][static_cast<size_t>(i)] =
          tokens / 100.0;
    }
  }
  return sc;
}

CommPlannerInputs MakeInputs(const PipelineSchedule& sched,
                             const schedule::SimulatedTimeline& tl,
                             const Scenario& sc) {
  CommPlannerInputs in;
  in.schedule = &sched;
  in.timeline = &tl;
  in.shapes = sc.shapes;
  in.boundary_bytes = [&sc](int32_t, int32_t mb) {
    return static_cast<int64_t>(sc.shapes[static_cast<size_t>(mb)].padded_tokens()) *
           128;
  };
  return in;
}

// Runs a plan on the cluster simulator, the one plan checker.
sim::SimResult Execute(const sim::ExecutionPlan& plan) {
  ShapeGroundTruth gt;
  sim::ClusterSim cluster(plan.num_devices(), &gt);
  return cluster.Run(plan);
}

// Admitted and drained: neither refused nor deadlocked.
void ExpectRuns(const sim::ExecutionPlan& plan) {
  const sim::SimResult res = Execute(plan);
  EXPECT_FALSE(res.refused) << res.diagnostic << "\n" << plan.ToString();
  EXPECT_FALSE(res.deadlocked) << res.diagnostic;
}

// ---------- Planner output structure ----------

TEST(CommPlannerTest, WellFormedFor1F1B) {
  const Scenario sc = MakeScenario(4, 8, 1);
  const PipelineSchedule sched = schedule::OneFOneBSchedule(8, 4);
  const auto tl = schedule::SimulateSchedule(sched, sc.costs);
  ExpectRuns(PlanCommunication(MakeInputs(sched, tl, sc)));
}

TEST(CommPlannerTest, WellFormedForAdaptive) {
  const Scenario sc = MakeScenario(4, 10, 2);
  const auto sched = schedule::MemoryAwareAdaptiveSchedule(sc.costs);
  ASSERT_TRUE(sched.has_value());
  const auto tl = schedule::SimulateSchedule(*sched, sc.costs);
  ExpectRuns(PlanCommunication(MakeInputs(*sched, tl, sc)));
}

TEST(CommPlannerTest, WaitImmediatelyPrecedesConsumer) {
  const Scenario sc = MakeScenario(3, 5, 3);
  const PipelineSchedule sched = schedule::OneFOneBSchedule(5, 3);
  const auto tl = schedule::SimulateSchedule(sched, sc.costs);
  const sim::ExecutionPlan plan = PlanCommunication(MakeInputs(sched, tl, sc));
  // On every non-first device, each ForwardPass must be directly preceded by its
  // WaitRecvAct (late placement, Fig. 12).
  for (int32_t j = 1; j < 3; ++j) {
    const auto& instrs = plan.devices[static_cast<size_t>(j)].instructions;
    for (size_t k = 0; k < instrs.size(); ++k) {
      if (instrs[k].type == sim::InstrType::kForwardPass) {
        ASSERT_GT(k, 0u);
        EXPECT_EQ(instrs[k - 1].type, sim::InstrType::kWaitRecvAct);
        EXPECT_EQ(instrs[k - 1].microbatch, instrs[k].microbatch);
      }
    }
  }
}

TEST(CommPlannerTest, BoundaryBytesEmbedded) {
  const Scenario sc = MakeScenario(2, 3, 4);
  const PipelineSchedule sched = schedule::OneFOneBSchedule(3, 2);
  const auto tl = schedule::SimulateSchedule(sched, sc.costs);
  const sim::ExecutionPlan plan = PlanCommunication(MakeInputs(sched, tl, sc));
  for (const auto& dev : plan.devices) {
    for (const auto& in : dev.instructions) {
      if (sim::IsCommStart(in.type)) {
        const int64_t expected =
            static_cast<int64_t>(
                sc.shapes[static_cast<size_t>(in.microbatch)].padded_tokens()) *
            128;
        EXPECT_EQ(in.bytes, expected);
      }
    }
  }
}

// ---------- End-to-end execution on the cluster simulator ----------

class PlannerExecutes : public ::testing::TestWithParam<int> {};

TEST_P(PlannerExecutes, AdaptiveScheduleRunsDeadlockFree) {
  dynapipe::Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  const int32_t c = static_cast<int32_t>(rng.NextInt(2, 6));
  const int32_t m = static_cast<int32_t>(rng.NextInt(2, 16));
  const Scenario sc = MakeScenario(c, m, rng.NextU64());
  const auto sched = schedule::MemoryAwareAdaptiveSchedule(sc.costs);
  ASSERT_TRUE(sched.has_value());
  const auto tl = schedule::SimulateSchedule(*sched, sc.costs);
  const sim::SimResult res = Execute(PlanCommunication(MakeInputs(*sched, tl, sc)));
  EXPECT_FALSE(res.refused) << res.diagnostic;
  EXPECT_FALSE(res.deadlocked) << res.diagnostic;
  EXPECT_GT(res.makespan_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, PlannerExecutes, ::testing::Range(0, 25));

TEST(CommPlannerTest, ReorderedInjectionStillDeadlockFree) {
  const Scenario sc = MakeScenario(4, 12, 9);
  schedule::AdaptiveScheduleOptions opts;
  opts.injection_order = {11, 3, 7, 0, 5, 9, 1, 10, 2, 8, 4, 6};
  const auto sched = schedule::MemoryAwareAdaptiveSchedule(sc.costs, opts);
  ASSERT_TRUE(sched.has_value());
  const auto tl = schedule::SimulateSchedule(*sched, sc.costs);
  ExpectRuns(PlanCommunication(MakeInputs(*sched, tl, sc)));
}

// ---------- Naive baseline ----------

TEST(NaivePlanTest, FusedNaiveWorksForUniform1F1B) {
  // Uniform micro-batches, 1F1B, fused crossing pairs: the Megatron status quo.
  Scenario sc = MakeScenario(4, 8, 5);
  // Make all micro-batches identical (uniform).
  for (auto& shape : sc.shapes) {
    shape = {2, 512, 0};
  }
  for (int32_t j = 0; j < 4; ++j) {
    for (int32_t i = 0; i < 8; ++i) {
      sc.costs.fwd_ms[static_cast<size_t>(j)][static_cast<size_t>(i)] = 1.0;
      sc.costs.bwd_ms[static_cast<size_t>(j)][static_cast<size_t>(i)] = 2.0;
      sc.costs.act_mb[static_cast<size_t>(j)][static_cast<size_t>(i)] = 1.0;
    }
  }
  const PipelineSchedule sched = schedule::OneFOneBSchedule(8, 4);
  const auto tl = schedule::SimulateSchedule(sched, sc.costs);
  ExpectRuns(PlanCommunicationNaive(MakeInputs(sched, tl, sc)));
}

TEST(NaivePlanTest, NaiveDeadlocksUnderAdaptiveSchedule) {
  // The paper's §2.3 deadlock. The fixed fused primitives that rescue uniform 1F1B
  // (send_forward_recv_backward and friends) do not exist for dynamic schedules —
  // the executor launches comm ops sequentially — so the naive plan runs unfused
  // and its send-at-production / recv-at-use orders mismatch across devices.
  const Scenario sc = MakeScenario(4, 12, 6);
  const auto sched = schedule::MemoryAwareAdaptiveSchedule(sc.costs);
  ASSERT_TRUE(sched.has_value());
  const auto tl = schedule::SimulateSchedule(*sched, sc.costs);
  NaivePlanOptions no_fusion;
  no_fusion.fuse_adjacent_pairs = false;
  // Well-formed, so admitted: the deadlock is the channel order's alone.
  const sim::SimResult res =
      Execute(PlanCommunicationNaive(MakeInputs(*sched, tl, sc), no_fusion));
  EXPECT_FALSE(res.refused) << res.diagnostic;
  EXPECT_TRUE(res.deadlocked);
}

TEST(NaivePlanTest, OpportunisticPairFusionRescuesWaveAlignedSchedules) {
  // Observation (see DESIGN.md): because the cyclic scheduler advances in waves
  // with backward-before-forward cycles, naive crossings land adjacent, and
  // hypothetical opportunistic pair fusion would resolve them. Real executors
  // cannot do this (sequential launches); DynaPipe's planner removes the need.
  const Scenario sc = MakeScenario(4, 12, 6);
  const auto sched = schedule::MemoryAwareAdaptiveSchedule(sc.costs);
  ASSERT_TRUE(sched.has_value());
  const auto tl = schedule::SimulateSchedule(*sched, sc.costs);
  ExpectRuns(PlanCommunicationNaive(MakeInputs(*sched, tl, sc)));
}

TEST(NaivePlanTest, UnfusedNaiveDeadlocksEvenFor1F1B) {
  // Without fused crossing pairs, strict per-pair ordering stalls 1F1B too — this
  // is why real systems batch those sends/recvs.
  Scenario sc = MakeScenario(2, 4, 7);
  const PipelineSchedule sched = schedule::OneFOneBSchedule(4, 2);
  const auto tl = schedule::SimulateSchedule(sched, sc.costs);
  NaivePlanOptions opts;
  opts.fuse_adjacent_pairs = false;
  const sim::SimResult res =
      Execute(PlanCommunicationNaive(MakeInputs(sched, tl, sc), opts));
  EXPECT_FALSE(res.refused) << res.diagnostic;
  EXPECT_TRUE(res.deadlocked);
}

}  // namespace
}  // namespace dynapipe::comm
