// Unit tests for src/sim: channels (NCCL matching + fusion), memory tracking,
// noise, and the cluster simulator including deadlock and OOM detection and the
// refusal of malformed plans.
#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/sim/channel.h"
#include "src/sim/cluster_sim.h"
#include "src/sim/instruction.h"
#include "src/sim/memory_tracker.h"
#include "src/sim/noise.h"
#include "src/sim/trace.h"

namespace dynapipe::sim {
namespace {

// ---------- Channel ----------

struct TransferLog {
  int64_t send_handle;
  int64_t recv_handle;
  double start;
  double end;
};

class ChannelFixture : public ::testing::Test {
 protected:
  void Match(Channel& ch, double dur = 1.0) {
    ch.TryMatch([dur](int64_t) { return dur; },
                [&](int64_t sh, int64_t rh, double st, double en, int64_t) {
                  log_.push_back({sh, rh, st, en});
                });
  }
  std::vector<TransferLog> log_;
};

CommOp MakeOp(bool is_send, uint64_t tag, double post, int64_t handle) {
  CommOp op;
  op.is_send = is_send;
  op.tag = tag;
  op.bytes = 100;
  op.post_time_ms = post;
  op.handle = handle;
  return op;
}

TEST_F(ChannelFixture, SimplePairMatches) {
  Channel ch(0, 1);
  ch.PostGroup(0, {MakeOp(true, 5, 2.0, 10)});
  ch.PostGroup(1, {MakeOp(false, 5, 3.0, 20)});
  Match(ch);
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].send_handle, 10);
  EXPECT_EQ(log_[0].recv_handle, 20);
  EXPECT_DOUBLE_EQ(log_[0].start, 3.0);  // waits for the later post
  EXPECT_DOUBLE_EQ(log_[0].end, 4.0);
  EXPECT_FALSE(ch.HasPendingOps());
}

TEST_F(ChannelFixture, TransfersSerializePerPair) {
  Channel ch(0, 1);
  ch.PostGroup(0, {MakeOp(true, 1, 0.0, 1)});
  ch.PostGroup(0, {MakeOp(true, 2, 0.0, 2)});
  ch.PostGroup(1, {MakeOp(false, 1, 0.0, 3)});
  ch.PostGroup(1, {MakeOp(false, 2, 0.0, 4)});
  Match(ch, 5.0);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_DOUBLE_EQ(log_[0].end, 5.0);
  EXPECT_DOUBLE_EQ(log_[1].start, 5.0);  // second waits for channel
  EXPECT_DOUBLE_EQ(log_[1].end, 10.0);
}

TEST_F(ChannelFixture, OutOfOrderTagsStall) {
  Channel ch(0, 1);
  ch.PostGroup(0, {MakeOp(true, 1, 0.0, 1)});
  ch.PostGroup(0, {MakeOp(true, 2, 0.0, 2)});
  ch.PostGroup(1, {MakeOp(false, 2, 0.0, 3)});  // wrong order
  ch.PostGroup(1, {MakeOp(false, 1, 0.0, 4)});
  Match(ch);
  EXPECT_TRUE(log_.empty());  // heads are send(1) vs recv(2): never matches
  EXPECT_TRUE(ch.HasPendingOps());
}

TEST_F(ChannelFixture, BothHeadsSendStall) {
  Channel ch(0, 1);
  ch.PostGroup(0, {MakeOp(true, 1, 0.0, 1)});
  ch.PostGroup(1, {MakeOp(true, 2, 0.0, 2)});
  Match(ch);
  EXPECT_TRUE(log_.empty());
}

TEST_F(ChannelFixture, FusedGroupResolvesCrossingPair) {
  // The 1F1B crossing: dev0 issues {send A1, recv G0} fused; dev1 issues
  // {send G0, recv A1} fused. Without fusion this would be send/send heads.
  Channel ch(0, 1);
  ch.PostGroup(0, {MakeOp(true, 10, 0.0, 1), MakeOp(false, 21, 0.0, 2)});
  ch.PostGroup(1, {MakeOp(true, 21, 0.0, 3), MakeOp(false, 10, 0.0, 4)});
  Match(ch);
  EXPECT_EQ(log_.size(), 2u);
  EXPECT_FALSE(ch.HasPendingOps());
}

TEST_F(ChannelFixture, FusedGroupInteroperatesWithSequentialSide) {
  Channel ch(0, 1);
  ch.PostGroup(0, {MakeOp(true, 1, 0.0, 1), MakeOp(false, 2, 0.0, 2)});
  ch.PostGroup(1, {MakeOp(false, 1, 0.0, 3)});
  ch.PostGroup(1, {MakeOp(true, 2, 0.0, 4)});
  Match(ch);
  EXPECT_EQ(log_.size(), 2u);
  EXPECT_FALSE(ch.HasPendingOps());
}

TEST_F(ChannelFixture, DescribeHeadsMentionsPendingTag) {
  Channel ch(2, 5);
  ch.PostGroup(2, {MakeOp(true, 7, 0.0, 1)});
  const std::string desc = ch.DescribeHeads();
  EXPECT_NE(desc.find("tag=7"), std::string::npos);
  EXPECT_NE(desc.find("send"), std::string::npos);
}

// ---------- MemoryTracker ----------

TEST(MemoryTrackerTest, TracksPeakAndCurrent) {
  MemoryTracker mt(100.0, 0.0);
  mt.Allocate(1, 50.0);
  mt.Allocate(2, 30.0);
  EXPECT_DOUBLE_EQ(mt.current_mb(), 180.0);
  mt.Free(1);
  EXPECT_DOUBLE_EQ(mt.current_mb(), 130.0);
  EXPECT_DOUBLE_EQ(mt.peak_mb(), 180.0);
  EXPECT_EQ(mt.live_allocations(), 1);
}

TEST(MemoryTrackerTest, OomDetected) {
  MemoryTracker mt(0.0, 100.0);
  EXPECT_TRUE(mt.Allocate(1, 60.0));
  EXPECT_FALSE(mt.Allocate(2, 60.0));
  EXPECT_TRUE(mt.oom());
  EXPECT_NE(mt.DescribeOom().find("OOM"), std::string::npos);
}

TEST(MemoryTrackerTest, NoLimitNeverOoms) {
  MemoryTracker mt(0.0, 0.0);
  EXPECT_TRUE(mt.Allocate(1, 1e9));
  EXPECT_FALSE(mt.oom());
}

TEST(MemoryTrackerTest, BaseAboveLimitIsImmediateOom) {
  MemoryTracker mt(200.0, 100.0);
  EXPECT_TRUE(mt.oom());
}

// ---------- NoiseModel ----------

TEST(NoiseModelTest, ZeroSigmaIsIdentity) {
  NoiseModel nm(0.0, 1);
  EXPECT_DOUBLE_EQ(nm.Apply(42.0), 42.0);
}

TEST(NoiseModelTest, MeanApproximatelyPreserved) {
  NoiseModel nm(0.1, 7);
  RunningStats s;
  for (int i = 0; i < 50'000; ++i) {
    s.Add(nm.Apply(100.0));
  }
  EXPECT_NEAR(s.mean(), 100.0, 1.0);
  EXPECT_NEAR(s.stddev(), 10.0, 1.0);
}

TEST(NoiseModelTest, AlwaysPositive) {
  NoiseModel nm(3.0, 9);  // huge sigma
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GT(nm.Apply(1.0), 0.0);
  }
}

// ---------- Instruction helpers ----------

TEST(InstructionTest, Classification) {
  EXPECT_TRUE(IsCompute(InstrType::kForwardPass));
  EXPECT_TRUE(IsCommStart(InstrType::kSendActStart));
  EXPECT_TRUE(IsCommWait(InstrType::kWaitRecvGrad));
  EXPECT_TRUE(IsSend(InstrType::kSendGradStart));
  EXPECT_FALSE(IsSend(InstrType::kRecvActStart));
  EXPECT_EQ(WaitFor(InstrType::kRecvActStart), InstrType::kWaitRecvAct);
}

// ---------- ClusterSim ----------

// Fixed-cost ground truth for hand-computable scenarios.
class FixedGroundTruth : public GroundTruth {
 public:
  FixedGroundTruth(double fwd_ms, double bwd_ms, double act_mb, double xfer_ms)
      : fwd_ms_(fwd_ms), bwd_ms_(bwd_ms), act_mb_(act_mb), xfer_ms_(xfer_ms) {}

  double ComputeMs(int32_t, const Instruction& instr) override {
    return instr.type == InstrType::kForwardPass ? fwd_ms_ : bwd_ms_;
  }
  double ActivationMb(int32_t, const Instruction&) override { return act_mb_; }
  double TransferMs(int32_t, int32_t, int64_t) override { return xfer_ms_; }

 private:
  double fwd_ms_;
  double bwd_ms_;
  double act_mb_;
  double xfer_ms_;
};

Instruction Compute(InstrType type, int32_t mb) {
  Instruction in;
  in.type = type;
  in.microbatch = mb;
  in.shape = {1, 128, 0};
  return in;
}

Instruction Comm(InstrType type, int32_t mb, int32_t peer) {
  Instruction in;
  in.type = type;
  in.microbatch = mb;
  in.peer = peer;
  in.bytes = 1000;
  return in;
}

// Two devices, m micro-batches: device 0 runs every forward and sends each
// activation; device 1 receives and runs every forward, then each backward and
// its gradient send; device 0 receives each gradient and runs the backward.
// With m = 1: F on 0, send act, F+B on 1, send grad, B on 0.
ExecutionPlan TwoStagePlan(int32_t m) {
  ExecutionPlan plan;
  plan.num_microbatches = m;
  plan.devices.resize(2);
  plan.devices[0].device = 0;
  plan.devices[1].device = 1;
  auto& dev0 = plan.devices[0].instructions;
  auto& dev1 = plan.devices[1].instructions;
  for (int32_t i = 0; i < m; ++i) {
    dev0.push_back(Compute(InstrType::kForwardPass, i));
    dev0.push_back(Comm(InstrType::kSendActStart, i, 1));
    dev1.push_back(Comm(InstrType::kRecvActStart, i, 0));
    dev1.push_back(Comm(InstrType::kWaitRecvAct, i, 0));
    dev1.push_back(Compute(InstrType::kForwardPass, i));
  }
  for (int32_t i = 0; i < m; ++i) {
    dev0.push_back(Comm(InstrType::kRecvGradStart, i, 1));
    dev0.push_back(Comm(InstrType::kWaitRecvGrad, i, 1));
    dev0.push_back(Compute(InstrType::kBackwardPass, i));
    dev1.push_back(Compute(InstrType::kBackwardPass, i));
    dev1.push_back(Comm(InstrType::kSendGradStart, i, 0));
  }
  return plan;
}

TEST(ClusterSimTest, TwoStageMakespanHandComputed) {
  FixedGroundTruth gt(10.0, 20.0, 5.0, 1.0);
  ClusterSim sim(2, &gt);
  const SimResult res = sim.Run(TwoStagePlan(1));
  ASSERT_FALSE(res.deadlocked) << res.diagnostic;
  // dev0: F ends 10; transfer 10->11; dev1 F 11..21, B 21..41; grad 41..42;
  // dev0 B 42..62.
  EXPECT_DOUBLE_EQ(res.makespan_ms, 62.0);
  EXPECT_DOUBLE_EQ(res.devices[0].busy_ms, 30.0);
  EXPECT_DOUBLE_EQ(res.devices[1].busy_ms, 30.0);
}

TEST(ClusterSimTest, PeakMemoryCountsInFlightActivations) {
  FixedGroundTruth gt(10.0, 20.0, 5.0, 1.0);
  ClusterSimOptions opts;
  opts.static_memory_mb = {100.0, 200.0};
  ClusterSim sim(2, &gt, opts);
  const SimResult res = sim.Run(TwoStagePlan(1));
  EXPECT_DOUBLE_EQ(res.devices[0].peak_memory_mb, 105.0);
  EXPECT_DOUBLE_EQ(res.devices[1].peak_memory_mb, 205.0);
}

TEST(ClusterSimTest, OomDetectedAgainstLimit) {
  FixedGroundTruth gt(10.0, 20.0, 50.0, 1.0);
  ClusterSimOptions opts;
  opts.static_memory_mb = {100.0, 100.0};
  opts.memory_limit_mb = 120.0;
  ClusterSim sim(2, &gt, opts);
  const SimResult res = sim.Run(TwoStagePlan(1));
  EXPECT_TRUE(res.oom);
  EXPECT_NE(res.diagnostic.find("OOM"), std::string::npos);
}

TEST(ClusterSimTest, MismatchedCommOrderDeadlocks) {
  // Both devices try to *send* to each other first with unmatched tags.
  ExecutionPlan plan;
  plan.num_microbatches = 2;
  plan.devices.resize(2);
  plan.devices[0].device = 0;
  plan.devices[0].instructions = {
      Compute(InstrType::kForwardPass, 0),
      Comm(InstrType::kSendActStart, 0, 1),
      Comm(InstrType::kSendActStart, 1, 1),  // posted before the recv dev1 wants
      Comm(InstrType::kRecvGradStart, 0, 1),
      Comm(InstrType::kWaitRecvGrad, 0, 1),
      Compute(InstrType::kBackwardPass, 0),
      Compute(InstrType::kForwardPass, 1),
      Comm(InstrType::kRecvGradStart, 1, 1),
      Comm(InstrType::kWaitRecvGrad, 1, 1),
      Compute(InstrType::kBackwardPass, 1),
  };
  plan.devices[1].device = 1;
  plan.devices[1].instructions = {
      Comm(InstrType::kRecvActStart, 0, 0),
      Comm(InstrType::kWaitRecvAct, 0, 0),
      Compute(InstrType::kForwardPass, 0),
      Compute(InstrType::kBackwardPass, 0),
      Comm(InstrType::kSendGradStart, 0, 0),  // dev0's head is SendAct(1): stuck
      Comm(InstrType::kRecvActStart, 1, 0),
      Comm(InstrType::kWaitRecvAct, 1, 0),
      Compute(InstrType::kForwardPass, 1),
      Compute(InstrType::kBackwardPass, 1),
      Comm(InstrType::kSendGradStart, 1, 0),
  };
  FixedGroundTruth gt(1.0, 2.0, 0.0, 0.1);
  ClusterSim sim(2, &gt);
  const SimResult res = sim.Run(plan);
  EXPECT_FALSE(res.refused) << res.diagnostic;
  EXPECT_TRUE(res.deadlocked);
  EXPECT_NE(res.diagnostic.find("deadlock"), std::string::npos);
}

TEST(ClusterSimTest, FusedCrossingPairDoesNotDeadlock) {
  // Same crossing as above but dev0 fuses {SendAct(1), RecvGrad(0)} and dev1 fuses
  // {SendGrad(0), RecvAct(1)} — the 1F1B pattern.
  ExecutionPlan plan;
  plan.num_microbatches = 2;
  plan.devices.resize(2);
  auto fused = [](Instruction in, int32_t group) {
    in.fusion_group = group;
    return in;
  };
  plan.devices[0].device = 0;
  plan.devices[0].instructions = {
      Compute(InstrType::kForwardPass, 0),
      Comm(InstrType::kSendActStart, 0, 1),
      Compute(InstrType::kForwardPass, 1),
      fused(Comm(InstrType::kSendActStart, 1, 1), 0),
      fused(Comm(InstrType::kRecvGradStart, 0, 1), 0),
      Comm(InstrType::kWaitRecvGrad, 0, 1),
      Compute(InstrType::kBackwardPass, 0),
      Comm(InstrType::kRecvGradStart, 1, 1),
      Comm(InstrType::kWaitRecvGrad, 1, 1),
      Compute(InstrType::kBackwardPass, 1),
  };
  plan.devices[1].device = 1;
  plan.devices[1].instructions = {
      Comm(InstrType::kRecvActStart, 0, 0),
      Comm(InstrType::kWaitRecvAct, 0, 0),
      Compute(InstrType::kForwardPass, 0),
      Compute(InstrType::kBackwardPass, 0),
      fused(Comm(InstrType::kSendGradStart, 0, 0), 1),
      fused(Comm(InstrType::kRecvActStart, 1, 0), 1),
      Comm(InstrType::kWaitRecvAct, 1, 0),
      Compute(InstrType::kForwardPass, 1),
      Compute(InstrType::kBackwardPass, 1),
      Comm(InstrType::kSendGradStart, 1, 0),
  };
  FixedGroundTruth gt(1.0, 2.0, 0.0, 0.1);
  ClusterSim sim(2, &gt);
  const SimResult res = sim.Run(plan);
  EXPECT_FALSE(res.deadlocked) << res.diagnostic;
  EXPECT_FALSE(res.oom);
  EXPECT_GT(res.makespan_ms, 0.0);
}

TEST(ClusterSimTest, SingleDeviceNoComm) {
  ExecutionPlan plan;
  plan.num_microbatches = 2;
  plan.devices.resize(1);
  plan.devices[0].device = 0;
  plan.devices[0].instructions = {
      Compute(InstrType::kForwardPass, 0), Compute(InstrType::kBackwardPass, 0),
      Compute(InstrType::kForwardPass, 1), Compute(InstrType::kBackwardPass, 1)};
  FixedGroundTruth gt(3.0, 6.0, 1.0, 0.0);
  ClusterSim sim(1, &gt);
  const SimResult res = sim.Run(plan);
  EXPECT_FALSE(res.deadlocked);
  EXPECT_DOUBLE_EQ(res.makespan_ms, 18.0);
  EXPECT_DOUBLE_EQ(res.MeanIdleFraction(), 0.0);
}

TEST(ClusterSimTest, IdleFractionReflectsBubbles) {
  FixedGroundTruth gt(10.0, 20.0, 5.0, 1.0);
  ClusterSim sim(2, &gt);
  const SimResult res = sim.Run(TwoStagePlan(1));
  // Each device busy 30 of 62 ms.
  EXPECT_NEAR(res.MeanIdleFraction(), 1.0 - 30.0 / 62.0, 1e-9);
}

// ---------- ClusterSim refusals ----------

// Runs `plan` on `devices` simulated devices and expects a refusal naming
// `reason`: no deadlock, no OOM, no abort.
void ExpectRefused(const ExecutionPlan& plan, const std::string& reason,
                   int32_t devices = 2) {
  FixedGroundTruth gt(1.0, 2.0, 1.0, 0.1);
  ClusterSim sim(devices, &gt);
  const SimResult res = sim.Run(plan);
  EXPECT_TRUE(res.refused) << plan.ToString();
  EXPECT_FALSE(res.deadlocked);
  EXPECT_FALSE(res.oom);
  EXPECT_NE(res.diagnostic.find(reason), std::string::npos) << res.diagnostic;
}

TEST(ClusterSimTest, RefusesWaitWithNoStart) {
  ExecutionPlan plan = TwoStagePlan(1);
  auto& dev1 = plan.devices[1].instructions;
  ASSERT_EQ(dev1.front().type, InstrType::kRecvActStart);
  dev1.erase(dev1.begin());
  ExpectRefused(plan, "Wait with no Start");
}

TEST(ClusterSimTest, RefusesOrderMismatchLeftOnTheChannel) {
  // Two sends against two receives in the opposite order, with no Waits, after
  // a well-formed two-micro-batch plan: both devices finish and the channel
  // heads never match.
  ExecutionPlan plan = TwoStagePlan(2);
  auto& dev0 = plan.devices[0].instructions;
  auto& dev1 = plan.devices[1].instructions;
  dev1.push_back(Comm(InstrType::kSendActStart, 0, 0));
  dev1.push_back(Comm(InstrType::kSendActStart, 1, 0));
  dev0.push_back(Comm(InstrType::kRecvActStart, 1, 1));
  dev0.push_back(Comm(InstrType::kRecvActStart, 0, 1));
  ExpectRefused(plan, "unmatched ops once every device finished");
  // The same ops posted in matching order drain, and the plan runs.
  std::swap(dev0[dev0.size() - 2], dev0.back());
  FixedGroundTruth gt(1.0, 2.0, 1.0, 0.1);
  ClusterSim sim(2, &gt);
  const SimResult res = sim.Run(plan);
  EXPECT_FALSE(res.refused) << res.diagnostic;
  EXPECT_FALSE(res.deadlocked) << res.diagnostic;
}

TEST(ClusterSimTest, RefusesForwardWithoutItsWaitRecvAct) {
  ExecutionPlan plan = TwoStagePlan(1);
  auto& dev1 = plan.devices[1].instructions;
  ASSERT_EQ(dev1[1].type, InstrType::kWaitRecvAct);
  dev1.erase(dev1.begin() + 1);
  ExpectRefused(plan, "forward before its WaitRecvAct");
}

TEST(ClusterSimTest, RefusesAPlanThatSkipsAMicroBatch) {
  ExecutionPlan plan = TwoStagePlan(1);
  plan.num_microbatches = 2;
  ExpectRefused(plan, "micro-batch 1 never ran its forward and backward");
}

TEST(ClusterSimTest, RefusesSendRecvSizeMismatch) {
  ExecutionPlan plan = TwoStagePlan(1);
  plan.devices[1].instructions[0].bytes = 999;  // its send carries 1000
  ExpectRefused(plan, "send/recv size mismatch");
}

// Every other entry rule, one fault each on the two-stage plan.
TEST(ClusterSimTest, RefusesEachEntryRuleWithItsReason) {
  struct Case {
    const char* reason;
    std::function<void(ExecutionPlan&)> fault;
  };
  const std::vector<Case> cases = {
      {"negative micro-batch count", [](ExecutionPlan& p) { p.num_microbatches = -1; }},
      {"micro-batch out of range",
       [](ExecutionPlan& p) { p.devices[0].instructions[0].microbatch = 5; }},
      {"peer out of range",
       [](ExecutionPlan& p) { p.devices[0].instructions[1].peer = 7; }},
      {"the device itself",
       [](ExecutionPlan& p) { p.devices[0].instructions[1].peer = 0; }},
      {"second forward",
       [](ExecutionPlan& p) {
         auto& dev0 = p.devices[0].instructions;
         dev0.insert(dev0.begin() + 1, dev0[0]);
       }},
      {"backward not after exactly one forward",
       [](ExecutionPlan& p) {
         auto& dev1 = p.devices[1].instructions;
         std::swap(dev1[2], dev1[3]);
       }},
      {"backward before its WaitRecvGrad",
       [](ExecutionPlan& p) {
         auto& dev0 = p.devices[0].instructions;
         dev0.erase(dev0.begin() + 3);
       }},
      {"negative shape or byte count",
       [](ExecutionPlan& p) { p.devices[0].instructions[0].shape.input_len = -1; }},
      {"negative shape or byte count",
       [](ExecutionPlan& p) {
         p.devices[0].instructions[1].bytes = -5;
         p.devices[1].instructions[0].bytes = -5;
       }},
      {"unmatched ops once every device finished",
       [](ExecutionPlan& p) {
         p.devices[0].instructions.push_back(Comm(InstrType::kSendGradStart, 0, 1));
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.reason);
    ExecutionPlan plan = TwoStagePlan(1);
    c.fault(plan);
    ExpectRefused(plan, c.reason);
  }
  ExpectRefused(TwoStagePlan(1), "plan has 2 devices, the simulator 3", 3);
  ExpectRefused(ExecutionPlan{}, "plan has no devices", 0);
}

// ---------- Trace recording ----------

TEST(TraceTest, RecordsComputeAndTransferSpans) {
  FixedGroundTruth gt(10.0, 20.0, 5.0, 1.0);
  TraceRecorder trace;
  ClusterSimOptions opts;
  opts.trace = &trace;
  ClusterSim sim(2, &gt, opts);
  const SimResult res = sim.Run(TwoStagePlan(1));
  ASSERT_FALSE(res.deadlocked);
  // 4 compute ops + 2 transfers.
  EXPECT_EQ(trace.spans().size(), 6u);
  bool saw_fwd = false;
  bool saw_transfer = false;
  for (const auto& span : trace.spans()) {
    EXPECT_GE(span.end_ms, span.start_ms);
    saw_fwd = saw_fwd || span.name == "F0";
    saw_transfer = saw_transfer || span.track >= 1000;
  }
  EXPECT_TRUE(saw_fwd);
  EXPECT_TRUE(saw_transfer);
}

TEST(TraceTest, ChromeTraceJsonStructure) {
  TraceRecorder trace;
  trace.AddSpan("F0", 0, 1.0, 2.0);
  trace.AddSpan("act mb0 0->1", 1001, 2.0, 2.5);
  const std::string json = trace.ToChromeTrace();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"F0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);  // ms -> us
  EXPECT_NE(json.find("device 0"), std::string::npos);
  EXPECT_NE(json.find("channel 1"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(TraceTest, SpansCoverBusyTimeExactly) {
  FixedGroundTruth gt(10.0, 20.0, 5.0, 1.0);
  TraceRecorder trace;
  ClusterSimOptions opts;
  opts.trace = &trace;
  ClusterSim sim(2, &gt, opts);
  const SimResult res = sim.Run(TwoStagePlan(1));
  double device0_span_ms = 0.0;
  for (const auto& span : trace.spans()) {
    if (span.track == 0) {
      device0_span_ms += span.end_ms - span.start_ms;
    }
  }
  EXPECT_DOUBLE_EQ(device0_span_ms, res.devices[0].busy_ms);
}

}  // namespace
}  // namespace dynapipe::sim
