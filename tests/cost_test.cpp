// Unit tests for src/cost: grid interpolation and the profiled cost models,
// including the honesty property (exact at grid points, bounded error between),
// the one-lookup WindowCosts probe, and profile (de)serialization.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cost/grid_interp.h"
#include "src/cost/pipeline_cost_model.h"
#include "src/cost/stage_cost_model.h"
#include "src/model/hardware_spec.h"
#include "src/model/model_config.h"
#include "src/model/stage_perf_model.h"

namespace dynapipe::cost {
namespace {

using model::MicroBatchShape;
using model::RecomputeMode;

// ---------- GridInterp3D ----------

TEST(GridInterp3DTest, ExactAtGridPoints) {
  GridInterp3D g({1.0, 2.0}, {10.0, 20.0}, {0.0, 5.0},
                 {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
  EXPECT_DOUBLE_EQ(g(1, 10, 0), 1.0);
  EXPECT_DOUBLE_EQ(g(2, 20, 5), 8.0);
  EXPECT_DOUBLE_EQ(g(1, 20, 0), 3.0);
}

TEST(GridInterp3DTest, TrilinearFunctionReproducedExactly) {
  auto f = [](double x, double y, double z) {
    return 1.0 + 2.0 * x + 3.0 * y + 4.0 * z + 5.0 * x * y + 6.0 * y * z +
           7.0 * x * z + 8.0 * x * y * z;
  };
  std::vector<double> xs{0.0, 1.0, 2.0};
  std::vector<double> ys{0.0, 3.0};
  std::vector<double> zs{1.0, 4.0, 9.0};
  std::vector<double> v;
  for (const double x : xs) {
    for (const double y : ys) {
      for (const double z : zs) {
        v.push_back(f(x, y, z));
      }
    }
  }
  GridInterp3D g(xs, ys, zs, v);
  EXPECT_NEAR(g(0.5, 1.5, 2.0), f(0.5, 1.5, 2.0), 1e-9);
  EXPECT_NEAR(g(1.9, 0.1, 8.0), f(1.9, 0.1, 8.0), 1e-9);
}

TEST(GridInterp3DTest, DegenerateAxesBehaveAsConstant) {
  GridInterp3D g({1.0, 2.0}, {5.0}, {0.0}, {10.0, 20.0});
  EXPECT_DOUBLE_EQ(g(1.5, 999.0, -5.0), 15.0);
}

TEST(GridInterp3DTest, ExtrapolatesBeyondEdges) {
  GridInterp3D g({0.0, 1.0}, {0.0}, {0.0}, {0.0, 10.0});
  EXPECT_DOUBLE_EQ(g(2.0, 0.0, 0.0), 20.0);
}

TEST(GridInterp3DTest, FlatLookupBitEqualsNestedReference) {
  // The flat table must reproduce the nested [i][j][k] trilinear formula bit
  // for bit, including the clamped edge cells that extrapolation reads.
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0};
  const std::vector<double> ys{32.0, 64.0, 128.0};
  const std::vector<double> zs{32.0, 64.0};
  auto value = [&](size_t i, size_t j, size_t k) {
    return 0.37 * static_cast<double>(i * i + 1) + 1.1 * static_cast<double>(j) +
           0.013 * static_cast<double>((k + 1) * (i + j + 3));
  };
  std::vector<double> flat;
  for (size_t i = 0; i < xs.size(); ++i) {
    for (size_t j = 0; j < ys.size(); ++j) {
      for (size_t k = 0; k < zs.size(); ++k) {
        flat.push_back(value(i, j, k));
      }
    }
  }
  const GridInterp3D g(xs, ys, zs, flat);
  auto locate = [](const std::vector<double>& axis, double v, size_t& k, double& t) {
    k = 0;
    while (k + 2 < axis.size() && v >= axis[k + 1]) {
      ++k;
    }
    t = (v - axis[k]) / (axis[k + 1] - axis[k]);
  };
  auto lerp = [](double a, double b, double t) { return a + t * (b - a); };
  for (const double x : {0.5, 1.0, 3.0, 8.0, 11.0}) {
    for (const double y : {1.0, 32.0, 100.0, 128.0, 300.0}) {
      for (const double z : {0.0, 40.0, 64.0, 99.0}) {
        size_t i, j, k;
        double tx, ty, tz;
        locate(xs, x, i, tx);
        locate(ys, y, j, ty);
        locate(zs, z, k, tz);
        const double c00 = lerp(value(i, j, k), value(i + 1, j, k), tx);
        const double c01 = lerp(value(i, j, k + 1), value(i + 1, j, k + 1), tx);
        const double c10 = lerp(value(i, j + 1, k), value(i + 1, j + 1, k), tx);
        const double c11 =
            lerp(value(i, j + 1, k + 1), value(i + 1, j + 1, k + 1), tx);
        const double want = lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz);
        EXPECT_EQ(g(x, y, z), want) << x << " " << y << " " << z;
      }
    }
  }
}

// ---------- StageCostModel ----------

class StageCostModelTest : public ::testing::Test {
 protected:
  StageCostModelTest()
      : config_(model::ModelConfig::Gpt3_35B()),
        layouts_(model::PartitionStages(config_, 2)),
        truth_(config_, hw_, layouts_[0], 1) {
    options_.max_microbatch_size = 32;
    options_.min_seq_len = 32;
    options_.max_seq_len = 8192;
    options_.profile_target_axis = false;
    cm_ = StageCostModel::Profile(truth_, options_);
  }

  model::ModelConfig config_;
  model::HardwareSpec hw_;
  std::vector<model::StageLayout> layouts_;
  model::StagePerfModel truth_;
  ProfileOptions options_;
  StageCostModel cm_;
};

TEST_F(StageCostModelTest, ExactAtProfiledGridPoints) {
  for (int32_t b : {1, 2, 8, 32}) {
    for (int32_t s : {32, 256, 2048, 8192}) {
      MicroBatchShape shape{b, s, 0};
      EXPECT_NEAR(cm_.FwdMs(shape), truth_.FwdMs(shape), 1e-9)
          << "b=" << b << " s=" << s;
      EXPECT_NEAR(cm_.BwdMs(shape, RecomputeMode::kNone),
                  truth_.BwdMs(shape, RecomputeMode::kNone), 1e-9);
      EXPECT_NEAR(cm_.ActivationMb(shape, RecomputeMode::kNone),
                  truth_.ActivationMb(shape, RecomputeMode::kNone), 1e-6);
    }
  }
}

TEST_F(StageCostModelTest, InterpolationErrorBoundedOffGrid) {
  // Off-grid queries carry interpolation error but should stay within ~20% — the
  // regime that makes Fig. 18 meaningful.
  for (int32_t b : {3, 5, 12, 24}) {
    for (int32_t s : {100, 300, 1000, 3000, 6000}) {
      MicroBatchShape shape{b, s, 0};
      const double est = cm_.FwdMs(shape);
      const double act = truth_.FwdMs(shape);
      EXPECT_NEAR(est / act, 1.0, 0.2) << "b=" << b << " s=" << s;
    }
  }
}

TEST_F(StageCostModelTest, MonotoneInMicroBatchSize) {
  for (int32_t s : {128, 512, 2048}) {
    double prev = 0.0;
    for (int32_t b = 1; b <= 32; b *= 2) {
      const double t = cm_.FwdMs({b, s, 0});
      EXPECT_GT(t, prev);
      prev = t;
    }
  }
}

TEST_F(StageCostModelTest, MonotoneInSequenceLength) {
  double prev = 0.0;
  for (int32_t s = 32; s <= 8192; s *= 2) {
    const double t = cm_.FwdMs({4, s, 0});
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST_F(StageCostModelTest, RecomputeOrderingSurvivesProfiling) {
  MicroBatchShape shape{4, 1024, 0};
  EXPECT_LT(cm_.BwdMs(shape, RecomputeMode::kNone),
            cm_.BwdMs(shape, RecomputeMode::kSelective));
  EXPECT_LT(cm_.BwdMs(shape, RecomputeMode::kSelective),
            cm_.BwdMs(shape, RecomputeMode::kFull));
  EXPECT_GT(cm_.ActivationMb(shape, RecomputeMode::kNone),
            cm_.ActivationMb(shape, RecomputeMode::kFull));
}

TEST_F(StageCostModelTest, AlwaysPositive) {
  // Extrapolation below the profiled grid must never return non-positive times.
  EXPECT_GT(cm_.FwdMs({1, 1, 0}), 0.0);
  EXPECT_GE(cm_.ActivationMb({1, 1, 0}, RecomputeMode::kFull), 0.0);
}

// ---------- PipelineCostModel ----------

class PipelineCostModelTest : public ::testing::Test {
 protected:
  PipelineCostModelTest() : config_(model::ModelConfig::T5_11B()) {
    parallel_ = {2, 1, 4};  // dp2 tp1 pp4 = 8 GPUs
    options_.max_microbatch_size = 16;
    options_.max_seq_len = 4096;
    pcm_ = PipelineCostModel::Profile(config_, hw_, parallel_, options_);
  }

  model::ModelConfig config_;
  model::HardwareSpec hw_;
  model::ParallelConfig parallel_;
  ProfileOptions options_;
  PipelineCostModel pcm_;
};

TEST_F(PipelineCostModelTest, HasOneCostModelPerStage) {
  EXPECT_EQ(pcm_.num_stages(), 4);
}

TEST_F(PipelineCostModelTest, MicroBatchTimeIsBottleneckStage) {
  MicroBatchShape shape{4, 512, 128};
  double worst = 0.0;
  for (int32_t s = 0; s < 4; ++s) {
    worst = std::max(worst, pcm_.StageFwdMs(s, shape) +
                                pcm_.StageBwdMs(s, shape, RecomputeMode::kNone));
  }
  EXPECT_DOUBLE_EQ(pcm_.MicroBatchTimeMs(shape, RecomputeMode::kNone), worst);
}

TEST_F(PipelineCostModelTest, ActivationBudgetPositiveForThisModel) {
  // T5-11B over 4 stages with ZeRO-1(dp=2) fits A100-40GB with room to spare.
  EXPECT_GT(pcm_.ActivationBudgetMb(), 1000.0);
}

TEST_F(PipelineCostModelTest, StaticMemoryAccountsZero1Sharding) {
  model::ParallelConfig dp1{1, 1, 4};
  PipelineCostModel pcm_dp1 =
      PipelineCostModel::Profile(config_, hw_, dp1, options_);
  EXPECT_GT(pcm_dp1.StaticMemoryMb(0), pcm_.StaticMemoryMb(0));
}

TEST_F(PipelineCostModelTest, BoundaryBytesMatchShapeMath) {
  MicroBatchShape shape{2, 512, 128};
  // Stage 0 of T5 pp4 is pure encoder: b*s_enc*h*2 bytes.
  EXPECT_EQ(pcm_.BoundaryBytes(0, shape),
            static_cast<int64_t>(2 * 512 * 1024 * 2));
  // Stage 2 is decoder-side: carries decoder + encoder streams.
  EXPECT_EQ(pcm_.BoundaryBytes(2, shape),
            static_cast<int64_t>(2 * (512 + 128) * 1024 * 2));
}

TEST_F(PipelineCostModelTest, TransferTimeIncreasesWithBytes) {
  const double small = pcm_.TransferMs(0, 1, 1'000'000);
  const double large = pcm_.TransferMs(0, 1, 100'000'000);
  EXPECT_GT(large, small);
}

TEST_F(PipelineCostModelTest, InterNodeBoundarySlower) {
  // With tp=4 on 8-GPU nodes, stage 1 -> 2 crosses the node boundary.
  model::ParallelConfig tp4{1, 4, 2};
  PipelineCostModel pcm = PipelineCostModel::Profile(config_, hw_, tp4, options_);
  const int64_t bytes = 50'000'000;
  EXPECT_GT(pcm.TransferMs(1, 2, bytes), pcm_.TransferMs(0, 1, bytes));
}

TEST_F(PipelineCostModelTest, DpGradSyncPositiveOnlyWithReplicas) {
  EXPECT_GT(pcm_.DpGradSyncMs(), 0.0);
  model::ParallelConfig dp1{1, 1, 4};
  PipelineCostModel pcm_dp1 =
      PipelineCostModel::Profile(config_, hw_, dp1, options_);
  EXPECT_DOUBLE_EQ(pcm_dp1.DpGradSyncMs(), 0.0);
}

TEST_F(PipelineCostModelTest, GptProfileSkipsTargetAxis) {
  // GPT shapes carry target_len = 0; the cost model must handle them.
  model::ModelConfig gpt = model::ModelConfig::Gpt3_35B();
  model::ParallelConfig par{1, 1, 2};
  PipelineCostModel pcm = PipelineCostModel::Profile(gpt, hw_, par, options_);
  EXPECT_GT(pcm.MicroBatchTimeMs({4, 512, 0}, RecomputeMode::kNone), 0.0);
}

// ---------- WindowCosts: the DP's one-lookup probe ----------

ProfileOptions FullProfile() {
  ProfileOptions opts;
  opts.max_microbatch_size = 128;
  opts.min_seq_len = 32;
  opts.max_seq_len = 16'384;
  return opts;
}

// WindowCosts must equal the per-stage accessors bit for bit on every shape
// the DP can ask about: on the grid, between grid points, and beyond both
// ends of every axis (edge extrapolation reads the clamped edge cells).
void ExpectWindowCostsMatchStages(const PipelineCostModel& pcm,
                                  const std::vector<int32_t>& targets) {
  for (const auto mode :
       {RecomputeMode::kNone, RecomputeMode::kSelective, RecomputeMode::kFull}) {
    for (const int32_t b : {1, 3, 64, 100, 128, 129, 1000}) {
      for (const int32_t s : {1, 16, 31, 32, 100, 1024, 5000, 16'384, 16'385, 40'000}) {
        for (const int32_t t : targets) {
          const MicroBatchShape shape{b, s, t};
          double want_time = 0.0;
          double want_act = 0.0;
          for (int32_t st = 0; st < pcm.num_stages(); ++st) {
            want_time = std::max(want_time, pcm.StageFwdMs(st, shape) +
                                                pcm.StageBwdMs(st, shape, mode));
            want_act = std::max(want_act, pcm.StageActivationMb(st, shape, mode));
          }
          double time_ms = -1.0;
          double act_mb = -1.0;
          ASSERT_TRUE(pcm.WindowCosts(shape, mode, 0.0, &time_ms, &act_mb));
          EXPECT_EQ(time_ms, want_time) << shape.ToString();
          EXPECT_EQ(act_mb, want_act) << shape.ToString();
          EXPECT_EQ(pcm.MicroBatchTimeMs(shape, mode), want_time);
          EXPECT_EQ(pcm.MaxActivationMb(shape, mode), want_act);
        }
      }
    }
  }
}

TEST(WindowCostsTest, T5BitEqualsPerStageMaxOnAndOffGrid) {
  const PipelineCostModel pcm = PipelineCostModel::Profile(
      model::ModelConfig::T5_5_5B(), model::HardwareSpec{}, {1, 2, 2}, FullProfile());
  ExpectWindowCostsMatchStages(pcm, {0, 1, 31, 32, 77, 512, 16'384, 30'000});
}

TEST(WindowCostsTest, GptSinglePointTargetAxisBitEqualsPerStageMax) {
  const PipelineCostModel pcm = PipelineCostModel::Profile(
      model::ModelConfig::Gpt3_35B(), model::HardwareSpec{}, {3, 1, 4}, FullProfile());
  // The target axis has one point, so any target length reads the same plane.
  ExpectWindowCostsMatchStages(pcm, {0, 5});
}

TEST(WindowCostsTest, OverLimitReturnsFalseAndLeavesTimeUntouched) {
  const PipelineCostModel pcm = PipelineCostModel::Profile(
      model::ModelConfig::T5_5_5B(), model::HardwareSpec{}, {1, 2, 2}, FullProfile());
  const MicroBatchShape shape{8, 2048, 512};
  const auto mode = RecomputeMode::kNone;
  const double act = pcm.MaxActivationMb(shape, mode);
  ASSERT_GT(act, 0.0);
  double time_ms = 12345.0;
  double act_mb = -1.0;
  EXPECT_FALSE(pcm.WindowCosts(shape, mode, act / 2.0, &time_ms, &act_mb));
  EXPECT_EQ(time_ms, 12345.0);
  EXPECT_EQ(act_mb, act);
  // At the limit exactly the window still fits.
  EXPECT_TRUE(pcm.WindowCosts(shape, mode, act, &time_ms, &act_mb));
  EXPECT_EQ(time_ms, pcm.MicroBatchTimeMs(shape, mode));
}

}  // namespace
}  // namespace dynapipe::cost

// ---------- Serialization ----------

namespace dynapipe::cost {
namespace {

TEST(SerializationTest, GridRoundTripsExactly) {
  std::vector<double> values;
  for (int ij = 0; ij < 3 * 2; ++ij) {
    values.insert(values.end(), {1.5, 2.25, 3.125});
  }
  GridInterp3D g({1.0, 2.0, 4.0}, {10.0, 20.0}, {0.0, 5.0, 9.0}, values);
  std::stringstream ss;
  g.Save(ss);
  const GridInterp3D loaded = GridInterp3D::Load(ss);
  for (double x : {1.0, 1.7, 3.9, 8.0}) {
    for (double y : {10.0, 13.0, 25.0}) {
      for (double z : {0.0, 4.4, 9.0}) {
        EXPECT_DOUBLE_EQ(loaded(x, y, z), g(x, y, z));
      }
    }
  }
}

TEST(SerializationTest, PipelineProfileRoundTrips) {
  const model::ModelConfig config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  const model::ParallelConfig parallel{1, 1, 2};
  ProfileOptions opts;
  opts.max_microbatch_size = 8;
  opts.max_seq_len = 1024;
  const PipelineCostModel original =
      PipelineCostModel::Profile(config, hw, parallel, opts);
  std::stringstream ss;
  original.SaveProfile(ss);
  const PipelineCostModel loaded =
      PipelineCostModel::LoadProfile(config, hw, parallel, ss);
  for (int32_t b : {1, 3, 8}) {
    for (int32_t s : {64, 300, 1024}) {
      model::MicroBatchShape shape{b, s, 0};
      EXPECT_DOUBLE_EQ(loaded.MicroBatchTimeMs(shape, model::RecomputeMode::kNone),
                       original.MicroBatchTimeMs(shape, model::RecomputeMode::kNone));
      EXPECT_DOUBLE_EQ(
          loaded.MaxActivationMb(shape, model::RecomputeMode::kSelective),
          original.MaxActivationMb(shape, model::RecomputeMode::kSelective));
    }
  }
  // Exact-math parts are rebuilt, not serialized.
  EXPECT_DOUBLE_EQ(loaded.StaticMemoryMb(0), original.StaticMemoryMb(0));
  EXPECT_EQ(loaded.BoundaryBytes(0, {2, 512, 0}),
            original.BoundaryBytes(0, {2, 512, 0}));
}

// Profiles are outside input, and WindowCosts reads every table of every
// stage through one cell located on stage 0's first table: a file whose
// tables or stages disagree on the grid axes must be rejected on load.
std::vector<std::string> ProfileLines(int32_t max_microbatch_size) {
  ProfileOptions opts;
  opts.max_microbatch_size = max_microbatch_size;
  opts.max_seq_len = 1024;
  const PipelineCostModel pcm = PipelineCostModel::Profile(
      model::ModelConfig::Gpt3_35B(), model::HardwareSpec{}, {1, 1, 2}, opts);
  std::stringstream ss;
  pcm.SaveProfile(ss);
  std::vector<std::string> lines;
  for (std::string line; std::getline(ss, line);) {
    lines.push_back(line);
  }
  // Header, then 2 stages x 7 tables x (3 axis lines + 1 value line).
  EXPECT_EQ(lines.size(), 1u + 2 * 7 * 4);
  return lines;
}

void ExpectLoadRejects(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) {
    text += line + "\n";
  }
  EXPECT_DEATH(
      {
        std::stringstream ss(text);
        PipelineCostModel::LoadProfile(model::ModelConfig::Gpt3_35B(),
                                       model::HardwareSpec{}, {1, 1, 2}, ss);
      },
      "disagree on grid axes");
}

TEST(SerializationDeathTest, LoadRejectsTablesWithDifferentAxes) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<std::string> a = ProfileLines(8);
  const std::vector<std::string> b = ProfileLines(4);
  // Stage 1's third table (a backward table) comes from a coarser profile.
  std::vector<std::string> spliced = a;
  const size_t table = 1 + 7 * 4 + 2 * 4;
  for (size_t l = table; l < table + 4; ++l) {
    spliced[l] = b[l];
  }
  ExpectLoadRejects(spliced);
}

TEST(SerializationDeathTest, LoadRejectsStagesWithDifferentAxes) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<std::string> a = ProfileLines(8);
  const std::vector<std::string> b = ProfileLines(4);
  // Stage 1 is internally consistent but profiled on a coarser grid.
  std::vector<std::string> spliced = a;
  for (size_t l = 1 + 7 * 4; l < spliced.size(); ++l) {
    spliced[l] = b[l];
  }
  ExpectLoadRejects(spliced);
}

}  // namespace
}  // namespace dynapipe::cost
