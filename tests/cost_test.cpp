// Unit tests for src/cost: grid interpolation through the packed grid and the
// profiled cost model, including the honesty property (exact at every grid
// vertex, bounded error between), the grid cursor against Locate, and the
// one-lookup WindowCosts and StageCosts reads against the per-stage accessors.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/cost/grid_interp.h"
#include "src/cost/pipeline_cost_model.h"
#include "src/model/hardware_spec.h"
#include "src/model/model_config.h"
#include "src/model/stage_perf_model.h"

namespace dynapipe::cost {
namespace {

using model::MicroBatchShape;
using model::RecomputeMode;

// ---------- GridInterp3D, read through a one-lane packed grid ----------

// One table as an unfloored one-lane PackedGrids: the interpolation cases
// below read through PackedGrids::At, the cost model's only interpolation read.
class OneLane {
 public:
  OneLane(std::vector<double> xs, std::vector<double> ys, std::vector<double> zs,
          std::vector<double> values)
      : packed_(GridInterp3D(std::move(xs), std::move(ys), std::move(zs)),
                {-std::numeric_limits<double>::infinity()}, std::move(values)) {}
  double operator()(double x, double y, double z) const {
    double value;
    packed_.At(packed_.axes().Locate(x, y, z), 0, 1, &value);
    return value;
  }

 private:
  PackedGrids packed_;
};

TEST(GridInterp3DTest, ExactAtGridPoints) {
  OneLane g({1.0, 2.0}, {10.0, 20.0}, {0.0, 5.0}, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
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
  OneLane g(xs, ys, zs, v);
  EXPECT_NEAR(g(0.5, 1.5, 2.0), f(0.5, 1.5, 2.0), 1e-9);
  EXPECT_NEAR(g(1.9, 0.1, 8.0), f(1.9, 0.1, 8.0), 1e-9);
}

TEST(GridInterp3DTest, DegenerateAxesBehaveAsConstant) {
  OneLane g({1.0, 2.0}, {5.0}, {0.0}, {10.0, 20.0});
  EXPECT_DOUBLE_EQ(g(1.5, 999.0, -5.0), 15.0);
}

TEST(GridInterp3DTest, ExtrapolatesBeyondEdges) {
  OneLane g({0.0, 1.0}, {0.0}, {0.0}, {0.0, 10.0});
  EXPECT_DOUBLE_EQ(g(2.0, 0.0, 0.0), 20.0);
}

TEST(GridInterp3DTest, FlatLookupBitEqualsNestedReference) {
  // The packed lane must reproduce the nested [i][j][k] trilinear formula bit
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
  const OneLane g(xs, ys, zs, flat);
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

TEST(PackedGridsTest, LanesReadIndependentlyAndClampAtTheirFloors) {
  // Three lanes over one 2x2x1 grid, vertex-major. Reading any lane range
  // gives each lane's own interpolation, clamped to that lane's floor.
  const std::vector<double> xs{0.0, 1.0};
  const std::vector<double> ys{0.0, 2.0};
  const std::vector<double> values{1.0, -4.0, 7.0,    // (0, 0)
                                   3.0, -2.0, 9.0,    // (0, 2)
                                   5.0, -8.0, 11.0,   // (1, 0)
                                   7.0, -6.0, 13.0};  // (1, 2)
  const PackedGrids packed(GridInterp3D(xs, ys, {0.0}), {0.0, -1.0, 20.0}, values);
  const GridInterp3D::Cell cell = packed.axes().Locate(0.5, 1.0, 0.0);
  double all[3];
  packed.At(cell, 0, 3, all);
  EXPECT_EQ(all[0], 4.0);
  EXPECT_EQ(all[1], -1.0);  // interpolates to -5.0
  EXPECT_EQ(all[2], 20.0);  // interpolates to 10.0
  for (size_t l = 0; l < 3; ++l) {
    double one;
    packed.At(cell, l, 1, &one);
    EXPECT_EQ(one, all[l]) << "lane " << l;
  }
  // Below the grid on x: lane 0 extrapolates to 1 - 3 * 4 = -11 and is
  // floored; lane 1 extrapolates to -4 - 3 * -4 = 8.
  double low[2];
  packed.At(packed.axes().Locate(-3.0, 0.0, 0.0), 0, 2, low);
  EXPECT_EQ(low[0], 0.0);
  EXPECT_EQ(low[1], 8.0);
}

// ---------- Profile honesty: PipelineCostModel's per-stage accessors ----------

constexpr RecomputeMode kAllModes[] = {RecomputeMode::kNone, RecomputeMode::kSelective,
                                       RecomputeMode::kFull};

std::vector<int32_t> PowerOfTwoPoints(int32_t lo, int32_t hi) {
  std::vector<int32_t> points;
  for (int32_t v = lo; v <= hi; v *= 2) {
    points.push_back(v);
  }
  return points;
}

class ProfileHonestyTest : public ::testing::Test {
 protected:
  ProfileHonestyTest()
      : config_(model::ModelConfig::Gpt3_35B()),
        truth_(model::BuildStageModels(config_, hw_, parallel_.pp, parallel_.tp)) {
    options_.max_microbatch_size = 32;
    options_.min_seq_len = 32;
    options_.max_seq_len = 8192;
    cm_ = PipelineCostModel::Profile(config_, hw_, parallel_, options_);
  }

  model::ModelConfig config_;
  model::HardwareSpec hw_;
  model::ParallelConfig parallel_{1, 1, 2};
  std::vector<model::StagePerfModel> truth_;
  ProfileOptions options_;
  PipelineCostModel cm_;
};

TEST_F(ProfileHonestyTest, ExactAtProfiledGridPoints) {
  for (int32_t st = 0; st < cm_.num_stages(); ++st) {
    const model::StagePerfModel& truth = truth_[static_cast<size_t>(st)];
    for (int32_t b : {1, 2, 8, 32}) {
      for (int32_t s : {32, 256, 2048, 8192}) {
        MicroBatchShape shape{b, s, 0};
        EXPECT_NEAR(cm_.StageFwdMs(st, shape), truth.FwdMs(shape), 1e-9)
            << "stage " << st << " b=" << b << " s=" << s;
        EXPECT_NEAR(cm_.StageBwdMs(st, shape, RecomputeMode::kNone),
                    truth.BwdMs(shape, RecomputeMode::kNone), 1e-9);
        EXPECT_NEAR(cm_.StageActivationMb(st, shape, RecomputeMode::kNone),
                    truth.ActivationMb(shape, RecomputeMode::kNone), 1e-6);
      }
    }
  }
}

TEST_F(ProfileHonestyTest, InterpolationErrorBoundedOffGrid) {
  // Off-grid queries carry interpolation error but should stay within ~20% — the
  // regime that makes Fig. 18 meaningful.
  for (int32_t st = 0; st < cm_.num_stages(); ++st) {
    for (int32_t b : {3, 5, 12, 24}) {
      for (int32_t s : {100, 300, 1000, 3000, 6000}) {
        MicroBatchShape shape{b, s, 0};
        const double est = cm_.StageFwdMs(st, shape);
        const double act = truth_[static_cast<size_t>(st)].FwdMs(shape);
        EXPECT_NEAR(est / act, 1.0, 0.2) << "stage " << st << " b=" << b << " s=" << s;
      }
    }
  }
}

TEST_F(ProfileHonestyTest, MonotoneInMicroBatchSize) {
  for (int32_t st = 0; st < cm_.num_stages(); ++st) {
    for (int32_t s : {128, 512, 2048}) {
      double prev = 0.0;
      for (int32_t b = 1; b <= 32; b *= 2) {
        const double t = cm_.StageFwdMs(st, {b, s, 0});
        EXPECT_GT(t, prev) << "stage " << st;
        prev = t;
      }
    }
  }
}

TEST_F(ProfileHonestyTest, MonotoneInSequenceLength) {
  for (int32_t st = 0; st < cm_.num_stages(); ++st) {
    double prev = 0.0;
    for (int32_t s = 32; s <= 8192; s *= 2) {
      const double t = cm_.StageFwdMs(st, {4, s, 0});
      EXPECT_GT(t, prev) << "stage " << st;
      prev = t;
    }
  }
}

TEST_F(ProfileHonestyTest, RecomputeOrderingSurvivesProfiling) {
  MicroBatchShape shape{4, 1024, 0};
  for (int32_t st = 0; st < cm_.num_stages(); ++st) {
    EXPECT_LT(cm_.StageBwdMs(st, shape, RecomputeMode::kNone),
              cm_.StageBwdMs(st, shape, RecomputeMode::kSelective));
    EXPECT_LT(cm_.StageBwdMs(st, shape, RecomputeMode::kSelective),
              cm_.StageBwdMs(st, shape, RecomputeMode::kFull));
    EXPECT_GT(cm_.StageActivationMb(st, shape, RecomputeMode::kNone),
              cm_.StageActivationMb(st, shape, RecomputeMode::kFull));
  }
}

TEST_F(ProfileHonestyTest, AlwaysPositive) {
  // Extrapolation below the profiled grid must never return non-positive times.
  for (int32_t st = 0; st < cm_.num_stages(); ++st) {
    EXPECT_GT(cm_.StageFwdMs(st, {1, 1, 0}), 0.0);
    for (const auto mode : kAllModes) {
      EXPECT_GT(cm_.StageBwdMs(st, {1, 1, 0}, mode), 0.0);
      EXPECT_GE(cm_.StageActivationMb(st, {1, 1, 0}, mode), 0.0);
    }
  }
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

TEST_F(PipelineCostModelTest, ExactAtEveryGridVertexOnEveryStage) {
  // Every table of every stage reads back the ground truth it sampled at each
  // power-of-two vertex. The last vertex of an axis sits at the far end of an
  // edge cell (a + 1 * (b - a)), so compare to within a few ulps.
  const std::vector<model::StagePerfModel> truth =
      model::BuildStageModels(config_, hw_, parallel_.pp, parallel_.tp);
  const std::vector<int32_t> lens = PowerOfTwoPoints(options_.min_seq_len,
                                                     options_.max_seq_len);
  int64_t checked = 0;
  for (const int32_t b : PowerOfTwoPoints(1, options_.max_microbatch_size)) {
    for (const int32_t s : lens) {
      for (const int32_t t : lens) {
        const MicroBatchShape shape{b, s, t};
        for (int32_t st = 0; st < pcm_.num_stages(); ++st) {
          SCOPED_TRACE(testing::Message() << "stage " << st << " " << shape.ToString());
          const model::StagePerfModel& want = truth[static_cast<size_t>(st)];
          EXPECT_DOUBLE_EQ(pcm_.StageFwdMs(st, shape), want.FwdMs(shape));
          for (const auto mode : kAllModes) {
            EXPECT_DOUBLE_EQ(pcm_.StageBwdMs(st, shape, mode), want.BwdMs(shape, mode));
            EXPECT_DOUBLE_EQ(pcm_.StageActivationMb(st, shape, mode),
                             want.ActivationMb(shape, mode));
          }
          checked += 7;
        }
      }
    }
  }
  EXPECT_EQ(checked, 5 * 8 * 8 * 4 * 7);
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

// WindowCosts and StageCosts must equal the per-stage accessors bit for bit
// on every shape the DP or the scheduler can ask about: on the grid, between
// grid points, and beyond both ends of every axis (edge extrapolation reads
// the clamped edge cells).
void ExpectWindowCostsMatchStages(const PipelineCostModel& pcm,
                                  const std::vector<int32_t>& targets) {
  for (const auto mode : kAllModes) {
    for (const int32_t b : {1, 3, 64, 100, 128, 129, 1000}) {
      for (const int32_t s : {1, 16, 31, 32, 100, 1024, 5000, 16'384, 16'385, 40'000}) {
        for (const int32_t t : targets) {
          const MicroBatchShape shape{b, s, t};
          const size_t c = static_cast<size_t>(pcm.num_stages());
          std::vector<double> fwd(c);
          std::vector<double> bwd(c);
          std::vector<double> act(c);
          pcm.StageCosts(shape, mode, fwd.data(), bwd.data(), act.data());
          double want_time = 0.0;
          double want_act = 0.0;
          for (int32_t st = 0; st < pcm.num_stages(); ++st) {
            const size_t sst = static_cast<size_t>(st);
            EXPECT_EQ(fwd[sst], pcm.StageFwdMs(st, shape)) << shape.ToString();
            EXPECT_EQ(bwd[sst], pcm.StageBwdMs(st, shape, mode)) << shape.ToString();
            EXPECT_EQ(act[sst], pcm.StageActivationMb(st, shape, mode))
                << shape.ToString();
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

// ---------- GridInterp3D::Cursor: Locate without the searches ----------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameCell(const GridInterp3D::Cell& got, const GridInterp3D::Cell& want) {
  EXPECT_EQ(got.base, want.base);
  EXPECT_EQ(got.di, want.di);
  EXPECT_EQ(got.dj, want.dj);
  EXPECT_EQ(got.dk, want.dk);
  EXPECT_EQ(Bits(got.tx), Bits(want.tx));
  EXPECT_EQ(Bits(got.ty), Bits(want.ty));
  EXPECT_EQ(Bits(got.tz), Bits(want.tz));
}

// Walks `grid` along seeded nondecreasing paths through the candidate
// coordinates of each axis — each step keeps an axis or moves it to a later
// candidate, repeats included — and checks every step's cursor cell against
// Locate bit for bit.
void ExpectCursorMatchesLocate(const GridInterp3D& grid, const std::vector<double>& xs,
                               const std::vector<double>& ys,
                               const std::vector<double>& zs) {
  Rng rng(17);
  auto advance = [&](const std::vector<double>& axis, size_t& at) {
    const uint64_t roll = rng.NextBelow(4);
    if (roll == 0 && at + 1 < axis.size()) {
      at += 1 + rng.NextBelow(axis.size() - at - 1);  // jump ahead
    } else if (roll == 1 && at + 1 < axis.size()) {
      ++at;
    }
  };
  for (int walk = 0; walk < 300; ++walk) {
    size_t i = rng.NextBelow(xs.size());
    size_t j = rng.NextBelow(ys.size());
    size_t k = rng.NextBelow(zs.size());
    GridInterp3D::Cursor cursor(grid);
    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE(testing::Message() << "walk " << walk << " at (" << xs[i] << ", "
                                      << ys[j] << ", " << zs[k] << ")");
      ExpectSameCell(cursor.Advance(xs[i], ys[j], zs[k]),
                     grid.Locate(xs[i], ys[j], zs[k]));
      advance(xs, i);
      advance(ys, j);
      advance(zs, k);
    }
  }
}

// The axes PipelineCostModel::Profile lays over FullProfile(): T5 profiles
// the target axis like the input axis, GPT pins it to the single point 0.
GridInterp3D FullProfileAxes(bool target_axis) {
  auto pow2 = [](int32_t lo, int32_t hi) {
    std::vector<double> axis;
    for (const int32_t v : PowerOfTwoPoints(lo, hi)) {
      axis.push_back(v);
    }
    return axis;
  };
  return GridInterp3D(pow2(1, 128), pow2(32, 16'384),
                      target_axis ? pow2(32, 16'384) : std::vector<double>{0.0});
}

TEST(GridCursorTest, T5GridMatchesLocateOnNondecreasingWalks) {
  // On grid points, between them, below the first point and past the last.
  const std::vector<double> sizes{0, 1, 2, 3, 4, 5, 7, 8, 64, 100, 127, 128, 129, 1000};
  std::vector<double> lens;
  for (int v = 0; v < 32; ++v) {
    lens.push_back(v);
  }
  for (const double v : {32, 33, 63, 64, 100, 1024, 5000, 16'383, 16'384, 16'385,
                         40'000}) {
    lens.push_back(v);
  }
  ExpectCursorMatchesLocate(FullProfileAxes(true), sizes, lens, lens);
}

TEST(GridCursorTest, GptSinglePointTargetAxisMatchesLocate) {
  ExpectCursorMatchesLocate(FullProfileAxes(false), {1, 2, 3, 64, 128, 129, 1000},
                            {1, 31, 32, 100, 16'384, 16'385, 40'000}, {0, 5, 7});
}

TEST(GridCursorDeathTest, MovingBackwardsAborts) {
  const GridInterp3D grid({1.0, 2.0, 4.0}, {32.0, 64.0}, {0.0});
  GridInterp3D::Cursor cursor(grid);
  cursor.Advance(2.0, 64.0, 0.0);
  EXPECT_DEATH(cursor.Advance(2.0, 32.0, 0.0), "backwards");
}

}  // namespace
}  // namespace dynapipe::cost
