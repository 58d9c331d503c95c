#include "src/cost/pipeline_cost_model.h"

#include <algorithm>
#include <vector>

#include "src/common/check.h"

namespace dynapipe::cost {
namespace {

// Interpolated times are clamped at a microsecond: edge extrapolation on the
// profiled grid can undershoot for tiny shapes, and the planner must never see
// a non-positive duration. Activations are clamped at 0.
constexpr double kMinMs = 0.001;

constexpr model::RecomputeMode kModes[] = {model::RecomputeMode::kNone,
                                           model::RecomputeMode::kSelective,
                                           model::RecomputeMode::kFull};

std::vector<double> PowerOfTwoGrid(int32_t lo, int32_t hi) {
  std::vector<double> grid;
  for (int64_t v = lo; v <= hi; v *= 2) {
    grid.push_back(static_cast<double>(v));
  }
  DYNAPIPE_CHECK(grid.size() >= 2);
  return grid;
}

}  // namespace

PipelineCostModel PipelineCostModel::Profile(const model::ModelConfig& config,
                                             const model::HardwareSpec& hw,
                                             const model::ParallelConfig& parallel,
                                             const ProfileOptions& options) {
  DYNAPIPE_CHECK(options.max_microbatch_size >= 2);
  DYNAPIPE_CHECK(options.min_seq_len >= 1);
  DYNAPIPE_CHECK(options.max_seq_len > options.min_seq_len);
  PipelineCostModel pcm;
  pcm.config_ = config;
  pcm.hw_ = hw;
  pcm.parallel_ = parallel;
  pcm.truth_ = model::BuildStageModels(config, hw, parallel.pp, parallel.tp);

  const std::vector<double> mbs_grid = PowerOfTwoGrid(1, options.max_microbatch_size);
  const std::vector<double> input_grid =
      PowerOfTwoGrid(options.min_seq_len, options.max_seq_len);
  const std::vector<double> target_grid =
      config.arch == model::ModelArch::kT5
          ? PowerOfTwoGrid(options.min_seq_len, options.max_seq_len)
          : std::vector<double>{0.0};

  // The ground truth is sampled only at the grid vertices, exactly like
  // profiling real kernels, straight into each vertex's lanes.
  const size_t c = pcm.truth_.size();
  const size_t lanes = kNumTables * c;
  std::vector<double> floors(lanes, kMinMs);
  for (const auto mode : kModes) {
    std::fill_n(floors.begin() + static_cast<std::ptrdiff_t>(ActTable(mode) * c), c, 0.0);
  }
  std::vector<double> values(
      mbs_grid.size() * input_grid.size() * target_grid.size() * lanes);
  double* vertex = values.data();
  for (const double b : mbs_grid) {
    for (const double s : input_grid) {
      for (const double t : target_grid) {
        model::MicroBatchShape shape;
        shape.num_samples = static_cast<int32_t>(b);
        shape.input_len = static_cast<int32_t>(s);
        shape.target_len = static_cast<int32_t>(t);
        for (size_t st = 0; st < c; ++st) {
          const model::StagePerfModel& truth = pcm.truth_[st];
          vertex[FwdTable() * c + st] = truth.FwdMs(shape);
          for (const auto mode : kModes) {
            vertex[BwdTable(mode) * c + st] = truth.BwdMs(shape, mode);
            vertex[ActTable(mode) * c + st] = truth.ActivationMb(shape, mode);
          }
        }
        vertex += lanes;
      }
    }
  }
  pcm.packed_ = PackedGrids(GridInterp3D(mbs_grid, input_grid, target_grid),
                            std::move(floors), std::move(values));
  return pcm;
}

double PipelineCostModel::StageLane(size_t table, int32_t s,
                                    const model::MicroBatchShape& shape) const {
  DYNAPIPE_CHECK(s >= 0 && s < num_stages());
  double value;
  packed_.At(packed_.axes().Locate(shape.num_samples, shape.input_len, shape.target_len),
             table * truth_.size() + static_cast<size_t>(s), 1, &value);
  return value;
}

double PipelineCostModel::StageFwdMs(int32_t s,
                                     const model::MicroBatchShape& shape) const {
  return StageLane(FwdTable(), s, shape);
}

double PipelineCostModel::StageBwdMs(int32_t s, const model::MicroBatchShape& shape,
                                     model::RecomputeMode mode) const {
  return StageLane(BwdTable(mode), s, shape);
}

double PipelineCostModel::StageActivationMb(int32_t s,
                                            const model::MicroBatchShape& shape,
                                            model::RecomputeMode mode) const {
  return StageLane(ActTable(mode), s, shape);
}

void PipelineCostModel::StageCosts(const model::MicroBatchShape& shape,
                                   model::RecomputeMode mode, double* fwd_ms,
                                   double* bwd_ms, double* act_mb) const {
  const size_t c = truth_.size();
  const GridInterp3D::Cell cell =
      packed_.axes().Locate(shape.num_samples, shape.input_len, shape.target_len);
  packed_.At(cell, FwdTable() * c, c, fwd_ms);
  packed_.At(cell, BwdTable(mode) * c, c, bwd_ms);
  packed_.At(cell, ActTable(mode) * c, c, act_mb);
}

double PipelineCostModel::MicroBatchTimeMs(const model::MicroBatchShape& shape,
                                           model::RecomputeMode mode) const {
  double time_ms = 0.0;
  double act_mb = 0.0;
  WindowCosts(shape, mode, /*limit=*/0.0, &time_ms, &act_mb);
  return time_ms;
}

double PipelineCostModel::MaxActivationMb(const model::MicroBatchShape& shape,
                                          model::RecomputeMode mode) const {
  double act_mb = 0.0;
  WindowCosts(shape, mode, /*limit=*/0.0, /*time_ms=*/nullptr, &act_mb);
  return act_mb;
}

bool PipelineCostModel::WindowCosts(const model::MicroBatchShape& shape,
                                    model::RecomputeMode mode, double limit,
                                    double* time_ms, double* act_mb) const {
  RowWalk walk(*this, {&mode, 1}, /*activation=*/true);
  walk.Seek(shape);
  return walk.WindowCosts(mode, limit, time_ms, act_mb);
}

double* PipelineCostModel::RowWalk::LaneScratch(size_t lanes) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < lanes) {
    scratch.resize(lanes);
  }
  return scratch.data();
}

bool PipelineCostModel::RowWalk::WindowCosts(model::RecomputeMode mode, double limit,
                                             double* time_ms, double* act_mb) const {
  const double* act = ActivationMb(mode);
  double worst_act = 0.0;
  for (size_t s = 0; s < stages_; ++s) {
    worst_act = std::max(worst_act, act[s]);
  }
  *act_mb = worst_act;
  if (limit > 0.0 && worst_act > limit) {
    return false;
  }
  if (time_ms != nullptr) {
    const double* fwd = FwdMs();
    const double* bwd = BwdMs(mode);
    double worst = 0.0;
    for (size_t s = 0; s < stages_; ++s) {
      worst = std::max(worst, fwd[s] + bwd[s]);
    }
    *time_ms = worst;
  }
  return true;
}

double PipelineCostModel::StaticMemoryMb(int32_t s) const {
  DYNAPIPE_CHECK(s >= 0 && s < num_stages());
  return truth_[static_cast<size_t>(s)].StaticMemoryMb(parallel_.dp);
}

double PipelineCostModel::ActivationBudgetMb() const {
  double worst_static = 0.0;
  for (int32_t s = 0; s < num_stages(); ++s) {
    worst_static = std::max(worst_static, StaticMemoryMb(s));
  }
  return hw_.usable_memory_mb() - worst_static;
}

int64_t PipelineCostModel::BoundaryBytes(int32_t s,
                                         const model::MicroBatchShape& shape) const {
  DYNAPIPE_CHECK(s >= 0 && s < num_stages());
  return static_cast<int64_t>(
      truth_[static_cast<size_t>(s)].OutputActivationBytes(shape));
}

double PipelineCostModel::TransferMs(int32_t from_stage, int32_t to_stage,
                                     int64_t bytes) const {
  return model::P2pTransferMs(hw_, parallel_.tp, from_stage, to_stage, bytes);
}

double PipelineCostModel::DpGradSyncMs() const {
  double worst = 0.0;
  for (const auto& stage_truth : truth_) {
    worst = std::max(worst, model::DpGradSyncMs(config_, hw_, stage_truth.layout(),
                                                parallel_.tp, parallel_.dp));
  }
  return worst;
}

}  // namespace dynapipe::cost
