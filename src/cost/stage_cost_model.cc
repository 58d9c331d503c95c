#include "src/cost/stage_cost_model.h"

#include <algorithm>
#include <vector>

#include "src/common/check.h"

namespace dynapipe::cost {
namespace {

std::vector<double> PowerOfTwoGrid(int32_t lo, int32_t hi) {
  std::vector<double> grid;
  for (int64_t v = lo; v <= hi; v *= 2) {
    grid.push_back(static_cast<double>(v));
  }
  DYNAPIPE_CHECK(grid.size() >= 2);
  return grid;
}

constexpr model::RecomputeMode kModes[] = {model::RecomputeMode::kNone,
                                           model::RecomputeMode::kSelective,
                                           model::RecomputeMode::kFull};

}  // namespace

size_t StageCostModel::ModeIndex(model::RecomputeMode mode) {
  return static_cast<size_t>(mode);
}

StageCostModel StageCostModel::Profile(const model::StagePerfModel& truth,
                                       const ProfileOptions& options) {
  DYNAPIPE_CHECK(options.max_microbatch_size >= 2);
  DYNAPIPE_CHECK(options.min_seq_len >= 1);
  DYNAPIPE_CHECK(options.max_seq_len > options.min_seq_len);

  const std::vector<double> mbs_grid = PowerOfTwoGrid(1, options.max_microbatch_size);
  const std::vector<double> input_grid =
      PowerOfTwoGrid(options.min_seq_len, options.max_seq_len);
  const std::vector<double> target_grid =
      options.profile_target_axis
          ? PowerOfTwoGrid(options.min_seq_len, options.max_seq_len)
          : std::vector<double>{0.0};

  auto make_table = [&](auto&& sample) {
    std::vector<double> values;
    values.reserve(mbs_grid.size() * input_grid.size() * target_grid.size());
    for (const double b : mbs_grid) {
      for (const double s : input_grid) {
        for (const double t : target_grid) {
          model::MicroBatchShape shape;
          shape.num_samples = static_cast<int32_t>(b);
          shape.input_len = static_cast<int32_t>(s);
          shape.target_len = static_cast<int32_t>(t);
          values.push_back(sample(shape));
        }
      }
    }
    return GridInterp3D(mbs_grid, input_grid, target_grid, std::move(values));
  };

  StageCostModel cm;
  cm.fwd_ms_ = make_table([&](const model::MicroBatchShape& s) { return truth.FwdMs(s); });
  for (const auto mode : kModes) {
    cm.bwd_ms_[ModeIndex(mode)] = make_table(
        [&](const model::MicroBatchShape& s) { return truth.BwdMs(s, mode); });
    cm.activation_mb_[ModeIndex(mode)] = make_table(
        [&](const model::MicroBatchShape& s) { return truth.ActivationMb(s, mode); });
  }
  return cm;
}

void StageCostModel::Save(std::ostream& os) const {
  fwd_ms_.Save(os);
  for (const auto& table : bwd_ms_) {
    table.Save(os);
  }
  for (const auto& table : activation_mb_) {
    table.Save(os);
  }
}

StageCostModel StageCostModel::Load(std::istream& is) {
  StageCostModel cm;
  cm.fwd_ms_ = GridInterp3D::Load(is);
  for (auto& table : cm.bwd_ms_) {
    table = GridInterp3D::Load(is);
  }
  for (auto& table : cm.activation_mb_) {
    table = GridInterp3D::Load(is);
  }
  for (size_t m = 0; m < kNumModes; ++m) {
    DYNAPIPE_CHECK_MSG(cm.bwd_ms_[m].SameAxes(cm.fwd_ms_) &&
                           cm.activation_mb_[m].SameAxes(cm.fwd_ms_),
                       "profile tables disagree on grid axes");
  }
  return cm;
}

double StageCostModel::FwdMs(const model::MicroBatchShape& shape) const {
  return FwdMsAt(Locate(shape));
}

double StageCostModel::BwdMs(const model::MicroBatchShape& shape,
                             model::RecomputeMode mode) const {
  return BwdMsAt(Locate(shape), mode);
}

double StageCostModel::ActivationMb(const model::MicroBatchShape& shape,
                                    model::RecomputeMode mode) const {
  return ActivationMbAt(Locate(shape), mode);
}

GridInterp3D::Cell StageCostModel::Locate(const model::MicroBatchShape& shape) const {
  return fwd_ms_.Locate(shape.num_samples, shape.input_len, shape.target_len);
}

double StageCostModel::FwdMsAt(const GridInterp3D::Cell& cell) const {
  // Clamp at a microsecond: edge extrapolation on the profiled grid can undershoot
  // for tiny shapes, and the planner must never see a non-positive duration.
  return std::max(0.001, fwd_ms_.At(cell));
}

double StageCostModel::BwdMsAt(const GridInterp3D::Cell& cell,
                               model::RecomputeMode mode) const {
  return std::max(0.001, bwd_ms_[ModeIndex(mode)].At(cell));
}

double StageCostModel::ActivationMbAt(const GridInterp3D::Cell& cell,
                                      model::RecomputeMode mode) const {
  return std::max(0.0, activation_mb_[ModeIndex(mode)].At(cell));
}

bool StageCostModel::SameGrid(const StageCostModel& other) const {
  return fwd_ms_.SameAxes(other.fwd_ms_);
}

}  // namespace dynapipe::cost
