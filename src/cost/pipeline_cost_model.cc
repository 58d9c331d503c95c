#include "src/cost/pipeline_cost_model.h"

#include <algorithm>
#include <istream>
#include <string>
#include <ostream>

#include "src/common/check.h"

namespace dynapipe::cost {

PipelineCostModel PipelineCostModel::Profile(const model::ModelConfig& config,
                                             const model::HardwareSpec& hw,
                                             const model::ParallelConfig& parallel,
                                             const ProfileOptions& options) {
  PipelineCostModel pcm;
  pcm.config_ = config;
  pcm.hw_ = hw;
  pcm.parallel_ = parallel;
  pcm.truth_ = model::BuildStageModels(config, hw, parallel.pp, parallel.tp);
  ProfileOptions opts = options;
  opts.profile_target_axis = config.arch == model::ModelArch::kT5;
  pcm.stages_.reserve(pcm.truth_.size());
  for (const auto& stage_truth : pcm.truth_) {
    pcm.stages_.push_back(StageCostModel::Profile(stage_truth, opts));
  }
  return pcm;
}

void PipelineCostModel::SaveProfile(std::ostream& os) const {
  os << "dynapipe-profile-v1 " << stages_.size() << "\n";
  for (const auto& stage_cm : stages_) {
    stage_cm.Save(os);
  }
}

PipelineCostModel PipelineCostModel::LoadProfile(const model::ModelConfig& config,
                                                 const model::HardwareSpec& hw,
                                                 const model::ParallelConfig& parallel,
                                                 std::istream& is) {
  std::string magic;
  size_t num_stages = 0;
  DYNAPIPE_CHECK_MSG(static_cast<bool>(is >> magic >> num_stages),
                     "malformed profile header");
  DYNAPIPE_CHECK_MSG(magic == "dynapipe-profile-v1", "unknown profile format");
  DYNAPIPE_CHECK_MSG(num_stages == static_cast<size_t>(parallel.pp),
                     "profile stage count does not match parallel config");
  PipelineCostModel pcm;
  pcm.config_ = config;
  pcm.hw_ = hw;
  pcm.parallel_ = parallel;
  pcm.truth_ = model::BuildStageModels(config, hw, parallel.pp, parallel.tp);
  pcm.stages_.reserve(num_stages);
  for (size_t s = 0; s < num_stages; ++s) {
    pcm.stages_.push_back(StageCostModel::Load(is));
    DYNAPIPE_CHECK_MSG(pcm.stages_[s].SameGrid(pcm.stages_.front()),
                       "profile stages disagree on grid axes");
  }
  return pcm;
}

const StageCostModel& PipelineCostModel::stage(int32_t s) const {
  DYNAPIPE_CHECK(s >= 0 && s < num_stages());
  return stages_[static_cast<size_t>(s)];
}

double PipelineCostModel::StageFwdMs(int32_t s,
                                     const model::MicroBatchShape& shape) const {
  return stage(s).FwdMs(shape);
}

double PipelineCostModel::StageBwdMs(int32_t s, const model::MicroBatchShape& shape,
                                     model::RecomputeMode mode) const {
  return stage(s).BwdMs(shape, mode);
}

double PipelineCostModel::StageActivationMb(int32_t s,
                                            const model::MicroBatchShape& shape,
                                            model::RecomputeMode mode) const {
  return stage(s).ActivationMb(shape, mode);
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
  // Every stage shares stage 0's grid (Profile builds it so; LoadProfile
  // checks), so one Locate serves all 7 tables of all stages.
  const GridInterp3D::Cell cell = stages_.front().Locate(shape);
  double act = 0.0;
  for (const auto& s : stages_) {
    act = std::max(act, s.ActivationMbAt(cell, mode));
  }
  *act_mb = act;
  if (limit > 0.0 && act > limit) {
    return false;
  }
  if (time_ms != nullptr) {
    double worst = 0.0;
    for (const auto& s : stages_) {
      worst = std::max(worst, s.FwdMsAt(cell) + s.BwdMsAt(cell, mode));
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
  // Stage s occupies GPUs [s*tp, (s+1)*tp) within its replica; the boundary is
  // intra-node iff representative GPUs share a node.
  const int32_t src_gpu = from_stage * parallel_.tp;
  const int32_t dst_gpu = to_stage * parallel_.tp;
  const bool same_node =
      src_gpu / hw_.gpus_per_node == dst_gpu / hw_.gpus_per_node;
  const double bw_gbs = same_node ? hw_.intra_node_bw_gbs : hw_.inter_node_bw_gbs;
  return hw_.p2p_latency_us / 1e3 +
         static_cast<double>(bytes) / 1e9 / bw_gbs * 1e3;
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
