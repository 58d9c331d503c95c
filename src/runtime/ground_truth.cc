#include "src/runtime/ground_truth.h"

#include "src/common/check.h"

namespace dynapipe::runtime {

SimGroundTruth::SimGroundTruth(const model::ModelConfig& config,
                               const model::HardwareSpec& hw,
                               const model::ParallelConfig& parallel,
                               double noise_stddev, uint64_t noise_seed)
    : hw_(hw), parallel_(parallel),
      stages_(model::BuildStageModels(config, hw, parallel.pp, parallel.tp)),
      noise_(noise_stddev, noise_seed) {}

double SimGroundTruth::ComputeMs(int32_t device, const sim::Instruction& instr) {
  DYNAPIPE_CHECK(device >= 0 && device < static_cast<int32_t>(stages_.size()));
  const auto& stage = stages_[static_cast<size_t>(device)];
  const double base = instr.type == sim::InstrType::kForwardPass
                          ? stage.FwdMs(instr.shape)
                          : stage.BwdMs(instr.shape, instr.recompute);
  return noise_.Apply(base);
}

double SimGroundTruth::ActivationMb(int32_t device, const sim::Instruction& instr) {
  DYNAPIPE_CHECK(device >= 0 && device < static_cast<int32_t>(stages_.size()));
  return stages_[static_cast<size_t>(device)].ActivationMb(instr.shape,
                                                           instr.recompute);
}

double SimGroundTruth::TransferMs(int32_t src, int32_t dst, int64_t bytes) {
  return model::P2pTransferMs(hw_, parallel_.tp, src, dst, bytes);
}

std::vector<double> SimGroundTruth::StaticMemoryMb() const {
  std::vector<double> out;
  out.reserve(stages_.size());
  for (const auto& stage : stages_) {
    out.push_back(stage.StaticMemoryMb(parallel_.dp));
  }
  return out;
}

}  // namespace dynapipe::runtime
