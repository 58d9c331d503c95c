// Whole-pipeline cost model: one profiled StageCostModel per pipeline stage, plus
// the quantities the planner knows exactly without profiling — tensor shapes at
// stage boundaries, parameter/optimizer memory, and the interconnect model.
//
// t(M) in Eq. 1 is taken at the bottleneck stage (max over stages of fwd+bwd),
// which both bounds the per-stage time and matches the paper's "execution time of
// all micro-batches on the last stage" term when stages are balanced.
#ifndef DYNAPIPE_SRC_COST_PIPELINE_COST_MODEL_H_
#define DYNAPIPE_SRC_COST_PIPELINE_COST_MODEL_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/cost/stage_cost_model.h"
#include "src/model/hardware_spec.h"
#include "src/model/model_config.h"
#include "src/model/shapes.h"
#include "src/model/stage_partition.h"
#include "src/model/stage_perf_model.h"

namespace dynapipe::cost {

class PipelineCostModel {
 public:
  // Profiles every stage of (config, parallel) on hw. The ground-truth stage models
  // are sampled only at grid points.
  static PipelineCostModel Profile(const model::ModelConfig& config,
                                   const model::HardwareSpec& hw,
                                   const model::ParallelConfig& parallel,
                                   const ProfileOptions& options);

  // Persist the profiled tables so repeated runs skip profiling (the paper's
  // artifact caches profiles the same way). Load rebuilds the exact-math parts
  // from (config, hw, parallel) and restores the tables; the caller must pass the
  // same triple the profile was taken with.
  void SaveProfile(std::ostream& os) const;
  static PipelineCostModel LoadProfile(const model::ModelConfig& config,
                                       const model::HardwareSpec& hw,
                                       const model::ParallelConfig& parallel,
                                       std::istream& is);

  int32_t num_stages() const { return static_cast<int32_t>(stages_.size()); }
  const StageCostModel& stage(int32_t s) const;

  // --- Profiled (interpolated) quantities ---
  double StageFwdMs(int32_t s, const model::MicroBatchShape& shape) const;
  double StageBwdMs(int32_t s, const model::MicroBatchShape& shape,
                    model::RecomputeMode mode) const;
  double StageActivationMb(int32_t s, const model::MicroBatchShape& shape,
                           model::RecomputeMode mode) const;
  // Bottleneck-stage fwd+bwd time — Eq. 1's t(M).
  double MicroBatchTimeMs(const model::MicroBatchShape& shape,
                          model::RecomputeMode mode) const;
  // Max over stages of activation memory (the constraint the DP enforces).
  double MaxActivationMb(const model::MicroBatchShape& shape,
                         model::RecomputeMode mode) const;
  // Both of the above from one grid lookup shared by every stage and table —
  // the DP's feasible-window probe. Fills *act_mb; returns false, leaving
  // *time_ms untouched, when limit > 0 and the activation exceeds it.
  // Otherwise fills *time_ms (unless it is null) and returns true. Values are
  // bit-identical to the per-stage StageFwdMs/StageBwdMs/StageActivationMb.
  bool WindowCosts(const model::MicroBatchShape& shape, model::RecomputeMode mode,
                   double limit, double* time_ms, double* act_mb) const;

  // --- Exact quantities ---
  // Static memory (weights + grads + ZeRO-1 optimizer shard) on stage s.
  double StaticMemoryMb(int32_t s) const;
  // Activation-memory budget shared by all stages: usable device memory minus the
  // worst stage's static footprint.
  double ActivationBudgetMb() const;
  // Bytes stage s sends to stage s+1 for one micro-batch (activations; gradients
  // flow back with the same volume).
  int64_t BoundaryBytes(int32_t s, const model::MicroBatchShape& shape) const;
  // P2P transfer duration between adjacent stages (intra- vs inter-node is derived
  // from the stage→GPU placement implied by (tp, gpus_per_node)).
  double TransferMs(int32_t from_stage, int32_t to_stage, int64_t bytes) const;
  // Per-iteration data-parallel gradient allreduce (max across stages).
  double DpGradSyncMs() const;

  const model::ParallelConfig& parallel() const { return parallel_; }
  const model::HardwareSpec& hw() const { return hw_; }
  const model::ModelConfig& config() const { return config_; }

 private:
  model::ModelConfig config_;
  model::HardwareSpec hw_;
  model::ParallelConfig parallel_;
  std::vector<StageCostModel> stages_;
  // Kept for the exact (non-profiled) shape and memory math only.
  std::vector<model::StagePerfModel> truth_;
};

}  // namespace dynapipe::cost

#endif  // DYNAPIPE_SRC_COST_PIPELINE_COST_MODEL_H_
