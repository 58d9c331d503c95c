// Per-pipeline-stage performance model: aggregates LayerPerfModel over the layers a
// stage owns, plus weight/optimizer memory and the communication volumes the stage
// exchanges with its neighbours. This is what the simulator treats as ground truth
// and what the ProfileRunner samples to build the planner's cost model.
#ifndef DYNAPIPE_SRC_MODEL_STAGE_PERF_MODEL_H_
#define DYNAPIPE_SRC_MODEL_STAGE_PERF_MODEL_H_

#include <vector>

#include "src/model/hardware_spec.h"
#include "src/model/layer_perf_model.h"
#include "src/model/model_config.h"
#include "src/model/shapes.h"
#include "src/model/stage_partition.h"

namespace dynapipe::model {

class StagePerfModel {
 public:
  StagePerfModel(const ModelConfig& config, const HardwareSpec& hw,
                 const StageLayout& layout, int32_t tp);

  // Forward/backward execution time of one micro-batch on this stage (ms).
  double FwdMs(const MicroBatchShape& shape) const;
  double BwdMs(const MicroBatchShape& shape, RecomputeMode mode) const;

  // Activation memory this stage retains for one in-flight micro-batch (MB).
  double ActivationMb(const MicroBatchShape& shape, RecomputeMode mode) const;

  // Static memory: fp16 weights + fp16 grads + ZeRO-1-sharded Adam states (MB).
  double StaticMemoryMb(int32_t dp) const;

  // Bytes this stage sends to the next stage for one micro-batch's forward pass.
  // For T5, decoder stages also forward the encoder output (cross-attention input),
  // so the boundary and decoder-side volumes include both tensors. Gradient traffic
  // in the backward pass has the same volume in the reverse direction.
  double OutputActivationBytes(const MicroBatchShape& shape) const;

  const StageLayout& layout() const { return layout_; }
  const LayerPerfModel& layer_model() const { return layer_model_; }

 private:
  ModelConfig config_;
  HardwareSpec hw_;
  StageLayout layout_;
  int32_t tp_;
  LayerPerfModel layer_model_;
};

// Builds the per-stage models for a full pipeline.
std::vector<StagePerfModel> BuildStageModels(const ModelConfig& config,
                                             const HardwareSpec& hw, int32_t pp,
                                             int32_t tp);

// Per-iteration data-parallel gradient allreduce time for one stage's parameters
// (ring allreduce over dp replicas; uses inter-node bandwidth, the conservative
// case). Returns 0 for dp == 1.
double DpGradSyncMs(const ModelConfig& config, const HardwareSpec& hw,
                    const StageLayout& layout, int32_t tp, int32_t dp);

// P2P transfer time of `bytes` from pipeline stage from_stage to to_stage:
// intra- vs inter-node bandwidth follows the stage→GPU placement implied by
// (tp, gpus_per_node), plus the p2p latency.
double P2pTransferMs(const HardwareSpec& hw, int32_t tp, int32_t from_stage,
                     int32_t to_stage, int64_t bytes);

}  // namespace dynapipe::model

#endif  // DYNAPIPE_SRC_MODEL_STAGE_PERF_MODEL_H_
