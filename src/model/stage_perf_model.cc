#include "src/model/stage_perf_model.h"

#include "src/common/check.h"

namespace dynapipe::model {
namespace {

constexpr double kBytesPerValue = 2.0;  // fp16
constexpr double kMb = 1024.0 * 1024.0;

}  // namespace

StagePerfModel::StagePerfModel(const ModelConfig& config, const HardwareSpec& hw,
                               const StageLayout& layout, int32_t tp)
    : config_(config), hw_(hw), layout_(layout), tp_(tp),
      layer_model_(config, hw, tp) {}

double StagePerfModel::FwdMs(const MicroBatchShape& shape) const {
  const int32_t b = shape.num_samples;
  DYNAPIPE_CHECK(b > 0);
  double ms = 0.0;
  if (layout_.num_encoder_layers > 0) {
    ms += layout_.num_encoder_layers *
          layer_model_.EncoderLayerFwdMs(b, shape.input_len);
  }
  if (layout_.num_decoder_layers > 0) {
    // GPT runs its layers over the full (input) sequence; T5 decoder layers run over
    // the target sequence with cross-attention to the encoder output.
    const int32_t s_dec =
        config_.arch == ModelArch::kGpt ? shape.input_len : shape.target_len;
    ms += layout_.num_decoder_layers *
          layer_model_.DecoderLayerFwdMs(b, s_dec, shape.input_len);
  }
  if (layout_.has_lm_head) {
    const int32_t s_out =
        config_.arch == ModelArch::kGpt ? shape.input_len : shape.target_len;
    ms += layer_model_.LmHeadFwdMs(b, s_out);
  }
  return ms;
}

double StagePerfModel::BwdMs(const MicroBatchShape& shape, RecomputeMode mode) const {
  const int32_t b = shape.num_samples;
  DYNAPIPE_CHECK(b > 0);
  double ms = 0.0;
  if (layout_.num_encoder_layers > 0) {
    ms += layout_.num_encoder_layers *
          layer_model_.EncoderLayerBwdMs(b, shape.input_len, mode);
  }
  if (layout_.num_decoder_layers > 0) {
    const int32_t s_dec =
        config_.arch == ModelArch::kGpt ? shape.input_len : shape.target_len;
    ms += layout_.num_decoder_layers *
          layer_model_.DecoderLayerBwdMs(b, s_dec, shape.input_len, mode);
  }
  if (layout_.has_lm_head) {
    const int32_t s_out =
        config_.arch == ModelArch::kGpt ? shape.input_len : shape.target_len;
    ms += 2.0 * layer_model_.LmHeadFwdMs(b, s_out);
  }
  return ms;
}

double StagePerfModel::ActivationMb(const MicroBatchShape& shape,
                                    RecomputeMode mode) const {
  const int32_t b = shape.num_samples;
  double mb = 0.0;
  if (layout_.num_encoder_layers > 0) {
    mb += layout_.num_encoder_layers *
          layer_model_.EncoderLayerActivationMb(b, shape.input_len, mode);
  }
  if (layout_.num_decoder_layers > 0) {
    const int32_t s_dec =
        config_.arch == ModelArch::kGpt ? shape.input_len : shape.target_len;
    mb += layout_.num_decoder_layers *
          layer_model_.DecoderLayerActivationMb(b, s_dec, shape.input_len, mode);
  }
  return mb;
}

double StagePerfModel::StaticMemoryMb(int32_t dp) const {
  DYNAPIPE_CHECK(dp >= 1);
  double params = 0.0;
  params += static_cast<double>(layout_.num_encoder_layers) *
            static_cast<double>(config_.params_per_encoder_layer());
  params += static_cast<double>(layout_.num_decoder_layers) *
            static_cast<double>(config_.params_per_decoder_layer());
  if (layout_.has_embedding || layout_.has_lm_head) {
    params += static_cast<double>(config_.embedding_params());
  }
  params /= tp_;
  // Mixed-precision training: 2B fp16 weights + 2B fp16 grads resident; Adam fp32
  // master copy + two moments = 12B/param sharded across dp by ZeRO-1.
  const double bytes = params * (2.0 + 2.0 + 12.0 / dp);
  return bytes / kMb;
}

double StagePerfModel::OutputActivationBytes(const MicroBatchShape& shape) const {
  if (layout_.has_lm_head) {
    return 0.0;  // last stage sends nothing forward
  }
  const double b = shape.num_samples;
  const double h = static_cast<double>(config_.hidden_dim);
  if (config_.arch == ModelArch::kGpt) {
    return b * shape.input_len * h * kBytesPerValue;
  }
  // T5: a stage whose last layer is an encoder layer emits the running encoder
  // hidden states; once decoding has started, the boundary carries both the decoder
  // hidden states and the (pass-through) encoder output for cross-attention.
  if (layout_.num_decoder_layers == 0) {
    return b * shape.input_len * h * kBytesPerValue;
  }
  return b * (static_cast<double>(shape.target_len) + shape.input_len) * h *
         kBytesPerValue;
}

std::vector<StagePerfModel> BuildStageModels(const ModelConfig& config,
                                             const HardwareSpec& hw, int32_t pp,
                                             int32_t tp) {
  std::vector<StageLayout> layouts = PartitionStages(config, pp);
  std::vector<StagePerfModel> models;
  models.reserve(layouts.size());
  for (const auto& layout : layouts) {
    models.emplace_back(config, hw, layout, tp);
  }
  return models;
}

double DpGradSyncMs(const ModelConfig& config, const HardwareSpec& hw,
                    const StageLayout& layout, int32_t tp, int32_t dp) {
  if (dp <= 1) {
    return 0.0;
  }
  double params = 0.0;
  params += static_cast<double>(layout.num_encoder_layers) *
            static_cast<double>(config.params_per_encoder_layer());
  params += static_cast<double>(layout.num_decoder_layers) *
            static_cast<double>(config.params_per_decoder_layer());
  if (layout.has_embedding || layout.has_lm_head) {
    params += static_cast<double>(config.embedding_params());
  }
  params /= tp;
  const double grad_bytes = params * kBytesPerValue;
  const double ring_factor = 2.0 * (dp - 1) / dp;
  const double gb = grad_bytes * ring_factor / 1e9;
  return hw.allreduce_latency_us / 1e3 + gb / hw.inter_node_bw_gbs * 1e3;
}

double P2pTransferMs(const HardwareSpec& hw, int32_t tp, int32_t from_stage,
                     int32_t to_stage, int64_t bytes) {
  // Stage s occupies GPUs [s*tp, (s+1)*tp) within its replica; the boundary is
  // intra-node iff representative GPUs share a node.
  const int32_t src_gpu = from_stage * tp;
  const int32_t dst_gpu = to_stage * tp;
  const bool same_node = src_gpu / hw.gpus_per_node == dst_gpu / hw.gpus_per_node;
  const double bw_gbs = same_node ? hw.intra_node_bw_gbs : hw.inter_node_bw_gbs;
  return hw.p2p_latency_us / 1e3 + static_cast<double>(bytes) / 1e9 / bw_gbs * 1e3;
}

}  // namespace dynapipe::model
