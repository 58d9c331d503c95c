// Whole-pipeline cost model: the profiled per-stage costs, plus the quantities
// the planner knows exactly without profiling — tensor shapes at stage
// boundaries, parameter/optimizer memory, and the interconnect model.
//
// Profiling mirrors the paper's cost-model construction (§3): every stage's
// forward/backward time and activation memory per recomputation scheme are
// sampled at power-of-two micro-batch sizes and sequence lengths, and gaps are
// bridged by linear interpolation. The planner only ever sees these
// interpolated values — never the analytic ground truth — so its estimates
// carry realistic interpolation error (quantified in the Fig. 18 bench).
//
// t(M) in Eq. 1 is taken at the bottleneck stage (max over stages of fwd+bwd),
// which both bounds the per-stage time and matches the paper's "execution time of
// all micro-batches on the last stage" term when stages are balanced.
//
// The profile is stored once, packed per grid vertex: each vertex holds every
// stage's fwd, bwd and activation values side by side over one set of axes,
// so a lookup locates a shape once and reads every stage's lane of a table in
// one pass.
#ifndef DYNAPIPE_SRC_COST_PIPELINE_COST_MODEL_H_
#define DYNAPIPE_SRC_COST_PIPELINE_COST_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/cost/grid_interp.h"
#include "src/model/hardware_spec.h"
#include "src/model/model_config.h"
#include "src/model/shapes.h"
#include "src/model/stage_partition.h"
#include "src/model/stage_perf_model.h"

namespace dynapipe::cost {

// The profiling grid: micro-batch sizes 1, 2, 4, ... up to
// max_microbatch_size, and sequence lengths min_seq_len, 2 * min_seq_len, ...
// up to max_seq_len on the input axis and, for T5, the target axis (GPT's
// target axis is the single point 0).
struct ProfileOptions {
  int32_t max_microbatch_size = 128;
  int32_t min_seq_len = 32;
  int32_t max_seq_len = 16'384;
};

class PipelineCostModel {
 public:
  // Profiles every stage of (config, parallel) on hw. The ground-truth stage models
  // are sampled only at grid points.
  static PipelineCostModel Profile(const model::ModelConfig& config,
                                   const model::HardwareSpec& hw,
                                   const model::ParallelConfig& parallel,
                                   const ProfileOptions& options);

  int32_t num_stages() const { return static_cast<int32_t>(truth_.size()); }

  // --- Profiled (interpolated) quantities ---
  // Times are clamped at a microsecond and activations at 0. Each per-stage
  // accessor locates the shape by a search on the grid axes.
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
  // the feasible-window probe. Fills *act_mb; returns false, leaving *time_ms
  // untouched, when limit > 0 and the activation exceeds it. Otherwise fills
  // *time_ms (unless it is null) and returns true. Values are bit-identical
  // to the per-stage StageFwdMs/StageBwdMs/StageActivationMb.
  bool WindowCosts(const model::MicroBatchShape& shape, model::RecomputeMode mode,
                   double limit, double* time_ms, double* act_mb) const;
  // Every stage's fwd, bwd and activation under `mode` from one located cell:
  // fills num_stages() values at each of fwd_ms, bwd_ms and act_mb, each
  // bit-identical to the per-stage accessor.
  void StageCosts(const model::MicroBatchShape& shape, model::RecomputeMode mode,
                  double* fwd_ms, double* bwd_ms, double* act_mb) const;

  // Prices a walk of windows whose shapes never shrink — one DP row, widths
  // 1, 2, ... from a fixed start. A walk reads the same tables at every
  // window: each stage's fwd, its bwd under each of `modes`, and, if
  // `activation`, its activation under each of `modes`. Seek locates the
  // window with a GridInterp3D::Cursor step (no search) and interpolates
  // those tables for every stage in one inline pass over the packed values.
  // Values are bit-identical to StageFwdMs / StageBwdMs / StageActivationMb.
  // The lane buffer is per-thread scratch, so keep at most one RowWalk alive
  // per thread.
  class RowWalk {
   public:
    RowWalk(const PipelineCostModel& cm, std::span<const model::RecomputeMode> modes,
            bool activation)
        : cm_(cm),
          stages_(cm.truth_.size()),
          cursor_(cm.packed_.axes()),
          lanes_(LaneScratch(cm.packed_.lanes())) {
      size_t first = FwdTable();
      size_t last = FwdTable();
      for (const auto mode : modes) {
        first = std::min(first, BwdTable(mode));
        last = std::max(last, BwdTable(mode));
        if (activation) {
          first = std::min(first, ActTable(mode));
          last = std::max(last, ActTable(mode));
        }
      }
      first_lane_ = first * stages_;
      num_lanes_ = (last + 1 - first) * stages_;
    }
    // Locates the next window and reads its tables: no field of shape may be
    // below the previous call's.
    void Seek(const model::MicroBatchShape& shape) {
      const GridInterp3D::Cell cell =
          cursor_.Advance(shape.num_samples, shape.input_len, shape.target_len);
      cm_.packed_.At(cell, first_lane_, num_lanes_, lanes_ + first_lane_);
    }
    // The located window's value on every stage, num_stages() of them, for
    // a table the walk reads.
    const double* FwdMs() const { return lanes_ + FwdTable() * stages_; }
    const double* BwdMs(model::RecomputeMode mode) const {
      return lanes_ + BwdTable(mode) * stages_;
    }
    const double* ActivationMb(model::RecomputeMode mode) const {
      return lanes_ + ActTable(mode) * stages_;
    }
    // PipelineCostModel::WindowCosts at the located window; needs a walk
    // that reads `mode`'s activation.
    bool WindowCosts(model::RecomputeMode mode, double limit, double* time_ms,
                     double* act_mb) const;

   private:
    // The lane buffer: one per thread, grown to the widest packed grid seen,
    // so walking a row allocates nothing.
    static double* LaneScratch(size_t lanes);

    const PipelineCostModel& cm_;
    size_t stages_;
    GridInterp3D::Cursor cursor_;
    size_t first_lane_ = 0;  // the lanes Seek reads
    size_t num_lanes_ = 0;
    double* lanes_;
  };

  // --- Exact quantities ---
  // Static memory (weights + grads + ZeRO-1 optimizer shard) on stage s.
  double StaticMemoryMb(int32_t s) const;
  // Activation-memory budget shared by all stages: usable device memory minus the
  // worst stage's static footprint.
  double ActivationBudgetMb() const;
  // Bytes stage s sends to stage s+1 for one micro-batch (activations; gradients
  // flow back with the same volume).
  int64_t BoundaryBytes(int32_t s, const model::MicroBatchShape& shape) const;
  // P2P transfer duration between adjacent stages (model::P2pTransferMs, the
  // same formula the simulated cluster's ground truth uses).
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
  // The packed grid holds seven tables, each one lane per stage: table t's
  // lanes are [t * num_stages(), (t + 1) * num_stages()). Their order puts
  // what the serial planner reads together next to each other — kNone's DP
  // window reads tables 0-2, the bound sweep over kSelective and kFull reads
  // 2-4, over all modes 1-4:
  //   0 act(kNone), 1 bwd(kNone), 2 fwd, 3 bwd(kSelective), 4 bwd(kFull),
  //   5 act(kSelective), 6 act(kFull).
  static constexpr size_t kNumTables = 7;
  static size_t FwdTable() { return 2; }
  static size_t BwdTable(model::RecomputeMode mode) {
    return mode == model::RecomputeMode::kNone ? 1 : 2 + static_cast<size_t>(mode);
  }
  static size_t ActTable(model::RecomputeMode mode) {
    return mode == model::RecomputeMode::kNone ? 0 : 4 + static_cast<size_t>(mode);
  }
  // Stage s's lane of `table` at `shape`: one Locate, one one-lane read.
  double StageLane(size_t table, int32_t s, const model::MicroBatchShape& shape) const;

  PackedGrids packed_;
  // Sampled at the grid vertices by Profile; afterwards kept for the exact
  // (non-profiled) shape and memory math only.
  std::vector<model::StagePerfModel> truth_;
};

}  // namespace dynapipe::cost

#endif  // DYNAPIPE_SRC_COST_PIPELINE_COST_MODEL_H_
