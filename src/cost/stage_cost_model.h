// Per-stage cost model built by profiling.
//
// Mirrors the paper's cost-model construction (§3): run forward/backward "profiling"
// at power-of-two micro-batch sizes and sequence lengths, record execution time and
// activation memory per recomputation scheme, and bridge gaps with linear
// interpolation. The planner only ever sees these interpolated tables — never the
// analytic ground truth — so its estimates carry realistic interpolation error
// (quantified in the Fig. 18 bench).
#ifndef DYNAPIPE_SRC_COST_STAGE_COST_MODEL_H_
#define DYNAPIPE_SRC_COST_STAGE_COST_MODEL_H_

#include <array>
#include <cstdint>
#include <iosfwd>

#include "src/cost/grid_interp.h"
#include "src/model/shapes.h"
#include "src/model/stage_perf_model.h"

namespace dynapipe::cost {

struct ProfileOptions {
  int32_t max_microbatch_size = 128;
  int32_t min_seq_len = 32;
  int32_t max_seq_len = 16'384;
  // Profile the decoder (target) axis too; pass false for decoder-only models whose
  // samples carry no target sequence.
  bool profile_target_axis = true;
};

class StageCostModel {
 public:
  StageCostModel() = default;

  // Profiles `truth` on the power-of-two grid. The ground truth is only sampled at
  // the grid points, exactly like profiling real kernels.
  static StageCostModel Profile(const model::StagePerfModel& truth,
                                const ProfileOptions& options);

  double FwdMs(const model::MicroBatchShape& shape) const;
  double BwdMs(const model::MicroBatchShape& shape, model::RecomputeMode mode) const;
  double ActivationMb(const model::MicroBatchShape& shape,
                      model::RecomputeMode mode) const;

  // Interpolated times are clamped at a microsecond: edge extrapolation on
  // the profiled grid can undershoot for tiny shapes, and the planner must
  // never see a non-positive duration. Activations are clamped at 0.
  static constexpr double kMinMs = 0.001;

  // All seven tables share one grid (checked on Profile and Load), so a shape
  // located once can be read from every table — and from every stage whose
  // grid matches (SameGrid).
  GridInterp3D::Cell Locate(const model::MicroBatchShape& shape) const;
  double FwdMsAt(const GridInterp3D::Cell& cell) const;
  double BwdMsAt(const GridInterp3D::Cell& cell, model::RecomputeMode mode) const;
  double ActivationMbAt(const GridInterp3D::Cell& cell, model::RecomputeMode mode) const;
  bool SameGrid(const StageCostModel& other) const;
  // The raw tables behind the accessors above (unclamped), for
  // PipelineCostModel's packed copy.
  const GridInterp3D& fwd_table() const { return fwd_ms_; }
  const GridInterp3D& bwd_table(model::RecomputeMode mode) const {
    return bwd_ms_[ModeIndex(mode)];
  }
  const GridInterp3D& activation_table(model::RecomputeMode mode) const {
    return activation_mb_[ModeIndex(mode)];
  }

  // Profiles are expensive to gather on real hardware, so the artifact caches
  // them across runs; Save/Load round-trips all tables in plain text.
  void Save(std::ostream& os) const;
  static StageCostModel Load(std::istream& is);

 private:
  static constexpr size_t kNumModes = 3;

  static size_t ModeIndex(model::RecomputeMode mode);

  GridInterp3D fwd_ms_;
  std::array<GridInterp3D, kNumModes> bwd_ms_;
  std::array<GridInterp3D, kNumModes> activation_mb_;
};

}  // namespace dynapipe::cost

#endif  // DYNAPIPE_SRC_COST_STAGE_COST_MODEL_H_
