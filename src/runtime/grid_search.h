// Parallelism / hyper-parameter grid search (§8 "Baselines").
//
// The paper grid-searches power-of-two 3D parallelism combinations (tensor
// parallelism intra-node only) for both systems, and additionally micro-batch size
// and activation-checkpointing strategy for the packing baseline, reporting each
// system at its best configuration. Evaluations run a few sampled iterations per
// configuration; configurations that OOM or cannot be planned are discarded.
#ifndef DYNAPIPE_SRC_RUNTIME_GRID_SEARCH_H_
#define DYNAPIPE_SRC_RUNTIME_GRID_SEARCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/runtime/planner.h"
#include "src/runtime/trainer.h"

namespace dynapipe {
class ThreadPool;
}  // namespace dynapipe

namespace dynapipe::runtime {

struct GridSearchOptions {
  int32_t eval_iterations = 4;
  TrainerOptions trainer;
  cost::ProfileOptions profile;
  // Baseline-only sweeps.
  std::vector<int32_t> microbatch_sizes = {1, 2, 4, 8, 16, 32};
  std::vector<int64_t> token_counts = {1024, 2048, 4096, 8192, 16'384};
  std::vector<model::RecomputeMode> recompute_modes = {
      model::RecomputeMode::kNone, model::RecomputeMode::kSelective,
      model::RecomputeMode::kFull};
  // Evaluate parallelism configurations on this pool (profiling + sample epochs
  // are independent per configuration); null evaluates serially. Results are
  // identical either way: per-config scores land in per-config slots, and the
  // winner is merged in enumeration order with strict improvement, so ties go
  // to the earliest-enumerated configuration exactly like the serial loop.
  ThreadPool* pool = nullptr;
};

struct ConfigScore {
  model::ParallelConfig parallel;
  double tokens_per_second = 0.0;
  bool feasible = false;
  std::string note;
};

struct DynaPipeSearchResult {
  bool found = false;
  model::ParallelConfig best;
  double tokens_per_second = 0.0;
  std::vector<ConfigScore> all;
};

DynaPipeSearchResult GridSearchDynaPipe(const model::ModelConfig& config,
                                        const model::HardwareSpec& hw,
                                        int32_t num_gpus,
                                        const data::Dataset& dataset,
                                        const PlannerOptions& planner,
                                        const GridSearchOptions& options);

struct BaselineSearchResult {
  bool found = false;
  model::ParallelConfig best;
  int32_t microbatch_size = 0;
  int64_t tokens_per_microbatch = 0;
  model::RecomputeMode recompute = model::RecomputeMode::kNone;
  double tokens_per_second = 0.0;
  std::vector<ConfigScore> all;
};

BaselineSearchResult GridSearchBaseline(const model::ModelConfig& config,
                                        const model::HardwareSpec& hw,
                                        int32_t num_gpus,
                                        const data::Dataset& dataset,
                                        BaselineBatching batching,
                                        const GridSearchOptions& options);

// Baseline restricted to one parallelism configuration — the paper's "MLM+DS (C)"
// bars (baseline forced onto DynaPipe's chosen parallelism).
BaselineSearchResult GridSearchBaselineAtParallel(
    const model::ModelConfig& config, const model::HardwareSpec& hw,
    const model::ParallelConfig& parallel, const data::Dataset& dataset,
    BaselineBatching batching, const GridSearchOptions& options);

}  // namespace dynapipe::runtime

#endif  // DYNAPIPE_SRC_RUNTIME_GRID_SEARCH_H_
