#include "src/runtime/grid_search.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/thread_pool.h"

namespace dynapipe::runtime {
namespace {

std::vector<model::ParallelConfig> Candidates(const model::ModelConfig& config,
                                              const model::HardwareSpec& hw,
                                              int32_t num_gpus) {
  const int32_t max_pp = std::min(config.total_layers(), num_gpus);
  return model::EnumerateParallelConfigs(num_gpus, hw.gpus_per_node, max_pp);
}

}  // namespace

DynaPipeSearchResult GridSearchDynaPipe(const model::ModelConfig& config,
                                        const model::HardwareSpec& hw,
                                        int32_t num_gpus,
                                        const data::Dataset& dataset,
                                        const PlannerOptions& planner,
                                        const GridSearchOptions& options) {
  DynaPipeSearchResult result;
  TrainerOptions trainer_opts = options.trainer;
  trainer_opts.max_iterations = options.eval_iterations;

  // Each configuration profiles its own cost model and runs its own sampled
  // epoch — fully independent, so they fan out over the pool into per-config
  // slots; the merge below is serial and order-deterministic.
  const std::vector<model::ParallelConfig> candidates =
      Candidates(config, hw, num_gpus);
  std::vector<ConfigScore> scores(candidates.size());
  ParallelFor(options.pool, candidates.size(), [&](size_t i) {
    Trainer trainer(config, hw, candidates[i], options.profile);
    const EpochResult epoch = trainer.RunEpoch(dataset, planner, trainer_opts);
    ConfigScore& score = scores[i];
    score.parallel = candidates[i];
    score.feasible = epoch.feasible;
    score.tokens_per_second = epoch.feasible ? epoch.tokens_per_second() : 0.0;
    score.note = epoch.failure;
  });

  for (const ConfigScore& score : scores) {
    result.all.push_back(score);
    if (score.feasible && score.tokens_per_second > result.tokens_per_second) {
      result.found = true;
      result.best = score.parallel;
      result.tokens_per_second = score.tokens_per_second;
    }
  }
  return result;
}

namespace {

// One parallelism configuration's full baseline sweep (recompute x batch-size
// knobs), in the same nesting order the seed's serial loops used. Scores are
// appended to `out` in sweep order; `result`'s best is updated with strict
// improvement, so within a configuration ties keep the earliest knob combo.
void SweepBaselineConfig(const model::ModelConfig& config,
                         const model::HardwareSpec& hw,
                         const model::ParallelConfig& parallel,
                         const data::Dataset& dataset, BaselineBatching batching,
                         const GridSearchOptions& options,
                         const TrainerOptions& trainer_opts,
                         BaselineSearchResult* result,
                         std::vector<ConfigScore>* out) {
  Trainer trainer(config, hw, parallel, options.profile);
  const bool token_based = batching == BaselineBatching::kTokenBased;
  for (const auto recompute : options.recompute_modes) {
    if (token_based) {
      for (const int64_t tokens : options.token_counts) {
        BaselineOptions base;
        base.batching = batching;
        base.tokens_per_microbatch = tokens;
        base.recompute = recompute;
        const EpochResult epoch =
            trainer.RunEpochBaseline(dataset, base, trainer_opts);
        ConfigScore score;
        score.parallel = parallel;
        score.feasible = epoch.feasible;
        score.tokens_per_second = epoch.feasible ? epoch.tokens_per_second() : 0.0;
        score.note = "tokens/mb=" + std::to_string(tokens);
        out->push_back(score);
        if (epoch.feasible && score.tokens_per_second > result->tokens_per_second) {
          result->found = true;
          result->best = parallel;
          result->tokens_per_microbatch = tokens;
          result->recompute = recompute;
          result->tokens_per_second = score.tokens_per_second;
        }
      }
    } else {
      for (const int32_t mbs : options.microbatch_sizes) {
        BaselineOptions base;
        base.batching = batching;
        base.microbatch_size = mbs;
        base.recompute = recompute;
        const EpochResult epoch =
            trainer.RunEpochBaseline(dataset, base, trainer_opts);
        ConfigScore score;
        score.parallel = parallel;
        score.feasible = epoch.feasible;
        score.tokens_per_second = epoch.feasible ? epoch.tokens_per_second() : 0.0;
        score.note = "mbs=" + std::to_string(mbs);
        out->push_back(score);
        if (epoch.feasible && score.tokens_per_second > result->tokens_per_second) {
          result->found = true;
          result->best = parallel;
          result->microbatch_size = mbs;
          result->recompute = recompute;
          result->tokens_per_second = score.tokens_per_second;
        }
      }
    }
  }
}

BaselineSearchResult SearchBaselineOverConfigs(
    const model::ModelConfig& config, const model::HardwareSpec& hw,
    const std::vector<model::ParallelConfig>& parallels,
    const data::Dataset& dataset, BaselineBatching batching,
    const GridSearchOptions& options) {
  BaselineSearchResult result;
  TrainerOptions trainer_opts = options.trainer;
  trainer_opts.max_iterations = options.eval_iterations;

  // Outer fan-out over parallelism configurations; each config's knob sweep
  // stays serial inside its slot. Merging slot-local bests in enumeration
  // order with strict improvement reproduces the seed's config-major serial
  // scan bit for bit (the first config to strictly beat all before it wins).
  std::vector<BaselineSearchResult> locals(parallels.size());
  std::vector<std::vector<ConfigScore>> local_scores(parallels.size());
  ParallelFor(options.pool, parallels.size(), [&](size_t i) {
    SweepBaselineConfig(config, hw, parallels[i], dataset, batching, options,
                        trainer_opts, &locals[i], &local_scores[i]);
  });

  for (size_t i = 0; i < parallels.size(); ++i) {
    result.all.insert(result.all.end(), local_scores[i].begin(),
                      local_scores[i].end());
    const BaselineSearchResult& local = locals[i];
    if (local.found && local.tokens_per_second > result.tokens_per_second) {
      result.found = true;
      result.best = local.best;
      result.microbatch_size = local.microbatch_size;
      result.tokens_per_microbatch = local.tokens_per_microbatch;
      result.recompute = local.recompute;
      result.tokens_per_second = local.tokens_per_second;
    }
  }
  return result;
}

}  // namespace

BaselineSearchResult GridSearchBaseline(const model::ModelConfig& config,
                                        const model::HardwareSpec& hw,
                                        int32_t num_gpus,
                                        const data::Dataset& dataset,
                                        BaselineBatching batching,
                                        const GridSearchOptions& options) {
  return SearchBaselineOverConfigs(config, hw, Candidates(config, hw, num_gpus),
                                   dataset, batching, options);
}

BaselineSearchResult GridSearchBaselineAtParallel(
    const model::ModelConfig& config, const model::HardwareSpec& hw,
    const model::ParallelConfig& parallel, const data::Dataset& dataset,
    BaselineBatching batching, const GridSearchOptions& options) {
  return SearchBaselineOverConfigs(config, hw, {parallel}, dataset, batching,
                                   options);
}

}  // namespace dynapipe::runtime
