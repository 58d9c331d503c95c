// Dynamic-programming micro-batch construction (§4).
//
// Given an *ordered* sample list S, choose split points so consecutive runs form
// micro-batches minimizing the pipeline iteration-time model (Eq. 1):
//
//     (c - 1) * max_i t(M_i)  +  (1/D) * sum_i t(M_i)
//
// where c is the number of pipeline stages and D the number of data-parallel
// replicas (D = 1 recovers the single-pipeline objective exactly). The recurrence
// (Eq. 2) fixes an upper bound t_max on the largest micro-batch time and computes
//
//     f(n; t_max) = min_{i<n} { f(i; t_max) + t(S[i+1..n]) : t(S[i+1..n]) <= t_max }
//
// t_max candidates are the O(N^2) distinct window times, quantized to a fixed
// interval (the paper uses 5 microseconds) and deduplicated; for each candidate the
// DP runs in O(N * max window width) because window time is monotone in window
// extension. Micro-batches whose activation memory exceeds the per-micro-batch
// limit are excluded inside the recurrence, which is how the paper folds the memory
// constraint into the DP after the sliding-window coupling breaks optimal
// substructure.
#ifndef DYNAPIPE_SRC_MB_DP_PARTITIONER_H_
#define DYNAPIPE_SRC_MB_DP_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "src/data/dataset.h"
#include "src/mb/micro_batch.h"
#include "src/model/shapes.h"

namespace dynapipe {
class ThreadPool;
}  // namespace dynapipe

namespace dynapipe::mb {

// Cost oracle for a candidate micro-batch. Backed by the profiled PipelineCostModel
// in production (bottleneck-stage fwd+bwd time and activation memory) and by
// synthetic functions in tests. Implementations must be thread-safe: the
// partitioner issues queries from pool workers when given a ThreadPool.
class MicroBatchCostFn {
 public:
  virtual ~MicroBatchCostFn() = default;
  virtual double TimeMs(const model::MicroBatchShape& shape) const = 0;
  virtual double ActivationMb(const model::MicroBatchShape& shape) const = 0;
  // One feasible-window probe, the DP precompute's hot call: returns false when
  // the activation footprint exceeds `limit` (if limit > 0; *time_ms is then
  // untouched), otherwise fills both values. The default preserves the
  // laziness of the split calls — time is never computed for over-limit
  // windows; the profiled cost model overrides it to serve both from a single
  // grid lookup.
  virtual bool WindowCosts(const model::MicroBatchShape& shape, double limit,
                           double* time_ms, double* act_mb) const {
    *act_mb = ActivationMb(shape);
    if (limit > 0.0 && *act_mb > limit) {
      return false;
    }
    *time_ms = TimeMs(shape);
    return true;
  }
};

struct DpPartitionerOptions {
  // Pipeline stages c in Eq. 1.
  int32_t num_stages = 1;
  // Data-parallel replicas D (scales the sum term; micro-batches are spread over
  // replicas by the Karmarkar–Karp step afterwards).
  int32_t num_replicas = 1;
  // Per-micro-batch activation memory limit; <= 0 disables the constraint.
  double activation_limit_mb = 0.0;
  // Hard cap on samples per micro-batch (bounds DP window width).
  int32_t max_microbatch_size = 512;
  // t_max candidate quantization interval. The paper samples candidates 5us apart;
  // that is exact but slow, so the default is coarser and the Fig.-level benches
  // sweep it (bench_abl_tmax_sampling).
  double tmax_interval_ms = 0.05;
  // Upper bound on candidates actually tried (evenly subsampled if exceeded).
  int32_t max_tmax_candidates = 512;
  // Fan the per-t_max DPs (independent by construction) over this pool; null
  // runs them serially. Output is bit-identical either way: candidate outcomes
  // land in per-candidate slots and are merged in ascending-t_max order with
  // the same strict-improvement rule the serial loop applies, so ties go to
  // the lowest t_max regardless of which worker finished first.
  ThreadPool* pool = nullptr;
};

// Per-call instrumentation: where planning time went (what
// bench_fig17_planning_time / bench_micro_planner report without
// re-instrumenting the planner).
struct PartitionStats {
  // Phase 1: feasible-window precompute (the cost-model-bound part).
  double window_precompute_ms = 0.0;
  // Phase 2: per-t_max DPs + reconstruction + merge.
  double candidate_search_ms = 0.0;
  // Worker threads the candidate sweep could draw on (1 = serial).
  int32_t parallel_workers = 1;
};

struct PartitionResult {
  bool feasible = false;
  std::vector<MicroBatch> micro_batches;
  // Realized max and sum of micro-batch times (cost-model units).
  double max_time_ms = 0.0;
  double total_time_ms = 0.0;
  // Realized Eq. 1 objective.
  double objective_ms = 0.0;
  int32_t candidates_tried = 0;
  PartitionStats stats;
};

class DpPartitioner {
 public:
  DpPartitioner(const MicroBatchCostFn& cost, DpPartitionerOptions options);

  // `ordered` must already be in planning order (see OrderSamples).
  PartitionResult Partition(const std::vector<data::Sample>& ordered) const;

 private:
  const MicroBatchCostFn& cost_;
  DpPartitionerOptions options_;
};

// Reference implementation: exhaustive search over all 2^(N-1) consecutive
// partitions. Exponential; used by tests to validate DP optimality on small inputs.
PartitionResult BruteForcePartition(const MicroBatchCostFn& cost,
                                    const DpPartitionerOptions& options,
                                    const std::vector<data::Sample>& ordered);

}  // namespace dynapipe::mb

#endif  // DYNAPIPE_SRC_MB_DP_PARTITIONER_H_
