// Memory-aware adaptive scheduling (Alg. 1 of the paper).
//
// Micro-batch scheduling is treated as a re-entrant flow shop and solved with cyclic
// scheduling: in each cycle every device tries to execute one backward and one
// forward from its buffers of ready ops. Unlike 1F1B — which pins consecutive stages
// of a micro-batch back-to-back and therefore runs with zero safety stock in the
// steady state — the cyclic schedule lets ready ops accumulate in the buffers, so
// devices keep working when a previous stage runs long (Fig. 11b).
//
// Memory awareness: each device tracks the activation memory its scheduled-but-not-
// yet-backwarded micro-batches would hold; a forward whose activation would exceed
// the device limit is deferred (pushed back to the buffer head) until backward
// passes free memory (Fig. 11c). Training therefore proceeds as long as a single
// micro-batch's activation fits on the device.
#ifndef DYNAPIPE_SRC_SCHEDULE_ADAPTIVE_SCHEDULER_H_
#define DYNAPIPE_SRC_SCHEDULE_ADAPTIVE_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/model/shapes.h"
#include "src/schedule/schedule_types.h"

namespace dynapipe::schedule {

// Prices one (stage, shape) pair: forward time, backward time (recompute
// folded in by the caller), and held activation memory. The hook through
// which the planner plugs its profile walks while the scheduler stays
// cost-model-agnostic.
using StageShapePricer = std::function<void(
    int32_t stage, const model::MicroBatchShape& shape, double* fwd_ms,
    double* bwd_ms, double* act_mb)>;

struct OpCostsBuild {
  OpCosts costs;
  // Bottleneck time per micro-batch: max over stages of fwd + bwd.
  std::vector<double> mb_time;
};

// Assembles per-op planning inputs from per-(stage, shape) prices. Micro-
// batches cut from runs of equal-length samples share padded shapes, so each
// distinct shape is priced exactly once per stage and fanned out.
OpCostsBuild BuildOpCosts(int32_t num_stages,
                          const std::vector<model::MicroBatchShape>& shapes,
                          const StageShapePricer& price);

struct AdaptiveScheduleOptions {
  // Per-device activation-memory limits; empty disables the memory constraint.
  std::vector<double> device_limit_mb;
  // Injection order of micro-batches into the first stage's forward buffer. Empty
  // means natural order 0..m-1. This is the knob the micro-batch reorderer turns.
  std::vector<int32_t> injection_order;
};

// Returns std::nullopt when scheduling cannot complete within the memory limits
// (some single micro-batch exceeds a device's limit).
std::optional<PipelineSchedule> MemoryAwareAdaptiveSchedule(
    const OpCosts& costs, const AdaptiveScheduleOptions& options = {});

// Largest activation memory any device ever holds simultaneously under `schedule`
// (order-based accounting, same model Alg. 1 uses). Indexed per device.
std::vector<double> ScheduleMemoryHighWater(const PipelineSchedule& schedule,
                                            const OpCosts& costs);

}  // namespace dynapipe::schedule

#endif  // DYNAPIPE_SRC_SCHEDULE_ADAPTIVE_SCHEDULER_H_
