// Discrete-event simulation of one pipeline's devices executing an ExecutionPlan.
//
// Each device runs its instruction sequence in order: compute ops occupy the device
// for a ground-truth duration (optionally noisy); comm Start ops post asynchronously
// to the per-pair ordered Channel; Wait ops block the device until the corresponding
// transfer completes. Activation memory is allocated at forward start and released at
// backward completion. The simulation is causal and worklist-driven: when no device
// can make progress and any is unfinished, the iteration has deadlocked and the
// result carries a channel-head diagnostic.
//
// Run is the one plan checker: executors run decoded plans from another process,
// so it refuses a malformed plan (SimResult::refused, the first violation in
// `diagnostic`) instead of aborting. One entry scan refuses
//   - a device count other than the simulator's, or no devices at all;
//   - a micro-batch index outside [0, num_microbatches);
//   - a comm peer out of range or equal to the device itself;
//   - a Wait with no earlier Start of the same kind, micro-batch and peer;
//   - a forward on device j > 0 with no earlier WaitRecvAct for its micro-batch,
//     or a backward on device j < c-1 with no earlier WaitRecvGrad;
//   - anything but exactly one forward, then one backward, per micro-batch per
//     device;
//   - a negative shape field or byte count.
// The channels refuse, where they match, a send/recv pair whose sizes disagree,
// and any channel still holding unmatched ops once every device has finished.
// A refused plan runs no further; deadlock and OOM are results of plans that
// pass.
//
// Data-parallel replicas run as independent ClusterSim instances (they interact only
// through the end-of-iteration gradient allreduce, which the Trainer adds
// analytically) and tensor parallelism is folded into per-stage durations, so a
// ClusterSim's devices are exactly the pipeline stages.
#ifndef DYNAPIPE_SRC_SIM_CLUSTER_SIM_H_
#define DYNAPIPE_SRC_SIM_CLUSTER_SIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/instruction.h"

namespace dynapipe::sim {

// Ground-truth provider: what the "hardware" actually does. The runtime backs this
// with StagePerfModel (+ NoiseModel); tests back it with synthetic tables.
class GroundTruth {
 public:
  virtual ~GroundTruth() = default;
  // Duration of a ForwardPass/BackwardPass instruction on `device`.
  virtual double ComputeMs(int32_t device, const Instruction& instr) = 0;
  // Activation memory retained by `device` between a micro-batch's forward and
  // backward passes.
  virtual double ActivationMb(int32_t device, const Instruction& instr) = 0;
  // Point-to-point transfer duration.
  virtual double TransferMs(int32_t src, int32_t dst, int64_t bytes) = 0;
};

struct ClusterSimOptions {
  // Static (weights/optimizer) memory per device; empty means all zeros.
  std::vector<double> static_memory_mb;
  // Per-device memory limit; <= 0 disables OOM detection.
  double memory_limit_mb = 0.0;
  // Optional: record every compute op and transfer as a timed span (exportable to
  // chrome://tracing via TraceRecorder::ToChromeTrace). Not owned.
  class TraceRecorder* trace = nullptr;
};

struct DeviceStats {
  double finish_ms = 0.0;
  double busy_ms = 0.0;  // compute-occupied time
  double peak_memory_mb = 0.0;
};

struct SimResult {
  bool refused = false;  // malformed plan; nothing else is set
  bool deadlocked = false;
  bool oom = false;
  std::string diagnostic;
  double makespan_ms = 0.0;
  std::vector<DeviceStats> devices;

  // Mean fraction of the makespan each device spent idle ("bubble" fraction).
  double MeanIdleFraction() const;
};

class ClusterSim {
 public:
  ClusterSim(int32_t num_devices, GroundTruth* ground_truth,
             ClusterSimOptions options = {});

  // Executes the plan from t=0, or refuses it (see the top of this file).
  SimResult Run(const ExecutionPlan& plan);

 private:
  int32_t num_devices_;
  GroundTruth* ground_truth_;
  ClusterSimOptions options_;
};

}  // namespace dynapipe::sim

#endif  // DYNAPIPE_SRC_SIM_CLUSTER_SIM_H_
