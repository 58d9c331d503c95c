// Standalone executor: the consumer half of a real multi-process deployment.
//
// DynaPipe's premise (§3) is a centralized, dataloader-side planner producing
// per-iteration execution plans that worker processes consume. The
// PlanAheadService publishes that shape — serialized plans into a store
// backend, over a wire protocol or a shared segment. RunExecutor is the
// consumer end: it attaches to a publisher's store (executor::Publisher,
// publisher.h, built from the same attach string) by Unix-socket path (one
// persistent multiplexed connection) or shared-memory segment name, fetches
// the plans published for its replica (fetch consumes — the publisher side
// of a multi-process run does not execute in-process), executes each on its
// own ClusterSim, and heartbeats
// iteration completion (replica / iteration / wall-ms) back over the
// transport so the publisher's HeartbeatMonitor can attribute stragglers.
// tools/dynapipe_executor.cc wraps this in a daemon binary; tests fork it
// directly to pin byte-identical plan delivery and straggler attribution
// across a process boundary.
//
// The executor deliberately owns no cost model: a plan embeds every shape and
// transfer size an executor needs (the paper's "no shape metadata exchanged
// at runtime", §6), so execution needs only a GroundTruth for durations — a
// deterministic synthetic one here, the real hardware in a deployment.
#ifndef DYNAPIPE_SRC_EXECUTOR_EXECUTOR_H_
#define DYNAPIPE_SRC_EXECUTOR_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/sim/cluster_sim.h"
#include "src/sim/instruction.h"

namespace dynapipe::executor {

// How to reach the publisher's store. kAuto infers from the attach string: a
// POSIX shm name is "/name" with no further slash (kSharedMemory), anything
// else is a socket path (kUnixSocketMux; being a filesystem path, it virtually
// always has one).
enum class AttachEndpoint {
  kAuto,
  kUnixSocketMux,  // MuxInstructionStore, one persistent connection
  kSharedMemory,   // ShmInstructionStore::Attach, no wire at all
};

AttachEndpoint DetectEndpoint(const std::string& attach);

// What one executed iteration looked like; streamed to the observer so tools
// can print progress and tests can verify plan bytes without re-fetching.
struct IterationOutcome {
  int64_t iteration = 0;
  const sim::ExecutionPlan* plan = nullptr;
  const sim::SimResult* sim = nullptr;
  double fetch_ms = 0.0;      // Contains-poll wait excluded; the fetch itself
  double exec_wall_ms = 0.0;  // fetch + simulate + artificial delay
};

struct ExecutorOptions {
  // Socket path or shm segment name, per `endpoint`.
  std::string attach;
  AttachEndpoint endpoint = AttachEndpoint::kAuto;
  // Which replica's plans to fetch.
  int32_t replica = 0;
  int64_t start_iteration = 0;
  // Number of iterations to run; < 0 runs until no new plan appears for
  // idle_timeout_ms (the daemon shape: drain the epoch, then exit).
  int64_t iterations = -1;
  // Artificial per-iteration delay, applied before the heartbeat — a
  // deliberately slowed replica for straggler-detection tests.
  double slow_ms = 0.0;
  // How long to keep polling before concluding the publisher is gone (fatal
  // when `iterations` was explicit) or the epoch is over (clean exit when
  // running open-ended).
  int idle_timeout_ms = 10'000;
  // Connect/attach retry budget while the publisher process is still starting.
  // Mid-run reconnects' per-connect timeout derives from this (1% with a
  // 10 ms floor), so one knob scales the whole attach/reconnect patience.
  int attach_timeout_ms = 10'000;
  // --- Elastic membership ---
  // A replica outside the publisher's fleet joins by attaching like any
  // other: the FleetCoordinator admits the replica when it turns alive, and
  // from then on hands it a share of the plans it sweeps off members that
  // stopped polling, at spare iteration keys — a joiner therefore normally
  // runs open-ended with start_iteration at the publisher's spare base.
  //
  // drain_after >= 0: after this many executed iterations, request a
  // graceful drain (kDrainRequest / the shm slot's drain word), wait for the
  // publisher's acknowledgement (by which point the unfetched backlog has
  // been handed to the survivors), then detach cleanly and exit. -1 never
  // drains.
  int64_t drain_after = -1;
  // Per-iteration hook (nullable). The plan/sim pointers are valid only for
  // the duration of the call.
  std::function<void(const IterationOutcome&)> observer;
};

struct ExecutorReport {
  bool ok = false;
  std::string error;  // set when !ok
  // The server declared this replica dead and refused further service
  // (kEvicted): its plans were re-published to survivors while it was
  // stalled or disconnected, so it stopped instead of double-running them.
  // An open-ended run treats eviction as a clean (ok) exit.
  bool evicted = false;
  // The drain_after handshake completed: the publisher acknowledged the
  // drain and this executor detached cleanly.
  bool drained = false;
  int64_t iterations_run = 0;
  int64_t instructions_executed = 0;
  int64_t heartbeats_sent = 0;
  // Successful reconnects after a mid-run transport error.
  int64_t reconnects = 0;
  double fetch_ms_total = 0.0;
  double exec_wall_ms_total = 0.0;
  double heartbeat_ms_total = 0.0;
};

// Deterministic synthetic hardware for the executor's ClusterSim: durations
// derived only from what the plan itself carries (shapes and transfer sizes),
// so any plan ClusterSim admits executes without profiles or model configs.
// Magnitudes are loosely GPU-shaped (sub-ms kernels, GB/s-scale transfers);
// straggler detection compares wall clock across replicas, not these
// simulated durations.
class SyntheticGroundTruth final : public sim::GroundTruth {
 public:
  double ComputeMs(int32_t device, const sim::Instruction& instr) override;
  double ActivationMb(int32_t device, const sim::Instruction& instr) override;
  double TransferMs(int32_t src, int32_t dst, int64_t bytes) override;
};

// Attaches, drains, heartbeats, returns. A missing, slow, or cleanly
// departed publisher is never an abort: attach failure and a publisher that
// vanishes while we are *between* plans are `ok = false` reports (or, for an
// open-ended run, a clean end-of-epoch). So is a decoded plan that
// ClusterSim refuses, deadlocks on or runs out of memory with: the report
// carries Run's diagnostic. Like every store client, it does
// abort on a violated store contract — corrupt plan bytes, a key consumed
// out from under us, or a peer torn away mid-exchange — because a corrupted
// or half-delivered plan must not execute.
ExecutorReport RunExecutor(const ExecutorOptions& options);

}  // namespace dynapipe::executor

#endif  // DYNAPIPE_SRC_EXECUTOR_EXECUTOR_H_
