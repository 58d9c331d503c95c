// Heartbeat monitor: per-replica liveness tracking and straggler detection.
//
// Executor processes report iteration completion back to the publisher — a
// kHeartbeat frame over the wire backends, or a direct OnHeartbeat call for
// replicas a process executes itself (the Trainer's in-process loop). The monitor keeps two views of that
// stream:
//   - per-replica progress: the last iteration each replica completed (a
//     replica whose frontier stops advancing is dead or wedged);
//   - per-iteration completion times: every replica's wall-ms for iteration
//     i, from which it derives the iteration's median and flags *stragglers*
//     — replicas whose completion exceeds straggler_multiple x the median
//     (plus an absolute slack so microsecond-scale jitter on fast iterations
//     never flags).
//
// On top of lag it tracks *liveness* — the one fact the publisher acts on:
// is this replica dead, so its plans must move?
//
//   kUnknown/kDetached ──attach/heartbeat──> kAlive
//   kAlive/kDraining ──no heartbeat for dead_after_ms──> kDead
//   any non-dead ──unclean connection drop──> kDead  (a vanished process —
//                                  the SIGKILL case — or a peer the server
//                                  dropped for a malformed frame)
//   any non-dead ──drain request──> kDraining (elastic membership: the
//                                   replica asked to leave; heartbeats for
//                                   in-flight work still refresh its deadline
//                                   but never revive it to kAlive, and a
//                                   wedged drainer still dies by deadline)
//   any non-dead ──clean detach──> kDetached (deadline tracking stops)
//
// kDead is *sticky*: a heartbeat or re-attach from a dead replica changes
// nothing — its plans may already be re-published, so the only safe answer
// to a zombie is eviction (the server's kEvicted reply, driven by
// IsReplicaDead), and its late report must not complete a report set.
//
// A pure detector on the caller's clock. Every input (Beat, Attach, Drain,
// Drop, set_expected_replicas, PollLiveness) applies one event as of the
// caller's `now` and returns what it changed: the liveness transitions in
// order, and the iterations whose report set it completed. The monitor owns
// no thread; the FleetCoordinator feeds it and reacts to the returned update,
// tests step `now` instead of sleeping. The HeartbeatSink overrides are the
// same inputs stamped with steady_clock::now(), update dropped — for callers
// that use the detector alone. Thread-safe: server connection handlers, the
// shm poller and an in-process loop may call a bare monitor concurrently.
#ifndef DYNAPIPE_SRC_SERVICE_HEARTBEAT_MONITOR_H_
#define DYNAPIPE_SRC_SERVICE_HEARTBEAT_MONITOR_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/runtime/instruction_store.h"

namespace dynapipe::service {

enum class ReplicaLiveness : uint8_t {
  kUnknown = 0,  // never seen
  kAlive,
  kDead,      // declared dead; sticky (recovery may have moved its plans)
  kDetached,  // clean goodbye; absence is expected, deadlines off
  kDraining,  // asked to leave gracefully; finishing in-flight work, must not
              // be handed anything new (the FleetCoordinator's cue)
};

const char* ReplicaLivenessName(ReplicaLiveness state);

struct HeartbeatMonitorOptions {
  // A replica straggles on iteration i when
  //   wall_ms > straggler_multiple * median(wall_ms of all replicas on i)
  //             + min_straggler_gap_ms.
  // The multiple is the paper-style relative criterion; the absolute gap
  // keeps sub-millisecond iterations (simulated runs, empty plans) from
  // flagging on scheduler noise.
  double straggler_multiple = 2.0;
  double min_straggler_gap_ms = 0.0;

  // Silence (no heartbeat/attach) longer than this declares an alive or
  // draining replica kDead; 0 disables the deadline. The stall-detection
  // deadline: a wedged executor whose connection is still up only ever trips
  // this. PollLiveness applies it; executor::Publisher ticks it in real time.
  double dead_after_ms = 0.0;

  // How many replicas are expected to report each iteration (the Trainer
  // passes its DP width). 0 = unknown: straggler flagging falls back to
  // whatever subset has reported. When set, ForIteration flags stragglers
  // only once at least this many replicas reported — a mid-iteration query
  // with 1–2 reporters yields a meaningless median and used to mis-flag
  // early finishers.
  int32_t expected_replicas = 0;
};

// One iteration's completion picture so far.
struct IterationHeartbeatStats {
  int64_t iteration = 0;
  int32_t replicas_reported = 0;
  // The expected fleet size at query time (options.expected_replicas as
  // adjusted by set_expected_replicas), echoed so a caller can see a partial
  // picture for what it is (reported < expected = iteration still in flight).
  int32_t replicas_expected = 0;
  double median_wall_ms = 0.0;
  double max_wall_ms = 0.0;
  // Replicas over the straggler threshold, ascending. Empty while the report
  // set is partial (reported < expected) — a median over whichever subset
  // happened to finish first is not a threshold.
  std::vector<int32_t> stragglers;
};

// One liveness transition.
struct ReplicaEvent {
  int32_t replica = 0;
  ReplicaLiveness from = ReplicaLiveness::kUnknown;
  ReplicaLiveness to = ReplicaLiveness::kUnknown;
  std::string reason;  // human-readable: "heartbeat deadline", "connection
                       // dropped", "clean detach", ...
};

// What one input changed.
struct MonitorUpdate {
  std::vector<ReplicaEvent> transitions;  // in the order they happened
  // Iterations whose report set this input completed (replicas_reported
  // reached expected_replicas; needs expected_replicas > 0), as of the
  // completion. Each iteration completes at most once, ever: a duplicate
  // beat overwrites its wall, and a later growth of the fleet never
  // re-completes it. The straggler signal the rebalance loop acts on.
  std::vector<IterationHeartbeatStats> completed;
};

class HeartbeatMonitor final : public runtime::HeartbeatSink {
 public:
  using Clock = std::chrono::steady_clock;

  explicit HeartbeatMonitor(HeartbeatMonitorOptions options = {});

  HeartbeatMonitor(const HeartbeatMonitor&) = delete;
  HeartbeatMonitor& operator=(const HeartbeatMonitor&) = delete;

  // One replica finished one iteration. A duplicate (replica, iteration)
  // report overwrites — a reconnecting executor may legitimately resend its
  // last heartbeat. Refreshes the liveness deadline; a dead replica's beat
  // changes nothing (the sticky rule above).
  MonitorUpdate Beat(int32_t replica, int64_t iteration, double wall_ms,
                     Clock::time_point now);
  MonitorUpdate Attach(int32_t replica, Clock::time_point now);
  // The replica asked to leave the fleet gracefully: kDraining, the
  // FleetCoordinator's cue to drop it from the member set, repost its
  // backlog, and shrink the expected fleet. Ignored for dead replicas (their plans already moved;
  // the server evicts them instead).
  MonitorUpdate Drain(int32_t replica, Clock::time_point now);
  MonitorUpdate Drop(int32_t replica, bool clean);
  // Elastic membership: re-gate iteration completion on a new fleet size
  // mid-epoch. Shrinking can complete report sets retroactively — an
  // iteration stuck at N-1 of N reporters is complete at N-1 of N-1.
  MonitorUpdate set_expected_replicas(int32_t expected);
  // Declares dead every alive or draining replica silent for more than
  // dead_after_ms as of `now`.
  MonitorUpdate PollLiveness(Clock::time_point now);

  // runtime::HeartbeatSink: the inputs above at steady_clock::now(), the
  // update dropped. A heartbeat records nothing for the caller to drop, so
  // the detector alone allocates nothing per iteration.
  void OnHeartbeat(int32_t replica, int64_t iteration,
                   double wall_ms) override;
  void OnReplicaAttached(int32_t replica) override;
  void OnReplicaDisconnected(int32_t replica, bool clean) override;
  void OnReplicaDrainRequested(int32_t replica) override;
  bool IsReplicaDead(int32_t replica) const override;

  int32_t expected_replicas() const;
  ReplicaLiveness Liveness(int32_t replica) const;
  // Replicas declared dead so far, ascending.
  std::vector<int32_t> DeadReplicas() const;

  // Snapshot of iteration `iteration` (zeros when nothing reported yet).
  IterationHeartbeatStats ForIteration(int64_t iteration) const;

  // Last iteration `replica` completed; -1 before its first heartbeat. The
  // per-replica progress frontier.
  int64_t LastIteration(int32_t replica) const;

  int64_t total_heartbeats() const;

 private:
  struct ReplicaState {
    ReplicaLiveness state = ReplicaLiveness::kUnknown;
    // Last attach or heartbeat. Never moves back: inputs stamped on other
    // threads may be applied out of stamp order.
    Clock::time_point last_seen;
  };

  // One iteration's report set. Iterations are short-lived keys; the trainer
  // consumes stats per iteration, but nothing is evicted — an epoch is
  // thousands of iterations of a few replicas each, far below memory
  // relevance.
  struct IterationReports {
    std::map<int32_t, double> walls;  // replica -> wall_ms
    bool completed = false;           // reported as completed, ever
  };

  // The input bodies; caller holds mu_. A null `update` records nothing.
  void BeatLocked(int32_t replica, int64_t iteration, double wall_ms,
                  Clock::time_point now, MonitorUpdate* update);
  // Marks `reports` completed once it reaches the expected fleet size.
  void CompleteLocked(int64_t iteration, IterationReports& reports,
                      MonitorUpdate* update);
  void TransitionLocked(int32_t replica, ReplicaLiveness to,
                        const char* reason, MonitorUpdate* update);
  IterationHeartbeatStats ForIterationLocked(int64_t iteration) const;

  const HeartbeatMonitorOptions options_;
  mutable std::mutex mu_;
  // The live fleet size, options_.expected_replicas at construction and
  // adjusted by set_expected_replicas on join/drain. Guarded by mu_.
  int32_t expected_replicas_ = 0;
  int64_t total_heartbeats_ = 0;
  std::map<int32_t, int64_t> last_iteration_;  // replica -> frontier
  std::map<int64_t, IterationReports> completions_;  // by iteration

  // Median scratch for ForIterationLocked, reused across calls so the
  // per-iteration stats query (trainer hot loop, once per iteration) stops
  // allocating once it has grown to the fleet size. Guarded by mu_.
  mutable std::vector<double> wall_scratch_;

  std::map<int32_t, ReplicaState> replicas_;  // guarded by mu_
};

}  // namespace dynapipe::service

#endif  // DYNAPIPE_SRC_SERVICE_HEARTBEAT_MONITOR_H_
