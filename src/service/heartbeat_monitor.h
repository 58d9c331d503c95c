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
// kDead is *sticky*: a heartbeat or re-attach from a dead replica never
// revives it — its plans may already be re-published, so the only safe
// answer to a zombie is eviction (the server's kEvicted reply, driven by
// IsReplicaDead). Every transition is surfaced through the ReplicaEvent
// callback, which is what FleetCoordinator subscribes to.
//
// The deadline runs on the caller's clock: PollLiveness(now) applies it as of
// `now`, against the steady_clock stamps attaches and heartbeats leave. The
// internal watchdog thread (started only when dead_after_ms > 0) is the one
// real-time caller; tests step `now` forward instead of sleeping.
// Thread-safe: heartbeats arrive concurrently from server connection
// handlers, an in-process execution loop, and the watchdog. Events are
// delivered outside the monitor lock, so a callback may call back into the
// monitor or the store.
#ifndef DYNAPIPE_SRC_SERVICE_HEARTBEAT_MONITOR_H_
#define DYNAPIPE_SRC_SERVICE_HEARTBEAT_MONITOR_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
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
  // draining replica kDead; 0 disables the deadline and the watchdog. The
  // stall-detection deadline: a wedged executor whose connection is still up
  // only ever trips this.
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

// One liveness transition, delivered to the event callback as it happens.
struct ReplicaEvent {
  int32_t replica = 0;
  ReplicaLiveness from = ReplicaLiveness::kUnknown;
  ReplicaLiveness to = ReplicaLiveness::kUnknown;
  std::string reason;  // human-readable: "heartbeat deadline", "connection
                       // dropped", "clean detach", ...
};

class HeartbeatMonitor final : public runtime::HeartbeatSink {
 public:
  explicit HeartbeatMonitor(HeartbeatMonitorOptions options = {});
  ~HeartbeatMonitor() override;

  HeartbeatMonitor(const HeartbeatMonitor&) = delete;
  HeartbeatMonitor& operator=(const HeartbeatMonitor&) = delete;

  // Called (once, at setup, before replicas report) to receive every
  // liveness transition. Invoked outside the monitor lock, possibly from a
  // server connection handler or the watchdog thread.
  void set_event_callback(std::function<void(const ReplicaEvent&)> callback);

  // Called with the finished iteration's stats the moment its report set
  // completes (replicas_reported reaches expected_replicas; requires
  // expected_replicas > 0 — with an unknown fleet size there is no "complete"
  // moment to fire on). This is the straggler *signal* the rebalance control
  // loop subscribes to. Invoked outside the monitor lock from whatever
  // thread delivered the completing heartbeat; same drain guarantee as
  // set_event_callback (setting nullptr waits out in-flight deliveries).
  void set_straggler_callback(
      std::function<void(const IterationHeartbeatStats&)> callback);

  // runtime::HeartbeatSink: one replica finished one iteration. A duplicate
  // (replica, iteration) report overwrites — a reconnecting executor may
  // legitimately resend its last heartbeat. Refreshes the liveness deadline
  // (never reviving kDead — see the sticky rule above).
  void OnHeartbeat(int32_t replica, int64_t iteration,
                   double wall_ms) override;
  void OnReplicaAttached(int32_t replica) override;
  void OnReplicaDisconnected(int32_t replica, bool clean) override;
  // The replica asked to leave the fleet gracefully: transitions it to
  // kDraining and fires the event — the FleetCoordinator's cue to fence
  // it, repost its backlog, and shrink the expected fleet. Ignored for dead
  // replicas (their plans already moved; the server evicts them instead).
  void OnReplicaDrainRequested(int32_t replica) override;
  bool IsReplicaDead(int32_t replica) const override;

  // Elastic membership: re-gate iteration completion (the straggler-callback
  // fire and ForIteration's partial-set guard) on a new fleet size mid-epoch.
  // Shrinking can complete report sets retroactively — an iteration stuck at
  // N-1 of N reporters is complete at N-1 of N-1 — so a shrink fires the
  // straggler callback for every newly-complete iteration (exactly once per
  // iteration, ever; a later growth never un-fires or re-fires one).
  void set_expected_replicas(int32_t expected);
  int32_t expected_replicas() const;

  // Declares dead every alive or draining replica silent for more than
  // dead_after_ms as of `now`; returns how many died. The watchdog calls
  // this with steady_clock::now(); tests pass a `now` of their choosing.
  int PollLiveness(std::chrono::steady_clock::time_point now);

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
  using Clock = std::chrono::steady_clock;

  struct ReplicaState {
    ReplicaLiveness state = ReplicaLiveness::kUnknown;
    Clock::time_point last_seen;  // last attach or heartbeat
  };

  IterationHeartbeatStats ForIterationLocked(int64_t iteration) const;
  // Transition + event record; caller holds mu_ and owns delivering
  // `events` after unlocking (FireEvents).
  void TransitionLocked(int32_t replica, ReplicaLiveness to,
                        const char* reason, std::vector<ReplicaEvent>* events);
  void FireEvents(const std::vector<ReplicaEvent>& events);
  void WatchdogLoop();

  HeartbeatMonitorOptions options_;
  mutable std::mutex mu_;
  // The live fleet size, options_.expected_replicas at construction and
  // adjusted by set_expected_replicas on join/drain. Guarded by mu_.
  int32_t expected_replicas_ = 0;
  // Iterations whose completion already fired the straggler callback — the
  // exactly-once guard now that a shrinking fleet can complete a set both by
  // a fresh heartbeat and by set_expected_replicas. Guarded by mu_.
  std::set<int64_t> straggler_fired_;
  int64_t total_heartbeats_ = 0;
  std::map<int32_t, int64_t> last_iteration_;  // replica -> frontier
  // iteration -> (replica -> wall_ms). Iterations are short-lived keys; the
  // trainer consumes stats per iteration, but nothing is evicted — an epoch
  // is thousands of iterations of a few replicas each, far below memory
  // relevance.
  std::map<int64_t, std::map<int32_t, double>> completions_;

  // Median scratch for ForIterationLocked, reused across calls so the
  // per-iteration stats query (trainer hot loop, once per iteration) stops
  // allocating once it has grown to the fleet size. Guarded by mu_.
  mutable std::vector<double> wall_scratch_;

  std::map<int32_t, ReplicaState> replicas_;  // guarded by mu_
  std::function<void(const ReplicaEvent&)> event_callback_;  // guarded by mu_
  // Fired when an iteration's report set completes; guarded by mu_, shares
  // the in-flight drain protocol below with event_callback_.
  std::function<void(const IterationHeartbeatStats&)> straggler_callback_;
  // Deliveries currently running outside mu_; set_event_callback drains them
  // so a subscriber can unregister safely at its own teardown.
  int callbacks_in_flight_ = 0;  // guarded by mu_
  mutable std::condition_variable callback_cv_;

  // Watchdog: ticks PollLiveness while the deadline is armed.
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  // guarded by mu_
  std::thread watchdog_;
};

}  // namespace dynapipe::service

#endif  // DYNAPIPE_SRC_SERVICE_HEARTBEAT_MONITOR_H_
