// The fleet coordinator: the reaction half of the control plane.
//
// The HeartbeatMonitor *detects* (liveness state machine, straggler signal);
// FleetCoordinator *acts*. It has one job — every plan runs exactly once, on
// an executor that still polls — and acts on liveness and membership only.
// A flagged straggler moves nothing: its walls come from executor wall-clock,
// which on a simulated cluster is scheduler jitter, not measured stage load.
//
// Members are the listed fleet plus joiners. A member is *active* until it
// stops polling: it dies (kDead: an unclean drop or a missed deadline;
// sticky), drains (kDraining: wire kDrainRequest or the shm slot's drain
// word) or departs (a clean detach, from any state but dead). Each shrinks
// the expected fleet. Plans move for one reason, a member stopped polling,
// by one rule, the sweep: at the end of every input, whatever a non-active
// member still holds — its backlog, or a plan pushed to it later by a
// publisher that has not heard — moves round-robin to the active members;
// with none left it is dropped and counted. With every member active the
// sweep makes no store call. A drain's handoff happens in the sink call
// itself, so the feeder's acknowledgement sent after that call returns (the
// server's kDrainAck reply, the shm poller's AcknowledgeDrain) follows it.
//
// A join moves nothing. A replica outside the active set that turns kAlive —
// a plain wire kAttach, a bare shm AnnounceReplica, or a departed member
// coming back: admission keys off the liveness event, so neither path
// declares anything — is admitted and the expected fleet grows. From then on
// it is a destination of the sweep like every other active member.
//
// No move is ever off an active member. An executor polls its keys strictly
// in order and gives up at the first gap, so a key taken from a member that
// still polls would strand every plan published to it beyond that key.
//
// The sweep moves plans under the one mutex. A move is a store-level Repost
// (plans are byte-stable and keyed by (iteration, replica): a key move, no
// re-plan, no re-encode) to the destination's next *spare* iteration key,
// starting at `spare_iteration_base` (the epoch's iteration count, where an
// open-ended executor polls once its own share is done). Spare keys are
// burned on allocation: a destination key that turns out taken
// (kDestinationTaken — a squatter) is skipped and the next key tried.
//
// One state machine on the caller's clock. The coordinator owns its monitor
// and is the runtime::HeartbeatSink that stores, the mux server and the shm
// poller feed: each input goes to the monitor, and the coordinator reacts to
// the returned update before the call returns, under its one mutex — so the
// member set changes in the same critical section as the monitor's flip.
// Tests drive the same inputs with a `now` of their choosing. The
// coordinator owns no thread: every transition comes from an input the
// caller stamps, the deadline included — PollLiveness applies it, and
// executor::Publisher ticks it in real time. Locks are taken
// coordinator -> monitor and coordinator -> store; the feeders call their
// sink outside every lock the coordinator can reach (the shm poller holds
// only its own pass lock). The coordinator must be the sink before the
// feeders serve and outlive them: executor::Publisher (src/executor/
// publisher.h) wires it that way, and is how runnable programs get one.
#ifndef DYNAPIPE_SRC_SERVICE_FLEET_H_
#define DYNAPIPE_SRC_SERVICE_FLEET_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "src/runtime/instruction_store.h"
#include "src/service/heartbeat_monitor.h"

namespace dynapipe::service {

// The fleet is stated once, here: the coordinator sizes its monitor's
// expected fleet to `replicas.size()`, then to the active member count on
// every join, drain, departure and death. An empty `replicas` is learned
// from joiners.
struct FleetOptions {
  // The fleet at epoch start. A replica outside it that turns alive joins.
  std::vector<int32_t> replicas;
  // First spare iteration key on every destination — normally the epoch's
  // iteration count, where an open-ended executor polls after its own share.
  int64_t spare_iteration_base = 0;
};

// What the coordinator has done so far.
struct FleetReport {
  // Deaths.
  std::vector<int32_t> dead_replicas;  // declaration order
  int64_t replanned_iterations = 0;    // plans moved off the dead
  int64_t dropped_iterations = 0;      // a leaver's, no active member left
  double recovery_ms = 0.0;            // total wall time rehoming them
  // Membership.
  std::vector<int32_t> joined;   // admission order
  std::vector<int32_t> drained;  // drain-request order
  int64_t drain_reposted = 0;    // plans moved off drainers and departed
};

class FleetCoordinator final : public runtime::HeartbeatSink {
 public:
  using Clock = std::chrono::steady_clock;

  // The store holds the plans — the in-process store or the shm segment:
  // plans move in the process where they live. Not owned; it must outlive
  // the coordinator. `monitor_options.expected_replicas` must be 0: the
  // fleet's size is `options.replicas`.
  FleetCoordinator(runtime::RecoverableStore* store,
                   HeartbeatMonitorOptions monitor_options,
                   const FleetOptions& options);

  FleetCoordinator(const FleetCoordinator&) = delete;
  FleetCoordinator& operator=(const FleetCoordinator&) = delete;

  // The monitor's inputs (heartbeat_monitor.h), reacted to in the same call.
  void Beat(int32_t replica, int64_t iteration, double wall_ms,
            Clock::time_point now);
  void Attach(int32_t replica, Clock::time_point now);
  void Drain(int32_t replica, Clock::time_point now);
  void Drop(int32_t replica, bool clean);
  void PollLiveness(Clock::time_point now);

  // runtime::HeartbeatSink: the inputs above at steady_clock::now().
  void OnHeartbeat(int32_t replica, int64_t iteration,
                   double wall_ms) override;
  void OnReplicaAttached(int32_t replica) override;
  void OnReplicaDisconnected(int32_t replica, bool clean) override;
  void OnReplicaDrainRequested(int32_t replica) override;
  bool IsReplicaDead(int32_t replica) const override;

  const HeartbeatMonitor& monitor() const { return monitor_; }
  FleetReport report() const;

  // Members that take work and count toward the expected fleet size
  // (admitted, not dead, draining or departed), ascending.
  std::vector<int32_t> ActiveMembers() const;

 private:
  enum class Member : uint8_t { kActive, kDraining, kDeparted, kDead };

  // Spare destination keys: one counter per destination from the base.
  // Guarded by mu_.
  class SpareKeyAllocator {
   public:
    explicit SpareKeyAllocator(int64_t base) : base_(base) {}
    int64_t Next(int32_t replica) {
      return next_.emplace(replica, base_).first->second++;
    }

   private:
    const int64_t base_;
    std::map<int32_t, int64_t> next_;
  };

  // One input's reaction, then the sweep. Caller holds mu_.
  void ApplyLocked(const MonitorUpdate& update);
  // The reactions; caller holds mu_.
  void OnDeathLocked(int32_t replica);
  void OnJoinLocked(int32_t replica);
  void OnDrainLocked(int32_t replica);
  // Moves whatever non-active `replica` still holds to the active members,
  // or drops it when none is left. The only caller of Repost and of the
  // spare keys.
  void RehomeLocked(int32_t replica, Member state);
  // Applies the active member count to the monitor as its expected fleet
  // size.
  void ResizeLocked();
  std::vector<int32_t> ActiveLocked() const;

  runtime::RecoverableStore* store_;

  mutable std::mutex mu_;
  HeartbeatMonitor monitor_;
  FleetReport report_;
  std::map<int32_t, Member> members_;
  SpareKeyAllocator spare_keys_;
};

}  // namespace dynapipe::service

#endif  // DYNAPIPE_SRC_SERVICE_FLEET_H_
