// The fleet coordinator: the reaction half of the control plane.
//
// The HeartbeatMonitor *detects* (liveness state machine, straggler signal);
// FleetCoordinator *acts*. It has one job — keep every plan on an executor
// that will run it — and four reactions to what its monitor reports:
//
//   death     a replica turns kDead. Its unfetched backlog is reposted
//             round-robin to the surviving members; with no survivor left
//             the backlog is dropped and counted. The expected fleet
//             shrinks. A plan pushed to it later (a publisher that has not
//             heard) moves, or is dropped, the same way on the coordinator's
//             next input: every input sweeps the dead members' keys, and with
//             no dead member makes no store call.
//   straggle  (rebalance on) a member flagged on `rebalance_consecutive_flags`
//             complete iterations in a row sheds the tail of its backlog —
//             at most `rebalance_max_moves` plans — to members that kept
//             pace, then is immune for `rebalance_hysteresis_iterations`.
//             The slow replica always keeps its lowest pending plan — the
//             one it reaches next, whose fetch may be in flight — so a shed
//             moves at most pending - 1; the furthest-future plans are the
//             ones a fast replica overtakes.
//   join      a replica outside the member set turns kAlive — a plain wire
//             kAttach, or a bare shm AnnounceReplica: admission keys off the
//             liveness event, so neither path declares anything. It is
//             admitted, the expected fleet grows, and it steals a fair share
//             (deepest backlog / new fleet size) of the deepest member's
//             tail.
//   drain     a member turns kDraining (wire kDrainRequest or the shm slot's
//             drain word). It leaves the member set, its
//             backlog is reposted to the surviving members and the expected
//             fleet shrinks, all before the sink call returns — so the
//             feeder's acknowledgement sent after that return (the server's
//             kDrainAck reply, the shm poller's AcknowledgeDrain) follows
//             the handoff. A drainer that then detaches cleanly is retired;
//             a re-join admits it afresh.
//
// All four move plans between the same member set — the listed fleet plus
// joiners, minus the dead, the draining and the retired — through one
// private mover under the one mutex, so the member set alone decides who
// receives work. A move is a store-level Repost (plans are byte-stable and
// keyed by (iteration, replica): a key move, no re-plan, no re-encode) to
// the destination's next *spare* iteration key, starting at
// `spare_iteration_base` (the epoch's iteration count, where an open-ended
// executor polls once its own share is done). Spare keys are burned on
// allocation: a destination key that turns out taken (kDestinationTaken — a
// squatter) is skipped and the next key tried.
//
// The gap-filling rule lives in the mover alone. An executor polls its keys
// strictly in order and gives up at the first gap, so a live victim's pending
// keys must stay contiguous from its poll cursor. A tail steal (straggle,
// join) vacates a live victim's highest keys; the mover hands each vacated
// key back, and the next repost *to* that victim reuses released keys
// smallest-first before minting fresh ones — it fills the gap instead of
// landing beyond a hole the victim never crosses. The keys of dead and
// draining victims are never released: neither polls them again.
//
// One state machine on the caller's clock. The coordinator owns its monitor
// and is the runtime::HeartbeatSink that stores, the mux server and the shm
// poller feed: each input goes to the monitor, and the coordinator reacts to
// the returned update before the call returns, under its one mutex — so the
// member set changes in the same critical section as the monitor's flip,
// and a drain's shrink reacts to the report sets it completes in place.
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
#include <set>
#include <vector>

#include "src/runtime/instruction_store.h"
#include "src/service/heartbeat_monitor.h"

namespace dynapipe::service {

// The fleet is stated once, here: the coordinator sizes its monitor's
// expected fleet to `replicas.size()`, then to the active member count on
// every join, drain and death. An empty `replicas` is learned from joiners.
struct FleetOptions {
  // The fleet at epoch start. A replica outside it that turns alive joins.
  std::vector<int32_t> replicas;
  // First spare iteration key on every destination — normally the epoch's
  // iteration count, where an open-ended executor polls after its own share.
  int64_t spare_iteration_base = 0;
  // Straggler rebalance on every completed report set.
  bool rebalance = false;
  int32_t rebalance_consecutive_flags = 3;  // flagged iterations in a row
  int32_t rebalance_max_moves = 2;          // plans shed per trigger
  int64_t rebalance_hysteresis_iterations = 4;  // immunity after shedding
};

// What the coordinator has done so far.
struct FleetReport {
  // Deaths.
  std::vector<int32_t> dead_replicas;  // declaration order
  int64_t replanned_iterations = 0;    // plans moved to survivors
  int64_t dropped_iterations = 0;      // no survivor left to take them
  double recovery_ms = 0.0;            // total detect -> re-publish wall time
  // Stragglers.
  int64_t shed_events = 0;              // triggers that moved >= 1 plan
  int64_t shed_iterations = 0;          // plans migrated in total
  std::vector<int32_t> shed_replicas;  // first-trigger order
  // Membership.
  std::vector<int32_t> joined;   // admission order
  std::vector<int32_t> drained;  // handoff order
  int64_t join_stolen = 0;       // backlog moved to joiners
  int64_t drain_reposted = 0;    // backlog moved off drainers
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
                   FleetOptions options);

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
  // (admitted, not dead, not draining), ascending.
  std::vector<int32_t> ActiveMembers() const;

 private:
  enum class Member : uint8_t { kActive, kDraining, kDead };

  // Spare destination keys: one counter per destination from the base, plus
  // keys vacated on live victims, reissued smallest-first. Guarded by mu_.
  class SpareKeyAllocator {
   public:
    explicit SpareKeyAllocator(int64_t base) : base_(base) {}
    int64_t Next(int32_t replica);
    void Release(int32_t replica, int64_t key) {
      released_[replica].insert(key);
    }

   private:
    const int64_t base_;
    std::map<int32_t, int64_t> next_;
    std::map<int32_t, std::set<int64_t>> released_;
  };

  // One input's reaction, then a sweep of every dead member's keys. Caller
  // holds mu_.
  void ApplyLocked(const MonitorUpdate& update);
  // The reactions; caller holds mu_.
  void ReactLocked(const MonitorUpdate& update);
  void OnDeathLocked(int32_t replica);
  // Moves whatever `dead` still holds to the active members, or drops it
  // when none is left.
  void RehomeLocked(int32_t dead);
  void OnIterationCompleteLocked(const IterationHeartbeatStats& stats);
  void OnJoinLocked(int32_t replica);
  void OnDrainLocked(int32_t replica);
  // Applies the active member count to the monitor as its expected fleet
  // size and reacts to the report sets that completes.
  void ResizeLocked();

  // Moves `plans` off `victim` in order, round-robin over `destinations`
  // (advancing on each move), each to the destination's next spare key.
  // Returns the source iterations that moved. The only caller of Repost and
  // of the spare keys. Caller holds mu_.
  std::vector<int64_t> MoveLocked(int32_t victim,
                                  const std::vector<int64_t>& plans,
                                  const std::vector<int32_t>& destinations);
  // Active members other than `replica`: the destinations of every move.
  // Caller holds mu_.
  std::vector<int32_t> PeersLocked(int32_t replica) const;
  std::vector<int32_t> ActiveLocked() const;
  runtime::RecoverableStore* store_;
  const FleetOptions options_;

  mutable std::mutex mu_;
  HeartbeatMonitor monitor_;
  FleetReport report_;
  std::map<int32_t, Member> members_;
  SpareKeyAllocator spare_keys_;
  std::map<int32_t, int32_t> streak_;          // replica -> flags in a row
  std::map<int32_t, int64_t> cooldown_until_;  // replica -> immune below this
};

}  // namespace dynapipe::service

#endif  // DYNAPIPE_SRC_SERVICE_FLEET_H_
