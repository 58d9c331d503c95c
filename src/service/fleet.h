// The fleet coordinator: the reaction half of the control plane.
//
// The HeartbeatMonitor *detects* (liveness state machine, straggler signal);
// FleetCoordinator *acts*. It has one job — keep every plan on an executor
// that will run it — and four reactions to the monitor's events:
//
//   death     a replica turns kDead. Its unfetched backlog is reposted
//             round-robin to the surviving members; with no survivor left
//             the backlog is dropped and counted.
//   straggle  (rebalance on) a member flagged on `rebalance_consecutive_flags`
//             complete iterations in a row sheds the tail of its backlog —
//             at most `rebalance_max_moves` plans — to members that kept
//             pace, then is immune for `rebalance_hysteresis_iterations`.
//             The slow replica keeps the iterations it reaches next (its
//             fetch may be in flight); the furthest-future plans are the ones
//             a fast replica overtakes.
//   join      (membership on) a replica outside the member set turns kAlive —
//             a wire attach with kAttachCapJoin, or a bare shm
//             AnnounceReplica: admission keys off the liveness event, so the
//             shm path needs no attach frame. It is admitted, the expected
//             fleet grows, and it steals a fair share (deepest backlog / new
//             fleet size) of the deepest member's tail.
//   drain     (membership on) a member turns kDraining (wire kDrainRequest or
//             the shm slot's drain word). It is fenced in the store, its
//             backlog is reposted to the surviving members, the expected
//             fleet shrinks, and `drain_ack` fires — over the wire the
//             server's kDrainAck reply, sent when the synchronous event chain
//             returns, is the ack; the shm path passes
//             ShmInstructionStore::AcknowledgeDrain. A drainer that then
//             detaches cleanly is retired; its fence stays until it re-joins.
//
// All four move plans between the same member set — the initial fleet plus
// joiners, minus the dead and the draining — through one private mover. A
// move is a store-level Repost (plans are byte-stable and keyed by
// (iteration, replica): a key move, no re-plan, no re-encode) to the
// destination's next *spare* iteration key, starting at
// `spare_iteration_base` (the epoch's iteration count, where an open-ended
// executor polls once its own share is done). Spare keys are burned on
// allocation: a destination that turns out taken (kDestinationTaken — a
// squatter, or a replica fenced after the destinations were chosen) is
// skipped and the next key tried.
//
// The gap-filling rule lives in the mover alone. An executor polls its keys
// strictly in order and gives up at the first gap, so a live victim's pending
// keys must stay contiguous from its poll cursor. A tail steal (straggle,
// join) vacates a live victim's highest keys; the mover hands each vacated
// key back, and the next repost *to* that victim reuses released keys
// smallest-first before minting fresh ones — it fills the gap instead of
// landing beyond a hole the victim never crosses. The keys of dead and
// draining victims are never released: neither is ever a destination again.
//
// Thread-safe: events arrive from server connection handlers, the shm
// poller, the watchdog and the publisher loop concurrently. One mutex guards
// the member set, the report, the rebalance streaks and the spare keys; it
// is never held across set_expected_replicas (a shrink fires the straggler
// callback synchronously, back into this coordinator) or drain_ack.
// Construct after the monitor, destroy first — the destructor unregisters
// both callbacks and drains in-flight deliveries.
#ifndef DYNAPIPE_SRC_SERVICE_FLEET_H_
#define DYNAPIPE_SRC_SERVICE_FLEET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "src/runtime/instruction_store.h"
#include "src/service/heartbeat_monitor.h"

namespace dynapipe::service {

struct FleetOptions {
  // The fleet at epoch start. A death outside the member set (an unknown
  // attacher) is recorded, and whatever it holds is reposted like any death.
  std::vector<int32_t> replicas;
  // First spare iteration key on every destination — normally the epoch's
  // iteration count, where an open-ended executor polls after its own share.
  int64_t spare_iteration_base = 0;
  // Straggler rebalance. Registers the coordinator as the monitor's straggler
  // callback, which needs the monitor's expected_replicas set: with an
  // unknown fleet size no iteration ever completes and nothing fires.
  bool rebalance = false;
  int32_t rebalance_consecutive_flags = 3;  // flagged iterations in a row
  int32_t rebalance_max_moves = 2;          // plans shed per trigger
  int64_t rebalance_hysteresis_iterations = 4;  // immunity after shedding
  // Elastic membership: admit joiners, hand off drainers, and keep the
  // monitor's expected fleet size equal to the active member count.
  bool membership = false;
  // Backend acknowledgement for a completed drain handoff; null on the wire
  // (see the header comment).
  std::function<void(int32_t)> drain_ack;
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

class FleetCoordinator {
 public:
  // Registers itself as `monitor`'s event callback (and straggler callback
  // when rebalance is on). Neither pointer is owned; both must outlive the
  // coordinator. The store must have a recovery surface
  // (supports_recovery()) — the in-process store or the shm segment: plans
  // move in the process where they live.
  FleetCoordinator(runtime::InstructionStoreInterface* store,
                   HeartbeatMonitor* monitor, FleetOptions options);
  ~FleetCoordinator();

  FleetCoordinator(const FleetCoordinator&) = delete;
  FleetCoordinator& operator=(const FleetCoordinator&) = delete;

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

  void OnEvent(const ReplicaEvent& event);
  void OnDeath(int32_t replica);
  void OnIterationComplete(const IterationHeartbeatStats& stats);
  void OnJoin(int32_t replica);
  void OnDrain(int32_t replica);

  // Moves `plans` off `victim` in order, round-robin over `destinations`
  // (advancing on each move), each to the destination's next spare key.
  // Returns the source iterations that moved. The only caller of Repost and
  // of the spare keys. Caller holds mu_.
  std::vector<int64_t> MoveLocked(int32_t victim,
                                  const std::vector<int64_t>& plans,
                                  const std::vector<int32_t>& destinations);
  // Active members other than `replica` that can take work (not fenced).
  // Caller holds mu_.
  std::vector<int32_t> PeersLocked(int32_t replica) const;
  std::vector<int32_t> ActiveLocked() const;
  // Pushes the active member count into the monitor as its expected fleet
  // size. Called without mu_; concurrent callers coalesce so the last value
  // applied is always the current one.
  void SyncExpectedReplicas();

  runtime::InstructionStoreInterface* store_;
  HeartbeatMonitor* monitor_;
  const FleetOptions options_;

  mutable std::mutex mu_;
  FleetReport report_;
  std::map<int32_t, Member> members_;
  SpareKeyAllocator spare_keys_;
  std::map<int32_t, int32_t> streak_;          // replica -> flags in a row
  std::map<int32_t, int64_t> cooldown_until_;  // replica -> immune below this
  bool syncing_expected_ = false;
  bool resync_expected_ = false;
};

}  // namespace dynapipe::service

#endif  // DYNAPIPE_SRC_SERVICE_FLEET_H_
