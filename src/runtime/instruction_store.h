// Instruction store: the publish-before-fetch plan hand-off point.
//
// Planners push compiled execution plans keyed by (iteration, replica);
// executors fetch them when the iteration starts. The paper uses Redis in host
// memory holding *serialized* instruction streams so CPU-side planning of
// future iterations overlaps GPU execution (§3). InstructionStoreInterface is
// that contract as an abstract API — fetching a missing plan is a fatal
// error, as is double-publishing, and capacity backpressure surfaces as a
// blocking Push — with two implementations:
//   - InstructionStore (below): the in-process store, optionally holding
//     plans in the compact plan_serde byte format (serialized mode) and
//     optionally capacity-bounded (Push blocks while `capacity` plans are
//     resident, backpressuring planners that run ahead of the executors — the
//     paper's bounded Redis working set). An InstructionStoreServer
//     (src/transport/) serves it over a socket to executor processes;
//   - transport::ShmInstructionStore: a shared-memory segment that
//     same-host executor processes attach to by name and fetch from with no
//     wire at all.
// Plans are always published in the process where the store lives. The
// executor's socket client (transport::MuxInstructionStore) only fetches and
// is not an implementation of this interface. Everything above the interface
// (PlanAheadService, Trainer) is agnostic to which one it is talking to. Both
// hold the plans themselves, so both are also a RecoverableStore, the surface
// the fleet coordinator moves plans through.
#ifndef DYNAPIPE_SRC_RUNTIME_INSTRUCTION_STORE_H_
#define DYNAPIPE_SRC_RUNTIME_INSTRUCTION_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/instruction.h"

namespace dynapipe::runtime {

// Receives executor liveness reports on the planner side. The transport
// server, the in-process store and the shm poller forward heartbeats here;
// the concrete sink is a service::HeartbeatMonitor (detection alone) or a
// service::FleetCoordinator (detection plus the reaction, in the same call),
// kept abstract at this layer so runtime does not depend on service.
// Implementations must be thread-safe: heartbeats arrive from any number of
// connection handlers. Callers deliver outside their own locks — a
// coordinator calls straight back into the store.
class HeartbeatSink {
 public:
  virtual ~HeartbeatSink() = default;
  // One executor finished `iteration` on `replica` in `wall_ms` of wall-clock
  // time (measured from plan availability to completion).
  virtual void OnHeartbeat(int32_t replica, int64_t iteration,
                          double wall_ms) = 0;

  // --- Liveness lifecycle (optional; defaults are no-ops so lag-only sinks
  // keep working). The transport server calls these from its connection
  // handlers: an executor announces itself with a kAttach frame, leaves
  // cleanly with kDetach, and a connection that ends while replicas are
  // still attached is an *unclean* disconnect — the SIGKILLed/vanished
  // executor case the liveness machinery exists for.
  virtual void OnReplicaAttached(int32_t replica) { (void)replica; }
  virtual void OnReplicaDisconnected(int32_t replica, bool clean) {
    (void)replica;
    (void)clean;
  }
  // True once the sink has declared `replica` dead (sticky). The server uses
  // this to fence zombies: heartbeats and attaches from a dead replica get a
  // kEvicted reply instead of an ack, so a stalled-then-woken executor
  // learns its plans were re-published and exits instead of double-running.
  virtual bool IsReplicaDead(int32_t replica) const {
    (void)replica;
    return false;
  }
  // frame v4: the replica asked to leave gracefully (kDrainRequest on the
  // wire, a drain-state heartbeat slot on shm). Default no-op so lag-only
  // sinks keep working; the HeartbeatMonitor turns it into a kDraining
  // transition, which the FleetCoordinator hands off before it returns.
  virtual void OnReplicaDrainRequested(int32_t replica) { (void)replica; }
};

// Why a plan move failed (or didn't). The FleetCoordinator's mover branches
// on this: a vanished source means the work already happened (skip),
// a taken destination means the spare key is burned (advance and retry) —
// collapsing both into `false` is exactly the bug that silently lost reposts
// when a survivor died twice.
enum class RepostOutcome : uint8_t {
  kMoved,             // plan now resides at the destination key
  kSourceGone,        // fetched out from under us — the race is benign
  kDestinationTaken,  // destination key already published; pick another
};

// The store contract every backend implements. Thread-safe; one producer
// pipeline and any number of fetching executors.
class InstructionStoreInterface {
 public:
  virtual ~InstructionStoreInterface() = default;

  // Publishes one replica's plan. Blocks while the store is at capacity;
  // publishing a key twice aborts. After Shutdown, Push drops the plan and
  // returns immediately (the pipeline is being torn down).
  virtual void Push(int64_t iteration, int32_t replica,
                    sim::ExecutionPlan plan) = 0;

  // Fetch removes the plan (each plan is executed exactly once) and unblocks
  // one waiting Push. Fetching an unpublished plan aborts.
  virtual sim::ExecutionPlan Fetch(int64_t iteration, int32_t replica) = 0;

  virtual bool Contains(int64_t iteration, int32_t replica) const = 0;
  virtual size_t size() const = 0;

  // Unblocks and disarms all current and future Push calls. For tearing down
  // a plan-ahead pipeline whose consumer stopped fetching (e.g. the epoch
  // failed mid-flight); fetch of already-published plans still works.
  virtual void Shutdown() = 0;

  // Cumulative encoded bytes pushed through this endpoint (0 when plans never
  // cross an encode boundary) — the "wire" volume the paper's Redis store
  // would carry.
  virtual int64_t serialized_bytes_total() const = 0;
};

// A store that holds the plans itself and can move them: the planner-side
// machinery the FleetCoordinator sits on. The in-process store and the shm
// segment are recoverable; remote *clients* are not — recovery always runs
// in the process where the plans live.
class RecoverableStore : public InstructionStoreInterface {
 public:
  // Iterations currently published for `replica`, ascending — the unfetched
  // backlog a FleetCoordinator may move.
  virtual std::vector<int64_t> PendingIterations(int32_t replica) const = 0;
  // Moves one resident plan to a new key, verbatim (plans are byte-stable, so
  // re-publishing to a survivor is a key move, not a re-encode). Outcomes are
  // never fatal: coordinator races must degrade, not abort the trainer.
  virtual RepostOutcome Repost(int64_t src_iteration, int32_t src_replica,
                               int64_t dst_iteration, int32_t dst_replica) = 0;
  // Discards every resident plan for `replica` and returns how many; frees
  // capacity slots (wakes blocked pushes) like any fetch.
  virtual size_t DropReplica(int32_t replica) = 0;
};

struct InstructionStoreOptions {
  // Encode plans on Push and decode on Fetch (service/plan_serde format).
  bool serialized = false;
  // Maximum resident plans; Push blocks until a Fetch frees a slot. 0 means
  // unbounded (the in-process default).
  size_t capacity = 0;
};

// The in-process backend (and the storage a transport server fronts).
class InstructionStore final : public RecoverableStore {
 public:
  InstructionStore() = default;
  explicit InstructionStore(InstructionStoreOptions options)
      : options_(options) {}

  void Push(int64_t iteration, int32_t replica,
            sim::ExecutionPlan plan) override;
  sim::ExecutionPlan Fetch(int64_t iteration, int32_t replica) override;
  bool Contains(int64_t iteration, int32_t replica) const override;
  size_t size() const override;
  void Shutdown() override;
  int64_t serialized_bytes_total() const override;

  // Byte-level entry points for the transport server (serialized mode only):
  // the wire already carries plan_serde bytes, so the server stores and
  // returns them verbatim — no decode/encode cycle, and plans stay
  // byte-identical end to end. Same contract as Push/Fetch: PushBytes blocks
  // at capacity (returns false when Shutdown dropped the plan instead), and
  // FetchBytes of an unpublished key aborts.
  bool PushBytes(int64_t iteration, int32_t replica, std::string bytes);
  std::string FetchBytes(int64_t iteration, int32_t replica);
  // Like FetchBytes, but a missing key is nullopt instead of an abort. The
  // transport server fetches through this: after recovery reposted a dead
  // replica's plans, a zombie executor's fetch of the moved key must become
  // a kMissing reply on *its* connection, never a crash in the publisher.
  std::optional<std::string> TryFetchBytes(int64_t iteration, int32_t replica);

  // RecoverableStore (planner side).
  std::vector<int64_t> PendingIterations(int32_t replica) const override;
  RepostOutcome Repost(int64_t src_iteration, int32_t src_replica,
                       int64_t dst_iteration, int32_t dst_replica) override;
  size_t DropReplica(int32_t replica) override;

  // Liveness relays for the transport server; forwarded to the sink (outside
  // the store lock) when one is attached, no-ops otherwise.
  void NotifyReplicaAttached(int32_t replica);
  void NotifyReplicaDisconnected(int32_t replica, bool clean);
  void NotifyReplicaDrainRequested(int32_t replica);
  bool ReplicaConsideredDead(int32_t replica) const;

  // The sink the relays above and Heartbeat forward to. Not owned; must
  // strictly outlive the store — delivery happens outside the store's lock,
  // so swapping the sink out (or to nullptr) cannot be used to quiesce
  // in-flight Heartbeat calls.
  void set_heartbeat_sink(HeartbeatSink* sink);
  // Reports that an executor finished `iteration` on `replica` in `wall_ms`
  // of wall clock: the transport server's kHeartbeat relay. Forwarded to the
  // sink (outside the store lock); false when none is attached.
  bool Heartbeat(int32_t replica, int64_t iteration, double wall_ms);

  const InstructionStoreOptions& options() const { return options_; }

 private:
  struct Entry {
    sim::ExecutionPlan plan;  // in-memory mode
    std::string bytes;        // serialized mode
  };

  // Shared Push/PushBytes tail: waits for headroom, rejects double publish,
  // inserts. Returns false when Shutdown dropped the entry.
  bool Insert(int64_t iteration, int32_t replica, Entry entry,
              size_t encoded_bytes);
  Entry Remove(int64_t iteration, int32_t replica);

  InstructionStoreOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  HeartbeatSink* heartbeat_sink_ = nullptr;  // guarded by mu_
  bool shutdown_ = false;
  int64_t serialized_bytes_total_ = 0;
  std::map<std::pair<int64_t, int32_t>, Entry> plans_;
};

}  // namespace dynapipe::runtime

#endif  // DYNAPIPE_SRC_RUNTIME_INSTRUCTION_STORE_H_
