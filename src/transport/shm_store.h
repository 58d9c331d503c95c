// Shared-memory instruction store: zero-copy same-host plan distribution.
//
// The socket path (mux.h) pays an encode, two copies, and a wire round trip per
// hop. Plans are immutable once published, so same-host executors can instead
// map the store's memory directly: a POSIX shared memory segment (shm_open +
// mmap) holding an append-only arena of serialized plans plus a fixed-slot
// index keyed by (iteration, replica). The publisher encodes each plan straight
// into the arena (one write, no intermediate copy beyond its reusable scratch
// buffer) and flips the slot's seqlock to publish; executors in any process
// attach by name and fetch a zero-copy view of the bytes — a std::string_view
// into the mapping — which Fetch decodes in place with TryDecodeExecutionPlan.
// Nothing crosses a wire and nothing is copied on the fetch side.
//
// Layout (one segment, version 2):
//
//   ShmHeader | ShmHeartbeatSlot[kShmHeartbeatSlots] | ShmSlot[num_slots]
//             | arena bytes...
//
// The heartbeat slot array is the segment's liveness channel: each attached
// executor claims one slot (under the header mutex, once) and thereafter
// writes its completions and a last-alive timestamp into it with the same
// single-writer seqlock discipline as the index — so same-host deployments
// get straggler and failure detection with no socket side-channel. The
// publisher runs a ShmHeartbeatPoller (below) that drains the slots into a
// runtime::HeartbeatSink.
//
// Concurrency model, chosen to be TSan-clean and cross-process correct:
//   - A PTHREAD_PROCESS_SHARED mutex + condvar in the header guard all index
//     mutation and carry the blocking-Push backpressure (the in-segment
//     equivalent of the in-process store's cv_ wait) and Shutdown broadcast.
//   - Each slot carries a seqlock (atomic sequence counter: odd = mutating,
//     even = stable) over relaxed-atomic key fields, so read-only lookups
//     (Contains) never take the cross-process lock: readers snapshot the slot
//     between two equal even sequence reads and retry otherwise.
//   - Plan bytes are written to the arena before the slot is published under
//     the mutex and are immutable until the arena rewinds, so fetchers that
//     found the slot under the mutex read the payload with no further
//     synchronization. Rewinds (below) wait for active readers to drain.
//
// Capacity and the arena high-water mark: Push blocks while `capacity` plans
// are resident (the InstructionStoreInterface contract) and also while the
// arena or slot table is exhausted. Because the arena is append-only, space
// is reclaimed wholesale: when every published plan has been fetched and no
// fetcher still holds a view, the write offset rewinds to zero and all slots
// recycle. A capacity-bounded store therefore needs only
// O(capacity * max_plan_bytes) of arena for an arbitrarily long epoch: the
// blocked publisher wakes as soon as the executors drain the store.
//
// Reader pins are tagged per process: AcquireView records the caller's pid in
// a pin table in the header, and the rewind check probes pinner liveness
// (kill(pid, 0)) before giving up — a reader SIGKILLed between fetch and
// release must not pin the arena forever and park every publisher. The park
// itself is a timed wait, so a blocked publisher re-evaluates (and reclaims
// dead pins) without needing anyone to broadcast.
#ifndef DYNAPIPE_SRC_TRANSPORT_SHM_STORE_H_
#define DYNAPIPE_SRC_TRANSPORT_SHM_STORE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/runtime/instruction_store.h"

namespace dynapipe::transport {

namespace internal {
struct ShmHeader;
struct ShmSlot;
struct ShmHeartbeatSlot;
}  // namespace internal

// Heartbeat slot table size — the maximum number of replicas that can report
// liveness through one segment. Independent of num_slots (index entries).
inline constexpr uint32_t kShmHeartbeatSlots = 32;
// Completions retained per heartbeat slot between poller visits. A poller
// lagging more than this many completions behind loses the oldest (liveness
// is unaffected; only per-iteration wall samples drop).
inline constexpr uint32_t kShmHeartbeatRing = 8;

struct ShmStoreOptions {
  // Maximum resident (published, unfetched) plans; Push blocks until a Fetch
  // frees a slot. 0 means bounded only by the segment itself.
  size_t capacity = 0;
  // Index slots. Bounds the plans resident at once plus the consumed entries
  // awaiting the next arena rewind.
  size_t num_slots = 512;
  // Arena bytes for serialized plans. Plans are ~10 KB, so the default holds
  // thousands between rewinds.
  size_t arena_bytes = size_t{32} << 20;
};

class ShmInstructionStore final : public runtime::RecoverableStore {
 public:
  // Creates (shm_open O_CREAT|O_EXCL) and initializes a fresh segment. The
  // creating process owns the name: the destructor shm_unlinks it. `name`
  // must be a valid shm name ("/dynapipe-...").
  static std::shared_ptr<ShmInstructionStore> Create(std::string name,
                                                     ShmStoreOptions options);
  // Attaches to a segment another process created, retrying while the
  // creator is still setting it up (the executor usually races the planner's
  // startup). Aborts on timeout or an incompatible segment.
  static std::shared_ptr<ShmInstructionStore> Attach(std::string name,
                                                     int timeout_ms = 5000);
  ~ShmInstructionStore() override;

  ShmInstructionStore(const ShmInstructionStore&) = delete;
  ShmInstructionStore& operator=(const ShmInstructionStore&) = delete;

  // InstructionStoreInterface. Push encodes into a per-thread scratch buffer
  // and appends to the arena; Fetch decodes in place from the mapping.
  void Push(int64_t iteration, int32_t replica,
            sim::ExecutionPlan plan) override;
  sim::ExecutionPlan Fetch(int64_t iteration, int32_t replica) override;
  bool Contains(int64_t iteration, int32_t replica) const override;
  size_t size() const override;
  void Shutdown() override;
  int64_t serialized_bytes_total() const override;

  // Zero-copy fetch: consumes the plan and returns a view of its serialized
  // bytes inside the mapping — no copy, no decode. The view pins the arena
  // (rewinds wait for it), so it stays valid until released; Release promptly
  // after decoding. Fetch() is AcquireView + decode-in-place + ReleaseView.
  // Fetching an unpublished key aborts, like every backend.
  class PlanView {
   public:
    PlanView(PlanView&& other) noexcept;
    PlanView& operator=(PlanView&&) = delete;
    ~PlanView();  // releases

    std::string_view bytes() const { return bytes_; }

   private:
    friend class ShmInstructionStore;
    PlanView(ShmInstructionStore* store, std::string_view bytes)
        : store_(store), bytes_(bytes) {}
    ShmInstructionStore* store_;
    std::string_view bytes_;
  };
  PlanView AcquireView(int64_t iteration, int32_t replica);

  // Raw-bytes publish, mirroring InstructionStore::PushBytes: appends the
  // already-encoded plan verbatim (false when Shutdown dropped it).
  bool PushBytes(int64_t iteration, int32_t replica, std::string_view bytes);

  // --- Liveness channel (executor side) ---
  // The segment carries per-replica heartbeat slots — no server, no sink
  // attachment needed on this side.
  //
  // Records an iteration completion in the replica's heartbeat slot (claimed
  // on first use). The publisher-side ShmHeartbeatPoller forwards it to the
  // HeartbeatMonitor. Always returns true.
  bool Heartbeat(int32_t replica, int64_t iteration, double wall_ms);
  // Claims the replica's heartbeat slot and stamps it alive — executors call
  // this right after Attach so the publisher's fleet barrier sees them before
  // their first completion.
  void AnnounceReplica(int32_t replica);
  // Refreshes the replica's last-alive stamp without recording a completion;
  // the executor's poll loop calls this so a replica parked on an unpublished
  // key still proves liveness (the wire backends' kContains does the same).
  void TouchReplica(int32_t replica);
  // Marks the replica's slot cleanly detached — the shm equivalent of the
  // wire kDetach goodbye; the poller reports it as a clean disconnect so
  // deadline tracking stops.
  void DetachReplica(int32_t replica);
  // --- Elastic membership (drain handshake) ---
  // The slot's `detached` word doubles as a drain state machine:
  //   0 = attached, 1 = clean goodbye, 2 = drain requested (executor wrote),
  //   3 = drain acknowledged (publisher wrote). Same layout, same version.
  // Executor side: asks to leave — the shm equivalent of the wire
  // kDrainRequest. The poller forwards it to the HeartbeatSink (the
  // FleetCoordinator reposts the backlog inside that call), then
  // acknowledges.
  void RequestDrain(int32_t replica);
  // Executor side: true once the publisher acknowledged the drain — the
  // green light to finish in-flight work and DetachReplica.
  bool DrainAcknowledged(int32_t replica);
  // Publisher side: acknowledges a requested drain (CAS 2 -> 3 on the slot
  // owned by `replica`; a racing final goodbye wins). The shm equivalent of
  // the wire kDrainAck reply; the ShmHeartbeatPoller calls it.
  void AcknowledgeDrain(int32_t replica);

  // --- RecoverableStore (planner side) ---
  std::vector<int64_t> PendingIterations(int32_t replica) const override;
  runtime::RepostOutcome Repost(int64_t src_iteration, int32_t src_replica,
                                int64_t dst_iteration,
                                int32_t dst_replica) override;
  size_t DropReplica(int32_t replica) override;

  const std::string& name() const { return name_; }
  // Arena rewinds so far — how often the store drained and reclaimed the
  // whole arena (bench/diagnostic).
  int64_t arena_rewinds() const;
  // Reader pins reclaimed from dead processes so far (the crash-pinned-arena
  // counter; also exported as store_shm_pin_reclaims_total).
  int64_t pin_reclaims() const;

 private:
  friend class ShmHeartbeatPoller;

  ShmInstructionStore(std::string name, void* base, size_t total_bytes,
                      bool owner);

  internal::ShmHeader& header() const;
  internal::ShmSlot* slots() const;
  internal::ShmHeartbeatSlot* heartbeat_slots() const;
  char* arena() const;
  // Blocks until the plan fits (capacity, slots, arena — rewinding when
  // drained) or shutdown; returns the reserved slot index or -1 if shutdown
  // dropped the plan. Aborts on double publish.
  ptrdiff_t ReserveLocked(int64_t iteration, int32_t replica, size_t bytes,
                          uint64_t* offset_out);
  void ReleaseView();
  // Finds (claiming on first use, under the header mutex) the heartbeat slot
  // for `replica`. Caller must hold hb_mu_.
  internal::ShmHeartbeatSlot& HeartbeatSlotLocked(int32_t replica);

  std::string name_;
  void* base_ = nullptr;
  size_t total_bytes_ = 0;
  bool owner_ = false;
  // Process-local heartbeat state: which segment slot each replica this
  // process reports for has claimed, and a lock serializing same-process
  // writers so each slot keeps a single seqlock writer.
  mutable std::mutex hb_mu_;
  std::map<int32_t, uint32_t> hb_claimed_;  // replica -> slot index
};

// Publisher-side pump for the segment's heartbeat slots: a thread that
// polls every claimed slot every 5 ms and forwards attaches, completions,
// clean detaches, drain requests and last-alive refreshes into a
// runtime::HeartbeatSink (executor::Publisher wires a FleetCoordinator,
// whose deadline then declares a silent replica dead — the shm-native stall
// detector). A drain request is delivered and then acknowledged
// (AcknowledgeDrain) once the sink returns; a replica the sink reports dead
// gets neither — the shm twin of the server's kDrainAck/kEvicted reply.
// Keeps the store alive
// via shared_ptr; destroy the poller before the sink.
class ShmHeartbeatPoller {
 public:
  ShmHeartbeatPoller(std::shared_ptr<ShmInstructionStore> store,
                     runtime::HeartbeatSink* sink);
  ~ShmHeartbeatPoller();

  ShmHeartbeatPoller(const ShmHeartbeatPoller&) = delete;
  ShmHeartbeatPoller& operator=(const ShmHeartbeatPoller&) = delete;

  // One polling pass over all slots (the loop body); returns how many sink
  // calls it made. Serialized with the thread's passes, so by its return
  // every slot state written before the call has been delivered — except in
  // a slot whose writer stays inside its seqlock window (one killed there
  // stays for ever), which a pass skips after a bounded number of reads.
  int PollOnce();

 private:
  struct SlotObservation {
    int32_t replica = -1;
    uint64_t beats = 0;
    int64_t last_alive_us = 0;
    bool attached_delivered = false;
    bool detach_delivered = false;
    bool drain_delivered = false;
  };

  void Loop();
  int PollLocked();  // caller holds mu_

  std::shared_ptr<ShmInstructionStore> store_;
  runtime::HeartbeatSink* sink_;
  std::mutex mu_;  // guards observed_ and stop_
  std::vector<SlotObservation> observed_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace dynapipe::transport

#endif  // DYNAPIPE_SRC_TRANSPORT_SHM_STORE_H_
