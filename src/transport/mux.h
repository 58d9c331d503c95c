// Persistent multiplexed connection to an InstructionStoreServer — the
// socket client of cross-process plan distribution.
//
// MuxInstructionStore implements InstructionStoreInterface by speaking the
// frame protocol (frame.h) to the server, so PlanAheadService (and anything
// else written against the interface) works across a process boundary
// without code changes. Semantics match the in-process store: Push blocks
// while the server's store is at capacity, a fetched plan that fails to
// decode is fatal (a corrupted plan must never reach an executor), and
// publish-before-fetch violations are fatal. It keeps ONE long-lived stream
// per executor — no connect() or server-side thread per operation — and
// multiplexes every request over it:
//
//   - each request carries a fresh request_id (frame.h); a writer mutex
//     serializes frame writes, so requests from any number of threads
//     interleave safely on the single stream;
//   - a dedicated demux thread owns the read side: it matches each reply's
//     request_id to the waiter that sent the request and wakes exactly that
//     caller, so replies may arrive in any order — which they do, because
//     the server defers kPush replies;
//   - blocking-Push semantics survive multiplexing through credits: the
//     server withholds a kPush's kOk while its store is at capacity
//     (store_server.h runs pushes on a per-connection worker so the deferral
//     never stalls the stream), and the client bounds concurrently deferred
//     pushes to kMuxPushCredits — a Push first takes a credit (blocking when
//     none is left) and returns it when its kOk lands. Fetches and the other
//     request types never need a credit, so the fetch that frees a capacity
//     slot always gets through even while every push credit is parked.
//
// A torn or malformed reply stream is a connection error, not a crash: the
// demux loop closes the stream, fails every outstanding waiter, and marks
// the client dead (connection_ok()); subsequent calls are fatal at the call
// site (the store is gone).
#ifndef DYNAPIPE_SRC_TRANSPORT_MUX_H_
#define DYNAPIPE_SRC_TRANSPORT_MUX_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "src/runtime/instruction_store.h"
#include "src/transport/frame.h"
#include "src/transport/transport.h"

namespace dynapipe::transport {

// Maximum kPush replies the server may be holding back per connection. A
// protocol constant both sides agree on: the client never exceeds it, and the
// server drops a connection that does (a misbehaving peer, not backpressure).
inline constexpr int kMuxPushCredits = 16;

// Size of the client's fixed waiter slab — the bound on requests in flight on
// one mux connection. Twice the push credits so that even with every credit
// parked in deferred-kPush backpressure, a full complement of non-push
// requests (fetches, contains polls) still finds a free slot: the fetch that
// frees a capacity slot can never be locked out by the pushes waiting on it.
inline constexpr int kMuxWaiterSlots = 2 * kMuxPushCredits;

class MuxInstructionStore final : public runtime::InstructionStoreInterface {
 public:
  // Takes ownership of a connected stream and starts the demux thread.
  explicit MuxInstructionStore(std::unique_ptr<Stream> stream);
  ~MuxInstructionStore() override;

  MuxInstructionStore(const MuxInstructionStore&) = delete;
  MuxInstructionStore& operator=(const MuxInstructionStore&) = delete;

  // Endpoint conveniences. The transport overload serves in-process tests
  // (loopback or a socket transport object); the path overload is what an
  // executor process uses. Both open the one persistent connection eagerly;
  // the socket overload retries while the server process is still binding.
  static std::shared_ptr<MuxInstructionStore> OverTransport(
      Transport* transport);
  static std::shared_ptr<MuxInstructionStore> OverUnixSocket(
      std::string path, int connect_timeout_ms = 5000);

  void Push(int64_t iteration, int32_t replica,
            sim::ExecutionPlan plan) override;
  sim::ExecutionPlan Fetch(int64_t iteration, int32_t replica) override;
  bool Contains(int64_t iteration, int32_t replica) const override;
  size_t size() const override;
  void Shutdown() override;
  // Encoded bytes this client pushed (the wire volume it produced).
  int64_t serialized_bytes_total() const override;
  // The wire carries heartbeats (kHeartbeat frame), multiplexed like any
  // other request.
  bool supports_heartbeat() const override { return true; }
  bool Heartbeat(int32_t replica, int64_t iteration, double wall_ms) override;

  // False once the stream died or the server sent an unparsable/unmatched
  // reply (the demux loop has exited and failed all waiters).
  bool connection_ok() const;

  // --- Non-fatal surface (the executor's resilience path) ---
  // The InstructionStoreInterface methods above keep the fatal store
  // contract (right for a publisher mid-epoch); a daemon that must survive
  // server teardown and transport faults uses these instead. All of them
  // return false on connection loss — including a blown `timeout_ms` (> 0),
  // which closes the stream and fails the connection: a reply that late
  // means the server is wedged or gone, and leaving the request parked
  // forever would turn teardown into a hang.

  // Contains without the fatal contract: *present is valid only on true.
  // This is the publish-poll riding the persistent stream — no throwaway
  // probe connection per poll.
  bool TryContains(int64_t iteration, int32_t replica, bool* present,
                   int timeout_ms = 0);
  // Fetch distinguishing the three outcomes: a plan (returned), kMissing
  // (nullopt, *connection_lost=false — the key was reclaimed/reposted), and
  // connection loss (nullopt, *connection_lost=true). Corrupt plan bytes
  // stay fatal — a damaged plan must never execute.
  std::optional<sim::ExecutionPlan> TryFetch(int64_t iteration,
                                             int32_t replica,
                                             bool* connection_lost);
  // Heartbeat; *evicted=true when the server answered kEvicted (this
  // replica was declared dead — stop executing).
  bool TryHeartbeat(int32_t replica, int64_t iteration, double wall_ms,
                    bool* evicted);
  // Liveness announcement for `replica` on this connection (kAttach /
  // kDetach). *evicted=true when the server refused the attach because the
  // replica is already declared dead. The attach payload declares the stats
  // capability (frame v3): this connection's demux loop answers
  // server-initiated kStatsRequest frames. `join` additionally sets
  // kAttachCapJoin (frame v4) — declarative intent to join a running fleet;
  // admission itself rides the liveness event the attach fires.
  bool Attach(int32_t replica, bool* evicted, int timeout_ms = 0,
              bool join = false);
  bool Detach(int32_t replica);
  // Graceful-leave handshake (frame v4 kDrainRequest): by the time kDrainAck
  // comes back the server has fenced this replica and reposted its unfetched
  // backlog — finish in-flight work, then Detach. *evicted=true when the
  // server answered kEvicted (this replica was declared dead mid-request).
  // False on connection loss or timeout.
  bool TryDrain(int32_t replica, bool* evicted, int timeout_ms = 0);
  // Client-initiated kStatsRequest: the server's process-wide snapshot plus
  // its aligned trace clock. False on connection loss or a malformed reply
  // (which closes the stream — protocol confusion is connection-grade).
  bool TryStats(int64_t* server_trace_now_us, common::MetricsSnapshot* snapshot,
                int timeout_ms = 0);
  // One kStatsRequest round trip folded into the tracer's clock offset
  // (offset += server_now − midpoint(send, recv)), so spans this process
  // emits land on the server's timeline. Call once after Attach.
  bool TrySyncClock(int timeout_ms = 0);

 private:
  struct Waiter {
    uint64_t request_id = 0;
    std::optional<Frame> reply;
    bool failed = false;
  };

  // One multiplexed exchange: claims a waiter slot (stamping the slot-derived
  // request_id onto `request`), writes the frame, blocks until the demux loop
  // delivers the reply. Fatal on connection failure or an unexpected reply
  // type.
  //
  // The waiter table is a fixed slab instead of a per-request map: slot
  // `request_id % kMuxWaiterSlots` points at the caller's stack Waiter, and
  // request ids are minted per slot (id = slot + kMuxWaiterSlots * generation)
  // so two requests in flight can never collide on a slot — the demux lookup
  // is one index plus an id compare, and the steady-state request path does
  // no heap allocation (no map node; the wire bytes reuse per-thread
  // scratch). When all slots are busy the caller waits for one to free:
  // pushes are bounded below the slab size by their credits, and every other
  // request type is answered inline by the server, so slots always churn.
  Frame Call(Frame& request, FrameType expected_reply) const;
  // The non-fatal core Call is built on: false on connection failure, write
  // failure, or (timeout_ms > 0) no reply in time — the timeout closes the
  // stream, because an abandoned waiter's reply arriving later would desync
  // the slab. On true, *reply holds whatever the server sent; the caller
  // owns type validation.
  bool TryCall(Frame& request, Frame* reply, int timeout_ms = 0) const;
  void DemuxLoop();

  std::unique_ptr<Stream> stream_;
  // Serializes frame writes onto the single stream (any caller thread plus
  // none from the demux side — replies only flow inward).
  mutable std::mutex write_mu_;

  mutable std::mutex mu_;  // waiter slab, credits, failure state
  mutable std::condition_variable cv_;
  // Fixed waiter slab: slots_[i] is the live waiter whose request_id % slots
  // == i, null when free. slot_generation_ mints non-colliding ids.
  mutable std::array<Waiter*, kMuxWaiterSlots> slots_{};
  mutable std::array<uint64_t, kMuxWaiterSlots> slot_generation_{};
  mutable int slot_scan_hint_ = 0;
  mutable int push_credits_ = kMuxPushCredits;
  bool connection_failed_ = false;
  std::string connection_error_;

  std::atomic<int64_t> serialized_bytes_total_{0};
  std::thread demux_thread_;
};

}  // namespace dynapipe::transport

#endif  // DYNAPIPE_SRC_TRANSPORT_MUX_H_
