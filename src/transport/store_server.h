// Server side of cross-process plan distribution.
//
// InstructionStoreServer exposes an in-process InstructionStore over a
// Transport: the planner process owns the store and the server; executor
// processes reach it through MuxInstructionStore (one persistent multiplexed
// connection).
// This is the paper's Redis role (§3) — a host-memory store of serialized
// instruction streams between the dataloader-side planners and the executors.
//
// Concurrency model: the accept loop hands each connection to its own demux
// thread, which serves request frames in a loop until the peer closes (a mux
// client keeps the stream for its lifetime). Non-blocking requests
// (fetch/contains/size/shutdown) are answered inline; kPush is handed to the
// connection's push worker thread, which may park in the store's capacity wait
// — the kOk reply is *deferred* until the store accepted the plan, which is how
// blocking-Push backpressure crosses the process boundary without ever stalling
// the demux loop: fetches on the same (or any other) connection keep draining
// the store and eventually free the parked push. Deferred pushes per connection
// are bounded by kMuxPushCredits (mux.h); a peer that exceeds it is misbehaving
// and gets dropped.
//
// Plan bytes pass through verbatim (InstructionStore::PushBytes/FetchBytes):
// the server never decodes a plan, so what the executor fetches is
// byte-identical to what the planner published. Malformed frames (corrupt
// length, truncated body, unparsable header) drop the connection cleanly —
// the server never crashes or hangs on hostile bytes.
#ifndef DYNAPIPE_SRC_TRANSPORT_STORE_SERVER_H_
#define DYNAPIPE_SRC_TRANSPORT_STORE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/runtime/instruction_store.h"
#include "src/transport/transport.h"

namespace dynapipe::transport {

// One executor-side metrics snapshot pulled over the wire (frame v3
// kStatsRequest/kStatsReply): which replicas were attached on the connection
// that answered, the responder's aligned trace-clock at answer time, and its
// process-wide snapshot.
struct RemoteReplicaStats {
  std::vector<int32_t> replicas;
  int64_t remote_trace_now_us = 0;
  common::MetricsSnapshot snapshot;
};

class InstructionStoreServer {
 public:
  // Starts serving immediately. `store` must be in serialized mode (the wire
  // carries plan_serde bytes). Executor kHeartbeat reports route through the
  // store's heartbeat capability (InstructionStore::set_heartbeat_sink —
  // typically a service::HeartbeatMonitor); a store without a sink
  // acknowledges and discards them, so the wire clients' capability answer
  // stays unconditional. Neither pointer is owned; both must outlive the
  // server.
  InstructionStoreServer(Transport* transport, runtime::InstructionStore* store);
  ~InstructionStoreServer();

  InstructionStoreServer(const InstructionStoreServer&) = delete;
  InstructionStoreServer& operator=(const InstructionStoreServer&) = delete;

  // Stops accepting, shuts the store down (unblocking push workers parked in
  // a capacity wait), closes live connections (unblocking demux loops parked
  // on a silent client), and joins every handler thread. Idempotent; the
  // destructor calls it.
  void Stop();

  // Requests answered so far (malformed ones excluded).
  int64_t requests_served() const { return requests_served_.load(); }

  // Mid-epoch executor observability: sends kStatsRequest to every live
  // connection that attached a replica AND declared the stats capability in
  // its kAttach payload (the mux client does; a client that omits it may not
  // read its stream between requests), then waits up to
  // `timeout_ms` for the kStatsReply round trips. Returns whatever arrived in
  // time; a silent or vanished peer just drops out of the result. Safe to
  // call at any time, including concurrently with traffic on the polled
  // connections — server-initiated requests use their own id space and the
  // client demux answers them by type, so they never collide with the
  // client's own in-flight ids.
  std::vector<RemoteReplicaStats> CollectRemoteStats(int timeout_ms);

 private:
  // One live connection: the stream (so Stop can close it out from under a
  // blocked read/write), the demux thread serving it (which owns the
  // connection's push worker), and the per-connection write lock shared by
  // inline replies, deferred push replies, and server-initiated stats
  // requests. Held by shared_ptr so CollectRemoteStats can write to a
  // connection that races with its own reap.
  struct Handler {
    std::shared_ptr<Stream> conn;
    std::thread thread;
    std::atomic<bool> done{false};
    std::mutex write_mu;
    std::atomic<bool> stats_capable{false};
    std::mutex attach_mu;
    std::vector<int32_t> attached;  // guarded by attach_mu
  };

  void AcceptLoop();
  void HandleConnection(Handler& handler);
  // Joins and erases handlers whose connection completed, so the handler
  // list stays bounded by live connections. Caller holds mu_.
  void ReapFinishedLocked();

  Transport* transport_;
  runtime::InstructionStore* store_;
  std::atomic<int64_t> requests_served_{0};
  // Set before Stop() tears connections down: handler threads suppress the
  // unclean-disconnect liveness report for connections *we* are closing —
  // server teardown must not declare every attached executor dead.
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  bool stopped_ = false;
  std::vector<std::shared_ptr<Handler>> handlers_;  // guarded by mu_
  std::thread accept_thread_;

  // In-flight server-initiated stats pulls, keyed by the request id minted
  // for them; handler threads fill entries when the matching kStatsReply
  // lands on their connection.
  struct PendingStats {
    bool done = false;
    RemoteReplicaStats result;
  };
  std::mutex stats_mu_;
  std::condition_variable stats_cv_;
  uint64_t next_stats_request_id_ = 1;
  std::map<uint64_t, PendingStats> pending_stats_;  // guarded by stats_mu_
};

}  // namespace dynapipe::transport

#endif  // DYNAPIPE_SRC_TRANSPORT_STORE_SERVER_H_
