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
// length, truncated body, unparsable header, a reply-type frame sent as a
// request) drop the connection cleanly — the server never crashes or hangs
// on hostile bytes. The server writes only replies: it never initiates a
// frame, so a client that reads its stream only while awaiting a reply is
// never surprised.
#ifndef DYNAPIPE_SRC_TRANSPORT_STORE_SERVER_H_
#define DYNAPIPE_SRC_TRANSPORT_STORE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/runtime/instruction_store.h"
#include "src/transport/transport.h"

namespace dynapipe::transport {

class InstructionStoreServer {
 public:
  // Starts serving immediately. `store` must be in serialized mode (the wire
  // carries plan_serde bytes). Executor kHeartbeat reports route through the
  // store's heartbeat capability (InstructionStore::set_heartbeat_sink —
  // a service::HeartbeatMonitor or FleetCoordinator); a store without a sink
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

 private:
  // One live connection: the stream (so Stop can close it out from under a
  // blocked read/write), the demux thread serving it (which owns the
  // connection's push worker), and the per-connection write lock shared by
  // inline replies and deferred push replies.
  struct Handler {
    std::shared_ptr<Stream> conn;
    std::thread thread;
    std::atomic<bool> done{false};
    std::mutex write_mu;
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
  std::vector<std::unique_ptr<Handler>> handlers_;  // guarded by mu_
  std::thread accept_thread_;
};

}  // namespace dynapipe::transport

#endif  // DYNAPIPE_SRC_TRANSPORT_STORE_SERVER_H_
