// Server side of cross-process plan distribution.
//
// InstructionStoreServer exposes an in-process InstructionStore over a
// Transport: the planner process owns the store, publishes into it directly
// and runs the server; executor processes reach it through
// MuxInstructionStore (mux.h), one persistent connection each, to poll,
// fetch, heartbeat and announce themselves. Nothing is published over the
// wire. This is the paper's Redis role (§3) — a host-memory store of
// serialized instruction streams between the dataloader-side planners and
// the executors.
//
// Concurrency model: the accept loop hands each connection to its own
// handler thread, which reads a request, answers it, and reads the next
// until the peer closes. Only that thread writes to the connection, and no
// request blocks: a fetch of a key the store does not hold is kMissing.
//
// Plan bytes pass through verbatim (InstructionStore::TryFetchBytes): the
// server never decodes a plan, so what the executor fetches is
// byte-identical to what the planner published. Malformed frames (corrupt
// length, truncated body, unparsable header, a reply-type or unknown frame
// sent as a request) drop the connection cleanly — the server never crashes
// or hangs on hostile bytes. The server writes only replies, one per
// request, echoing its id.
#ifndef DYNAPIPE_SRC_TRANSPORT_STORE_SERVER_H_
#define DYNAPIPE_SRC_TRANSPORT_STORE_SERVER_H_

#include <atomic>
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
  // store's heartbeat sink (InstructionStore::set_heartbeat_sink — a
  // service::HeartbeatMonitor or FleetCoordinator); a store without a sink
  // acknowledges and discards them. Neither pointer is owned; both must
  // outlive the server.
  InstructionStoreServer(Transport* transport, runtime::InstructionStore* store);
  ~InstructionStoreServer();

  InstructionStoreServer(const InstructionStoreServer&) = delete;
  InstructionStoreServer& operator=(const InstructionStoreServer&) = delete;

  // Stops accepting, shuts the store down (freeing an in-process publisher
  // parked at capacity: once no executor can fetch, nothing else would),
  // closes live connections (unblocking handlers parked on a silent client),
  // and joins every handler thread. Idempotent; the destructor calls it.
  void Stop();

 private:
  // One live connection: the stream (so Stop can close it out from under a
  // blocked read/write) and the thread serving it.
  struct Handler {
    std::shared_ptr<Stream> conn;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void HandleConnection(Stream& conn);
  // Joins and erases handlers whose connection completed, so the handler
  // list stays bounded by live connections. Caller holds mu_.
  void ReapFinishedLocked();

  Transport* transport_;
  runtime::InstructionStore* store_;
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
