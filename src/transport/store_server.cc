#include "src/transport/store_server.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/common/trace.h"
#include "src/transport/frame.h"

namespace dynapipe::transport {

InstructionStoreServer::InstructionStoreServer(Transport* transport,
                                               runtime::InstructionStore* store)
    : transport_(transport), store_(store) {
  DYNAPIPE_CHECK(transport_ != nullptr);
  DYNAPIPE_CHECK(store_ != nullptr);
  DYNAPIPE_CHECK_MSG(store_->options().serialized,
                     "the store behind a transport server must be serialized "
                     "(the wire carries plan_serde bytes)");
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

InstructionStoreServer::~InstructionStoreServer() { Stop(); }

void InstructionStoreServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  transport_->Close();
  accept_thread_.join();
  // A publisher parked in the store's capacity wait has no way out but a
  // fetch or the store's shutdown; with no executor left to fetch, the
  // pipeline is over, so dropping its plan is the correct outcome (the
  // in-process store's teardown contract).
  store_->Shutdown();
  std::vector<std::unique_ptr<Handler>> handlers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    handlers.swap(handlers_);
  }
  for (const auto& handler : handlers) {
    // A handler can be parked reading from (or replying to) a client that
    // connected and went silent; closing the stream unblocks it so the
    // join below cannot hang teardown.
    handler->conn->Close();
    handler->thread.join();
  }
}

void InstructionStoreServer::ReapFinishedLocked() {
  for (auto it = handlers_.begin(); it != handlers_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();  // already exited; join is immediate
      it = handlers_.erase(it);
    } else {
      ++it;
    }
  }
}

void InstructionStoreServer::AcceptLoop() {
  while (std::unique_ptr<Stream> conn = transport_->Accept()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      break;  // raced with Stop; drop the connection
    }
    // Short-lived connections (reconnects, probes, dropped hostile peers)
    // leave finished handlers behind; reap them here to keep the list
    // bounded by concurrently-live connections.
    ReapFinishedLocked();
    auto handler = std::make_unique<Handler>();
    handler->conn = std::move(conn);
    Handler* h = handler.get();
    handlers_.push_back(std::move(handler));
    // `h` stays valid until joined: reaping joins only after `done`, and the
    // swap in Stop() keeps the handlers alive through their joins.
    h->thread = std::thread([this, h] {
      HandleConnection(*h->conn);
      // Dropping a connection (clean EOF, malformed frame, misbehaving
      // peer) must be visible to the peer: a client parked reading a reply
      // that will never come unblocks here instead of at reap time.
      h->conn->Close();
      h->done.store(true, std::memory_order_release);
    });
  }
}

void InstructionStoreServer::HandleConnection(Stream& conn) {
  // Replicas announced on this connection (kAttach) that have not said
  // kDetach. If the connection ends while any remain, the executor vanished
  // — SIGKILL, crash, torn transport — and the liveness sink hears about it
  // as an *unclean* disconnect. Suppressed while the server itself is
  // stopping: teardown closes every stream, and that must not declare the
  // whole fleet dead.
  std::vector<int32_t> attached;
  const auto finish = [&] {
    for (const int32_t replica : attached) {
      if (!stopping_.load(std::memory_order_acquire)) {
        store_->NotifyReplicaDisconnected(replica, /*clean=*/false);
      }
    }
    attached.clear();
  };

  for (;;) {
    std::optional<Frame> request = ReadFrame(conn);
    if (!request.has_value()) {
      // Clean close, torn connection, or malformed frame: drop the
      // connection, never crash the server.
      break;
    }
    Frame reply;
    reply.request_id = request->request_id;
    reply.iteration = request->iteration;
    reply.replica = request->replica;
    switch (request->type) {
      case FrameType::kFetch: {
        // Try-fetch, not the fatal FetchBytes: after recovery reposts a
        // dead replica's plan, the zombie's fetch of the moved key must be
        // a kMissing on *its* connection, never an abort in the publisher.
        std::optional<std::string> bytes =
            store_->TryFetchBytes(request->iteration, request->replica);
        if (bytes.has_value()) {
          reply.type = FrameType::kPlanBytes;
          reply.payload = std::move(*bytes);
        } else {
          reply.type = FrameType::kMissing;
        }
        break;
      }
      case FrameType::kContains:
        // A publish-poll is evidence of life: an executor parked waiting for
        // its next plan sends no heartbeats (heartbeats report *completed*
        // iterations), and without this refresh a liveness deadline shorter
        // than the idle window would declare every drained-but-polling
        // survivor dead. Refreshing here scopes the heartbeat deadline to
        // what it is meant to catch: a replica producing no traffic at all.
        store_->NotifyReplicaAttached(request->replica);
        reply.type = FrameType::kBool;
        reply.payload.push_back(
            store_->Contains(request->iteration, request->replica) ? '\1'
                                                                   : '\0');
        break;
      case FrameType::kHeartbeat: {
        double wall_ms = 0.0;
        if (!TryParseHeartbeatPayload(request->payload, &wall_ms)) {
          // Malformed payload is a protocol violation like any unparsable
          // frame: drop the connection, never feed garbage to the monitor.
          finish();
          return;
        }
        // One delivery path: the store's heartbeat relay. False (no sink
        // attached) means acknowledged-and-discarded.
        store_->Heartbeat(request->replica, request->iteration, wall_ms);
        // Fencing: a replica declared dead hears it on its next heartbeat —
        // its plans were re-published, so the only safe instruction is
        // "stop" (kEvicted), not an ack that keeps a zombie running.
        reply.type = store_->ReplicaConsideredDead(request->replica)
                         ? FrameType::kEvicted
                         : FrameType::kOk;
        break;
      }
      case FrameType::kAttach: {
        // The payload is empty; anything else is malformed like any
        // unparsable frame.
        if (!request->payload.empty()) {
          finish();
          return;
        }
        if (store_->ReplicaConsideredDead(request->replica)) {
          reply.type = FrameType::kEvicted;  // zombie reconnect: refuse
          break;
        }
        store_->NotifyReplicaAttached(request->replica);
        if (std::find(attached.begin(), attached.end(), request->replica) ==
            attached.end()) {
          attached.push_back(request->replica);
        }
        reply.type = FrameType::kOk;
        break;
      }
      case FrameType::kDrainRequest: {
        // Graceful leave. The sink's reaction (monitor -> membership) runs
        // inside this notify: by the time it returns, the replica has left
        // the member set and its unfetched backlog is reposted to the
        // survivors — so the kDrainAck reply really is the green light to
        // finish in-flight work and kDetach. A replica already declared dead
        // gets kEvicted instead: its plans moved long ago and the only safe
        // instruction is "stop".
        if (store_->ReplicaConsideredDead(request->replica)) {
          reply.type = FrameType::kEvicted;
          break;
        }
        store_->NotifyReplicaDrainRequested(request->replica);
        reply.type = FrameType::kDrainAck;
        break;
      }
      case FrameType::kDetach: {
        store_->NotifyReplicaDisconnected(request->replica, /*clean=*/true);
        attached.erase(
            std::remove(attached.begin(), attached.end(), request->replica),
            attached.end());
        reply.type = FrameType::kOk;
        break;
      }
      case FrameType::kClockRequest:
        // The server half of the executor's clock-alignment exchange.
        reply.type = FrameType::kClockReply;
        AppendClockPayload(common::Tracer::Instance().NowUs(), &reply.payload);
        break;
      default:
        // Unknown request type (a retired one included): drop the
        // connection.
        finish();
        return;
    }
    // A reply to a vanished client fails harmlessly; the next read notices.
    WriteFrame(conn, reply);
  }
  finish();
}

}  // namespace dynapipe::transport
