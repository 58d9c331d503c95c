#include "src/transport/store_server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/common/trace.h"
#include "src/service/plan_serde.h"
#include "src/transport/frame.h"
#include "src/transport/mux.h"

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
  // Push workers parked in the store's capacity wait hold no way out except
  // the store's own shutdown; at server teardown the pipeline is over, so
  // dropping those plans is the correct outcome (same as the in-process
  // store's teardown contract).
  store_->Shutdown();
  std::vector<std::shared_ptr<Handler>> handlers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    handlers.swap(handlers_);
  }
  for (const auto& handler : handlers) {
    // A demux loop can also be parked reading from (or replying to) a client
    // that connected and went silent; closing the stream unblocks it so the
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
    auto handler = std::make_shared<Handler>();
    handler->conn = std::move(conn);
    Handler* h = handler.get();
    handlers_.push_back(std::move(handler));
    // `h` stays valid until joined: reaping joins only after `done`, and the
    // swap in Stop() keeps the shared_ptrs alive through their joins.
    h->thread = std::thread([this, h] {
      HandleConnection(*h);
      // Dropping a connection (clean EOF, malformed frame, misbehaving
      // peer) must be visible to the peer: a client parked reading a reply
      // that will never come unblocks here instead of at reap time.
      h->conn->Close();
      h->done.store(true, std::memory_order_release);
    });
  }
}

std::vector<RemoteReplicaStats> InstructionStoreServer::CollectRemoteStats(
    int timeout_ms) {
  // Snapshot the stats-capable handlers that have a replica attached, then
  // send each one a kStatsRequest tagged with a freshly minted id. The
  // handler threads deliver matching kStatsReply frames into pending_stats_.
  std::vector<std::shared_ptr<Handler>> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return {};
    }
    for (const std::shared_ptr<Handler>& h : handlers_) {
      if (h->done.load(std::memory_order_acquire) ||
          !h->stats_capable.load(std::memory_order_relaxed)) {
        continue;
      }
      std::lock_guard<std::mutex> attach_lock(h->attach_mu);
      if (!h->attached.empty()) {
        targets.push_back(h);
      }
    }
  }
  std::vector<uint64_t> ids;
  for (const std::shared_ptr<Handler>& h : targets) {
    uint64_t id;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      id = next_stats_request_id_++;
      PendingStats& pending = pending_stats_[id];
      std::lock_guard<std::mutex> attach_lock(h->attach_mu);
      pending.result.replicas = h->attached;
    }
    Frame request;
    request.type = FrameType::kStatsRequest;
    request.request_id = id;
    bool sent;
    {
      std::lock_guard<std::mutex> lock(h->write_mu);
      sent = WriteFrame(*h->conn, request);
    }
    if (sent) {
      ids.push_back(id);
    } else {
      std::lock_guard<std::mutex> lock(stats_mu_);
      pending_stats_.erase(id);
    }
  }

  std::vector<RemoteReplicaStats> results;
  std::unique_lock<std::mutex> lock(stats_mu_);
  stats_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    for (const uint64_t id : ids) {
      const auto it = pending_stats_.find(id);
      if (it != pending_stats_.end() && !it->second.done) {
        return false;
      }
    }
    return true;
  });
  for (const uint64_t id : ids) {
    const auto it = pending_stats_.find(id);
    if (it != pending_stats_.end()) {
      if (it->second.done) {
        results.push_back(std::move(it->second.result));
      }
      pending_stats_.erase(it);
    }
  }
  return results;
}

void InstructionStoreServer::HandleConnection(Handler& handler) {
  Stream& conn = *handler.conn;
  // Replies come from three threads — the demux loop below (inline replies),
  // the push worker (deferred kPush replies), and CollectRemoteStats
  // (server-initiated kStatsRequest) — so frame writes are serialized per
  // connection through the handler's write lock.
  std::mutex& write_mu = handler.write_mu;
  const auto write_reply = [&](const Frame& reply) {
    std::lock_guard<std::mutex> lock(write_mu);
    // Count before replying: a client that has its reply must observe the
    // request as served. A reply to a vanished client fails harmlessly; the
    // demux loop notices the dead stream on its next read.
    requests_served_.fetch_add(1);
    WriteFrame(conn, reply);
  };

  // The connection's push worker: runs deferred kPush requests in arrival
  // order, parking in the store's capacity wait as needed. A parked push
  // never stalls the demux loop, so the fetch that frees the slot can arrive
  // on this very connection — that is what preserves blocking-Push semantics
  // over a multiplexed stream. Spawned lazily on the first kPush: fetch-only
  // connections never pay the second thread.
  std::mutex push_mu;
  std::condition_variable push_cv;
  std::deque<Frame> push_queue;
  bool conn_done = false;
  std::thread push_worker;
  const auto push_worker_loop = [&] {
    for (;;) {
      Frame request;
      {
        std::unique_lock<std::mutex> lock(push_mu);
        push_cv.wait(lock,
                     [&] { return !push_queue.empty() || conn_done; });
        if (push_queue.empty()) {
          return;  // connection over and queue drained
        }
        request = std::move(push_queue.front());
        push_queue.pop_front();
      }
      // Blocks here while the store is at capacity — the delayed kOk is the
      // client's backpressure. Shutdown (ours at Stop, or a client's
      // kShutdown) unblocks it; the dropped plan still gets its kOk, same as
      // the in-process Push returning after shutdown.
      store_->PushBytes(request.iteration, request.replica,
                        std::move(request.payload));
      Frame reply;
      reply.type = FrameType::kOk;
      reply.request_id = request.request_id;
      reply.iteration = request.iteration;
      reply.replica = request.replica;
      write_reply(reply);
    }
  };
  // Replicas announced on this connection (kAttach) that have not said
  // kDetach. If the connection ends while any remain, the executor vanished
  // — SIGKILL, crash, torn transport — and the liveness sink hears about it
  // as an *unclean* disconnect. Suppressed while the server itself is
  // stopping: teardown closes every stream, and that must not declare the
  // whole fleet dead. Lives on the handler (under attach_mu) so
  // CollectRemoteStats can label this connection's snapshot with its
  // replicas; this demux thread is the only writer.
  std::vector<int32_t>& attached = handler.attached;
  const auto finish = [&] {
    {
      // Scope the lock to the attach-list mutation: joining a push worker
      // parked in a capacity wait below can take a while, and
      // CollectRemoteStats must not block on attach_mu for that long.
      std::lock_guard<std::mutex> attach_lock(handler.attach_mu);
      for (const int32_t replica : attached) {
        if (!stopping_.load(std::memory_order_acquire)) {
          store_->NotifyReplicaDisconnected(replica, /*clean=*/false);
        }
      }
      attached.clear();
    }
    if (!push_worker.joinable()) {
      return;  // no kPush ever arrived
    }
    {
      std::lock_guard<std::mutex> lock(push_mu);
      conn_done = true;
    }
    push_cv.notify_all();
    push_worker.join();
  };

  for (;;) {
    std::optional<Frame> request = ReadFrame(conn);
    if (!request.has_value()) {
      // Clean close, torn connection, or malformed frame: drop the
      // connection, never crash the server. Queued pushes still complete
      // (their plans were received intact); their replies go nowhere.
      break;
    }
    Frame reply;
    reply.request_id = request->request_id;
    reply.iteration = request->iteration;
    reply.replica = request->replica;
    switch (request->type) {
      case FrameType::kPush: {
        if (!push_worker.joinable()) {
          push_worker = std::thread(push_worker_loop);
        }
        std::unique_lock<std::mutex> lock(push_mu);
        if (push_queue.size() >=
            static_cast<size_t>(kMuxPushCredits)) {
          // The client-side credit protocol bounds deferred pushes; a peer
          // that blows past it is misbehaving — drop it rather than buffer
          // unboundedly. Discard its backlog and close the stream *now* so
          // the drop is effective immediately; the worker may still be
          // parked on one in-flight push (released by a fetch or the
          // store's shutdown, like any vanished client's parked push).
          push_queue.clear();
          lock.unlock();
          conn.Close();
          finish();
          return;
        }
        push_queue.push_back(std::move(*request));
        lock.unlock();
        push_cv.notify_one();
        continue;  // reply deferred to the push worker
      }
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
      case FrameType::kSize:
        reply.type = FrameType::kCount;
        service::AppendVarint(store_->size(), &reply.payload);
        break;
      case FrameType::kShutdown:
        store_->Shutdown();
        reply.type = FrameType::kOk;
        break;
      case FrameType::kHeartbeat: {
        double wall_ms = 0.0;
        if (!TryParseHeartbeatPayload(request->payload, &wall_ms)) {
          // Malformed payload is a protocol violation like any unparsable
          // frame: drop the connection, never feed garbage to the monitor.
          finish();
          return;
        }
        // One delivery path: the store's heartbeat capability. False (no
        // sink attached) means acknowledged-and-discarded.
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
        // Frame v3/v4 capability payload: empty (v2) or one bitmask byte.
        // Anything longer is malformed like any unparsable frame.
        if (request->payload.size() > 1) {
          finish();
          return;
        }
        if (!request->payload.empty() &&
            (static_cast<uint8_t>(request->payload[0]) & kAttachCapStats) !=
                0) {
          handler.stats_capable.store(true, std::memory_order_relaxed);
        }
        // kAttachCapJoin needs no handler state: join admission rides the
        // liveness event the NotifyReplicaAttached below fires — the
        // FleetCoordinator admits any unknown replica that turns alive
        // (membership on). The bit is declarative intent (and keeps the
        // executor's command line honest); an old server ignores it
        // harmlessly.
        if (store_->ReplicaConsideredDead(request->replica)) {
          reply.type = FrameType::kEvicted;  // zombie reconnect: refuse
          break;
        }
        store_->NotifyReplicaAttached(request->replica);
        {
          std::lock_guard<std::mutex> attach_lock(handler.attach_mu);
          if (std::find(attached.begin(), attached.end(), request->replica) ==
              attached.end()) {
            attached.push_back(request->replica);
          }
        }
        reply.type = FrameType::kOk;
        break;
      }
      case FrameType::kDrainRequest: {
        // Graceful leave. The liveness event chain (monitor -> recovery ->
        // membership) runs synchronously inside this notify: by the time it
        // returns, the replica is fenced and its unfetched backlog is
        // reposted to the survivors — so the kDrainAck reply really is the
        // green light to finish in-flight work and kDetach. A replica
        // already declared dead gets kEvicted instead: its plans moved long
        // ago and the only safe instruction is "stop".
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
        {
          std::lock_guard<std::mutex> attach_lock(handler.attach_mu);
          attached.erase(
              std::remove(attached.begin(), attached.end(), request->replica),
              attached.end());
        }
        reply.type = FrameType::kOk;
        break;
      }
      case FrameType::kStatsRequest: {
        // Any client may ask for this process's snapshot; the reply also
        // carries our aligned trace clock, which is the server half of the
        // clock-alignment exchange at executor attach.
        reply.type = FrameType::kStatsReply;
        AppendStatsPayload(common::Tracer::Instance().NowUs(),
                           common::MetricsRegistry::Instance().Snapshot(),
                           &reply.payload);
        break;
      }
      case FrameType::kStatsReply: {
        // Answer to a server-initiated pull (CollectRemoteStats). Malformed
        // payloads get the standard treatment: drop the connection, never
        // crash. A well-formed reply whose id matches no pending pull (the
        // collector timed out and forgot it) is simply discarded.
        int64_t remote_now_us = 0;
        common::MetricsSnapshot snapshot;
        if (!TryParseStatsPayload(request->payload, &remote_now_us,
                                  &snapshot)) {
          finish();
          return;
        }
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          const auto it = pending_stats_.find(request->request_id);
          if (it != pending_stats_.end()) {
            it->second.result.remote_trace_now_us = remote_now_us;
            it->second.result.snapshot = std::move(snapshot);
            it->second.done = true;
          }
        }
        stats_cv_.notify_all();
        continue;  // a reply frame gets no reply
      }
      default:
        // Unknown request type: drop the connection.
        finish();
        return;
    }
    write_reply(reply);
  }
  finish();
}

}  // namespace dynapipe::transport
