#include "src/transport/mux.h"

#include <chrono>
#include <utility>

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/service/plan_serde.h"

namespace dynapipe::transport {

namespace {
common::StoreMetrics& Metrics() {
  static common::StoreMetrics& m = common::StoreMetrics::For("mux");
  return m;
}
}  // namespace

MuxInstructionStore::MuxInstructionStore(std::unique_ptr<Stream> stream)
    : stream_(std::move(stream)) {
  DYNAPIPE_CHECK_MSG(stream_ != nullptr,
                     "mux instruction store: connect failed");
  demux_thread_ = std::thread([this] { DemuxLoop(); });
}

MuxInstructionStore::~MuxInstructionStore() {
  stream_->Close();  // demux loop's ReadFrame returns, loop exits
  demux_thread_.join();
}

std::shared_ptr<MuxInstructionStore> MuxInstructionStore::OverTransport(
    Transport* transport) {
  DYNAPIPE_CHECK(transport != nullptr);
  return std::make_shared<MuxInstructionStore>(transport->Connect());
}

std::shared_ptr<MuxInstructionStore> MuxInstructionStore::OverUnixSocket(
    std::string path, int connect_timeout_ms) {
  return std::make_shared<MuxInstructionStore>(
      ConnectUnixSocket(path, connect_timeout_ms));
}

void MuxInstructionStore::DemuxLoop() {
  std::string error;
  for (;;) {
    std::optional<Frame> reply = ReadFrame(*stream_, &error);
    if (!reply.has_value()) {
      break;  // closed, torn, or malformed: the connection is over
    }
    if (reply->type == FrameType::kStatsRequest) {
      // Not a reply at all: the *server* is asking for this process's
      // snapshot (the trainer's mid-epoch pull). Dispatching on type before
      // the waiter lookup keeps the two directions' id spaces independent —
      // the echoed id below is the server's, never one of ours. Answered
      // inline: the demux thread holds no lock while serving, and the
      // snapshot walk is microseconds.
      Frame stats;
      stats.type = FrameType::kStatsReply;
      stats.request_id = reply->request_id;
      AppendStatsPayload(common::Tracer::Instance().NowUs(),
                         common::MetricsRegistry::Instance().Snapshot(),
                         &stats.payload);
      std::lock_guard<std::mutex> write_lock(write_mu_);
      if (!WriteFrame(*stream_, stats)) {
        error = "mux: stats reply write failed";
        break;
      }
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    Waiter* waiter =
        slots_[reply->request_id % static_cast<uint64_t>(kMuxWaiterSlots)];
    if (waiter == nullptr || waiter->request_id != reply->request_id) {
      // A reply nobody asked for is a protocol violation; treat it like a
      // malformed frame and drop the connection rather than guess.
      error = "mux: reply for unknown request id";
      break;
    }
    slots_[reply->request_id % static_cast<uint64_t>(kMuxWaiterSlots)] =
        nullptr;
    waiter->reply = std::move(*reply);
    cv_.notify_all();  // wakes the waiter and anyone parked on a full slab
  }
  // Connection over (clean teardown or error): fail every outstanding waiter
  // so no caller hangs on a reply that will never come.
  stream_->Close();
  std::lock_guard<std::mutex> lock(mu_);
  connection_failed_ = true;
  connection_error_ = error.empty() ? "connection closed" : error;
  for (Waiter*& waiter : slots_) {
    if (waiter != nullptr) {
      waiter->failed = true;
      waiter = nullptr;
    }
  }
  cv_.notify_all();
}

bool MuxInstructionStore::TryCall(Frame& request, Frame* reply,
                                  int timeout_ms) const {
  Waiter waiter;
  int slot = -1;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (connection_failed_) {
        return false;
      }
      // Claim a free slot, scanning from where the last claim left off. A
      // full slab means kMuxWaiterSlots requests are genuinely in flight;
      // wait for one to complete (pushes can hold at most kMuxPushCredits
      // slots, everything else is answered inline, so slots churn).
      for (int probe = 0; probe < kMuxWaiterSlots; ++probe) {
        const int candidate = (slot_scan_hint_ + probe) % kMuxWaiterSlots;
        if (slots_[candidate] == nullptr) {
          slot = candidate;
          break;
        }
      }
      if (slot >= 0) {
        break;
      }
      cv_.wait(lock);
    }
    slot_scan_hint_ = (slot + 1) % kMuxWaiterSlots;
    // Mint the slot's next id: congruent to the slot index mod the slab size,
    // strictly increasing per slot, and never 0 (the id a client that does
    // not correlate replies sends), so no two in-flight requests ever share a
    // slot.
    request.request_id =
        static_cast<uint64_t>(slot) +
        static_cast<uint64_t>(kMuxWaiterSlots) * (++slot_generation_[slot]);
    waiter.request_id = request.request_id;
    slots_[slot] = &waiter;
  }
  bool write_ok;
  {
    // Per-thread scratch: steady-state requests assemble their wire bytes
    // with no per-call allocation.
    thread_local std::string wire;
    std::lock_guard<std::mutex> lock(write_mu_);
    write_ok = WriteFrame(*stream_, request, &wire);
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (!write_ok) {
    // The demux loop will notice the dead stream and fail the waiter; don't
    // wait for it — deregister ourselves if it has not already.
    if (slots_[slot] == &waiter) {
      slots_[slot] = nullptr;
      cv_.notify_all();
    }
    return false;
  }
  const auto served = [&] { return waiter.reply.has_value() || waiter.failed; };
  if (timeout_ms > 0) {
    if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), served)) {
      // No reply in time: the server is wedged or gone. The waiter is on
      // this stack frame, so it MUST leave the slab before we return; and
      // the connection must die with it — a reply landing later for a
      // deregistered id would (rightly) read as a protocol violation.
      if (slots_[slot] == &waiter) {
        slots_[slot] = nullptr;
        cv_.notify_all();
      }
      lock.unlock();
      stream_->Close();  // demux loop exits and marks the connection failed
      return false;
    }
  } else {
    cv_.wait(lock, served);
  }
  if (!waiter.reply.has_value()) {
    return false;  // demux loop failed us: connection over
  }
  *reply = std::move(*waiter.reply);
  return true;
}

Frame MuxInstructionStore::Call(Frame& request,
                                FrameType expected_reply) const {
  Frame reply;
  if (!TryCall(request, &reply)) {
    std::lock_guard<std::mutex> lock(mu_);
    DYNAPIPE_CHECK_MSG(false, "mux instruction store: connection lost (" +
                                  connection_error_ + ")");
  }
  if (reply.type == FrameType::kMissing) {
    // The server-side store did not hold the key. Same intentional contract
    // as the in-process store's fatal fetch-before-publish.
    DYNAPIPE_CHECK_MSG(false,
                       "mux instruction store: fetching unpublished plan");
  }
  DYNAPIPE_CHECK_MSG(reply.type == expected_reply,
                     "mux instruction store: unexpected reply type");
  return reply;
}

void MuxInstructionStore::Push(int64_t iteration, int32_t replica,
                               sim::ExecutionPlan plan) {
  // The frame persists per thread so its payload buffer (the encode scratch)
  // keeps its capacity across pushes: steady-state publishing allocates
  // nothing once the buffer has grown to plan size.
  thread_local Frame request;
  request.type = FrameType::kPush;
  request.iteration = iteration;
  request.replica = replica;
  service::EncodeExecutionPlanInto(plan, &request.payload);
  serialized_bytes_total_.fetch_add(
      static_cast<int64_t>(request.payload.size()), std::memory_order_relaxed);
  common::StoreMetrics& metrics = Metrics();
  metrics.push_total.Add();
  metrics.bytes_pushed.Add(static_cast<int64_t>(request.payload.size()));
  common::LatencyTimer push_timer;
  common::TraceSpan span("published", "plan", iteration, replica);
  // Take a push credit: bounds the kPush replies the server may be holding
  // back for us. Returned when our kOk lands (or the connection dies — the
  // credits die with it).
  {
    const common::LatencyTimer park_timer;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock,
             [&] { return push_credits_ > 0 || connection_failed_; });
    DYNAPIPE_CHECK_MSG(!connection_failed_,
                       "mux instruction store: connection lost (" +
                           connection_error_ + ")");
    --push_credits_;
    park_timer.ObserveInto(metrics.park_us);
  }
  // Blocks until the server's deferred kOk — the capacity backpressure.
  Call(request, FrameType::kOk);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++push_credits_;
    cv_.notify_all();
  }
  push_timer.ObserveInto(metrics.push_us);
}

sim::ExecutionPlan MuxInstructionStore::Fetch(int64_t iteration,
                                              int32_t replica) {
  Frame request;
  request.type = FrameType::kFetch;
  request.iteration = iteration;
  request.replica = replica;
  common::StoreMetrics& metrics = Metrics();
  metrics.fetch_total.Add();
  const common::LatencyTimer fetch_timer;
  Frame reply;
  {
    common::TraceSpan span("fetched", "plan", iteration, replica);
    reply = Call(request, FrameType::kPlanBytes);
  }
  std::string error;
  std::optional<sim::ExecutionPlan> plan;
  {
    common::TraceSpan span("decoded", "plan", iteration, replica);
    plan = service::TryDecodeExecutionPlan(reply.payload, &error);
  }
  fetch_timer.ObserveInto(metrics.fetch_us);
  DYNAPIPE_CHECK_MSG(plan.has_value(),
                     "mux instruction store: fetched plan is corrupt (" +
                         error + ")");
  return std::move(*plan);
}

bool MuxInstructionStore::Contains(int64_t iteration, int32_t replica) const {
  Frame request;
  request.type = FrameType::kContains;
  request.iteration = iteration;
  request.replica = replica;
  const Frame reply = Call(request, FrameType::kBool);
  DYNAPIPE_CHECK_MSG(reply.payload.size() == 1,
                     "mux instruction store: malformed kBool reply");
  return reply.payload[0] != '\0';
}

size_t MuxInstructionStore::size() const {
  Frame request;
  request.type = FrameType::kSize;
  const Frame reply = Call(request, FrameType::kCount);
  uint64_t count = 0;
  size_t pos = 0;
  DYNAPIPE_CHECK_MSG(
      service::TryParseVarint(reply.payload, &pos, &count) &&
          pos == reply.payload.size(),
      "mux instruction store: malformed kCount reply");
  return static_cast<size_t>(count);
}

void MuxInstructionStore::Shutdown() {
  Frame request;
  request.type = FrameType::kShutdown;
  Call(request, FrameType::kOk);
}

bool MuxInstructionStore::Heartbeat(int32_t replica, int64_t iteration,
                                    double wall_ms) {
  thread_local Frame request;
  request.type = FrameType::kHeartbeat;
  request.iteration = iteration;
  request.replica = replica;
  request.payload.clear();
  AppendHeartbeatPayload(wall_ms, &request.payload);
  Call(request, FrameType::kOk);
  return true;
}

int64_t MuxInstructionStore::serialized_bytes_total() const {
  return serialized_bytes_total_.load(std::memory_order_relaxed);
}

bool MuxInstructionStore::connection_ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !connection_failed_;
}

bool MuxInstructionStore::TryContains(int64_t iteration, int32_t replica,
                                      bool* present, int timeout_ms) {
  Frame request;
  request.type = FrameType::kContains;
  request.iteration = iteration;
  request.replica = replica;
  Frame reply;
  if (!TryCall(request, &reply, timeout_ms) ||
      reply.type != FrameType::kBool || reply.payload.size() != 1) {
    return false;  // connection-grade failure either way: drop and reconnect
  }
  *present = reply.payload[0] != '\0';
  return true;
}

std::optional<sim::ExecutionPlan> MuxInstructionStore::TryFetch(
    int64_t iteration, int32_t replica, bool* connection_lost) {
  *connection_lost = false;
  Frame request;
  request.type = FrameType::kFetch;
  request.iteration = iteration;
  request.replica = replica;
  common::StoreMetrics& metrics = Metrics();
  metrics.fetch_total.Add();
  const common::LatencyTimer fetch_timer;
  Frame reply;
  {
    common::TraceSpan span("fetched", "plan", iteration, replica);
    if (!TryCall(request, &reply)) {
      *connection_lost = true;
      return std::nullopt;
    }
  }
  if (reply.type == FrameType::kMissing) {
    return std::nullopt;  // key reclaimed (recovery reposted it) — not fatal
  }
  if (reply.type != FrameType::kPlanBytes) {
    *connection_lost = true;  // protocol confusion: treat as connection loss
    stream_->Close();
    return std::nullopt;
  }
  std::string error;
  std::optional<sim::ExecutionPlan> plan;
  {
    common::TraceSpan span("decoded", "plan", iteration, replica);
    plan = service::TryDecodeExecutionPlan(reply.payload, &error);
  }
  fetch_timer.ObserveInto(metrics.fetch_us);
  // Corrupt plan bytes stay fatal even on the resilient path: executing a
  // damaged plan is the one thing recovery must never do.
  DYNAPIPE_CHECK_MSG(plan.has_value(),
                     "mux instruction store: fetched plan is corrupt (" +
                         error + ")");
  return plan;
}

bool MuxInstructionStore::TryHeartbeat(int32_t replica, int64_t iteration,
                                       double wall_ms, bool* evicted) {
  *evicted = false;
  Frame request;
  request.type = FrameType::kHeartbeat;
  request.iteration = iteration;
  request.replica = replica;
  AppendHeartbeatPayload(wall_ms, &request.payload);
  Frame reply;
  if (!TryCall(request, &reply)) {
    return false;
  }
  if (reply.type == FrameType::kEvicted) {
    *evicted = true;
    return true;  // delivered — and the server told us to stop
  }
  return reply.type == FrameType::kOk;
}

bool MuxInstructionStore::Attach(int32_t replica, bool* evicted,
                                 int timeout_ms, bool join) {
  *evicted = false;
  Frame request;
  request.type = FrameType::kAttach;
  request.replica = replica;
  // Declare the stats capability: this client's demux loop answers
  // server-initiated kStatsRequest frames, so the server may pull snapshots
  // over this connection mid-epoch. A joiner additionally declares
  // kAttachCapJoin (frame v4).
  uint8_t caps = kAttachCapStats;
  if (join) {
    caps |= kAttachCapJoin;
  }
  request.payload.push_back(static_cast<char>(caps));
  Frame reply;
  if (!TryCall(request, &reply, timeout_ms)) {
    return false;
  }
  if (reply.type == FrameType::kEvicted) {
    *evicted = true;
    return true;
  }
  return reply.type == FrameType::kOk;
}

bool MuxInstructionStore::TryDrain(int32_t replica, bool* evicted,
                                   int timeout_ms) {
  *evicted = false;
  Frame request;
  request.type = FrameType::kDrainRequest;
  request.replica = replica;
  Frame reply;
  if (!TryCall(request, &reply, timeout_ms)) {
    return false;
  }
  if (reply.type == FrameType::kEvicted) {
    *evicted = true;
    return true;  // delivered — and the server told us to stop instead
  }
  return reply.type == FrameType::kDrainAck;
}

bool MuxInstructionStore::Detach(int32_t replica) {
  Frame request;
  request.type = FrameType::kDetach;
  request.replica = replica;
  Frame reply;
  return TryCall(request, &reply) && reply.type == FrameType::kOk;
}

bool MuxInstructionStore::TryStats(int64_t* server_trace_now_us,
                                   common::MetricsSnapshot* snapshot,
                                   int timeout_ms) {
  Frame request;
  request.type = FrameType::kStatsRequest;
  Frame reply;
  if (!TryCall(request, &reply, timeout_ms)) {
    return false;
  }
  if (reply.type != FrameType::kStatsReply ||
      !TryParseStatsPayload(reply.payload, server_trace_now_us, snapshot)) {
    stream_->Close();  // protocol confusion: connection-grade failure
    return false;
  }
  return true;
}

bool MuxInstructionStore::TrySyncClock(int timeout_ms) {
  common::Tracer& tracer = common::Tracer::Instance();
  const int64_t send_us = tracer.NowUs();
  int64_t server_now_us = 0;
  common::MetricsSnapshot ignored;
  if (!TryStats(&server_now_us, &ignored, timeout_ms)) {
    return false;
  }
  tracer.AlignToPeer(server_now_us, send_us, tracer.NowUs());
  return true;
}

}  // namespace dynapipe::transport
