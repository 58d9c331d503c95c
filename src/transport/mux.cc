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

bool MuxInstructionStore::connection_ok() const {
  return connection_ok_.load(std::memory_order_acquire);
}

bool MuxInstructionStore::Lost() {
  connection_ok_.store(false, std::memory_order_release);
  stream_->Close();
  return false;
}

bool MuxInstructionStore::TryCall(Frame& request, Frame* reply,
                                  int timeout_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!connection_ok()) {
    return false;
  }
  request.request_id = ++last_request_id_;
  const Deadline deadline =
      timeout_ms > 0 ? std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(timeout_ms)
                     : kNoDeadline;
  std::optional<Frame> got;
  if (WriteFrame(*stream_, request, &wire_)) {
    got = ReadFrame(*stream_, nullptr, deadline);
  }
  // The server answers each request before reading the next, so the reply
  // must echo this id; anything else means the stream is out of step.
  if (!got.has_value() || got->request_id != request.request_id) {
    return Lost();
  }
  *reply = std::move(*got);
  return true;
}

bool MuxInstructionStore::TryContains(int64_t iteration, int32_t replica,
                                      bool* present, int timeout_ms) {
  Frame request;
  request.type = FrameType::kContains;
  request.iteration = iteration;
  request.replica = replica;
  Frame reply;
  if (!TryCall(request, &reply, timeout_ms)) {
    return false;
  }
  if (reply.type != FrameType::kBool || reply.payload.size() != 1) {
    return Lost();
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
    *connection_lost = true;
    Lost();
    return std::nullopt;
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
  return reply.type == FrameType::kOk || Lost();
}

bool MuxInstructionStore::Attach(int32_t replica, bool* evicted,
                                 int timeout_ms) {
  *evicted = false;
  Frame request;
  request.type = FrameType::kAttach;
  request.replica = replica;
  Frame reply;
  if (!TryCall(request, &reply, timeout_ms)) {
    return false;
  }
  if (reply.type == FrameType::kEvicted) {
    *evicted = true;
    return true;
  }
  return reply.type == FrameType::kOk || Lost();
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
  return reply.type == FrameType::kDrainAck || Lost();
}

bool MuxInstructionStore::Detach(int32_t replica) {
  Frame request;
  request.type = FrameType::kDetach;
  request.replica = replica;
  Frame reply;
  if (!TryCall(request, &reply)) {
    return false;
  }
  return reply.type == FrameType::kOk || Lost();
}

bool MuxInstructionStore::TrySyncClock(int timeout_ms) {
  common::Tracer& tracer = common::Tracer::Instance();
  const int64_t send_us = tracer.NowUs();
  Frame request;
  request.type = FrameType::kClockRequest;
  Frame reply;
  if (!TryCall(request, &reply, timeout_ms)) {
    return false;
  }
  int64_t server_now_us = 0;
  if (reply.type != FrameType::kClockReply ||
      !TryParseClockPayload(reply.payload, &server_now_us)) {
    return Lost();
  }
  tracer.AlignToPeer(server_now_us, send_us, tracer.NowUs());
  return true;
}

}  // namespace dynapipe::transport
