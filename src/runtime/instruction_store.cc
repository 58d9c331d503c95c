#include "src/runtime/instruction_store.h"

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/service/plan_serde.h"

namespace dynapipe::runtime {

namespace {
common::StoreMetrics& Metrics() {
  static common::StoreMetrics& m = common::StoreMetrics::For("inprocess");
  return m;
}
}  // namespace

bool InstructionStore::Insert(int64_t iteration, int32_t replica, Entry entry,
                              size_t encoded_bytes) {
  common::StoreMetrics& metrics = Metrics();
  metrics.push_total.Add();
  metrics.bytes_pushed.Add(static_cast<int64_t>(encoded_bytes));
  common::TraceSpan span("published", "plan", iteration, replica);
  const common::LatencyTimer park_timer;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return shutdown_ || options_.capacity == 0 ||
           plans_.size() < options_.capacity;
  });
  park_timer.ObserveInto(metrics.park_us);
  if (shutdown_) {
    return false;  // dropped; the consumer is gone
  }
  const auto key = std::make_pair(iteration, replica);
  DYNAPIPE_CHECK_MSG(plans_.find(key) == plans_.end(),
                     "plan already published for this iteration/replica");
  serialized_bytes_total_ += static_cast<int64_t>(encoded_bytes);
  plans_.emplace(key, std::move(entry));
  return true;
}

InstructionStore::Entry InstructionStore::Remove(int64_t iteration,
                                                 int32_t replica) {
  Entry entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(std::make_pair(iteration, replica));
    DYNAPIPE_CHECK_MSG(it != plans_.end(), "fetching unpublished plan");
    entry = std::move(it->second);
    plans_.erase(it);
  }
  cv_.notify_all();
  return entry;
}

void InstructionStore::Push(int64_t iteration, int32_t replica,
                            sim::ExecutionPlan plan) {
  const common::LatencyTimer push_timer;
  // Serialize outside the lock: encoding is the expensive part and needs no
  // store state.
  Entry entry;
  size_t encoded_bytes = 0;
  if (options_.serialized) {
    service::EncodeExecutionPlanInto(plan, &entry.bytes);
    encoded_bytes = entry.bytes.size();
  } else {
    entry.plan = std::move(plan);
  }
  Insert(iteration, replica, std::move(entry), encoded_bytes);
  push_timer.ObserveInto(Metrics().push_us);
}

sim::ExecutionPlan InstructionStore::Fetch(int64_t iteration, int32_t replica) {
  common::StoreMetrics& metrics = Metrics();
  metrics.fetch_total.Add();
  const common::LatencyTimer fetch_timer;
  Entry entry;
  {
    common::TraceSpan span("fetched", "plan", iteration, replica);
    entry = Remove(iteration, replica);
  }
  // Decode outside the lock, mirroring Push.
  sim::ExecutionPlan plan;
  {
    common::TraceSpan span("decoded", "plan", iteration, replica);
    plan = options_.serialized ? service::DecodeExecutionPlan(entry.bytes)
                               : std::move(entry.plan);
  }
  fetch_timer.ObserveInto(metrics.fetch_us);
  return plan;
}

bool InstructionStore::PushBytes(int64_t iteration, int32_t replica,
                                 std::string bytes) {
  DYNAPIPE_CHECK_MSG(options_.serialized,
                     "PushBytes needs a serialized-mode store");
  Entry entry;
  entry.bytes = std::move(bytes);
  const size_t encoded_bytes = entry.bytes.size();
  return Insert(iteration, replica, std::move(entry), encoded_bytes);
}

std::string InstructionStore::FetchBytes(int64_t iteration, int32_t replica) {
  DYNAPIPE_CHECK_MSG(options_.serialized,
                     "FetchBytes needs a serialized-mode store");
  return std::move(Remove(iteration, replica).bytes);
}

std::optional<std::string> InstructionStore::TryFetchBytes(int64_t iteration,
                                                           int32_t replica) {
  DYNAPIPE_CHECK_MSG(options_.serialized,
                     "TryFetchBytes needs a serialized-mode store");
  std::optional<std::string> bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(std::make_pair(iteration, replica));
    if (it == plans_.end()) {
      return std::nullopt;
    }
    bytes = std::move(it->second.bytes);
    plans_.erase(it);
  }
  cv_.notify_all();
  return bytes;
}

std::vector<int64_t> InstructionStore::PendingIterations(
    int32_t replica) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> iterations;
  for (const auto& [key, entry] : plans_) {
    if (key.second == replica) {
      iterations.push_back(key.first);  // map order = ascending iteration
    }
  }
  return iterations;
}

RepostOutcome InstructionStore::Repost(int64_t src_iteration,
                                       int32_t src_replica,
                                       int64_t dst_iteration,
                                       int32_t dst_replica) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto src = plans_.find(std::make_pair(src_iteration, src_replica));
    if (src == plans_.end()) {
      return RepostOutcome::kSourceGone;
    }
    const auto dst_key = std::make_pair(dst_iteration, dst_replica);
    if (plans_.find(dst_key) != plans_.end()) {
      return RepostOutcome::kDestinationTaken;  // leave both alone
    }
    plans_.emplace(dst_key, std::move(src->second));
    plans_.erase(src);
    // Residency count is unchanged, but a poller parked on the destination
    // key may be waiting in a Contains/fetch loop — nothing here to wake;
    // executors poll, they do not block on the store cv.
  }
  return RepostOutcome::kMoved;
}

size_t InstructionStore::DropReplica(int32_t replica) {
  size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = plans_.begin(); it != plans_.end();) {
      if (it->first.second == replica) {
        it = plans_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  if (dropped > 0) {
    cv_.notify_all();  // freed capacity slots
  }
  return dropped;
}

bool InstructionStore::Contains(int64_t iteration, int32_t replica) const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.find(std::make_pair(iteration, replica)) != plans_.end();
}

size_t InstructionStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

void InstructionStore::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

int64_t InstructionStore::serialized_bytes_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return serialized_bytes_total_;
}

void InstructionStore::set_heartbeat_sink(HeartbeatSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  heartbeat_sink_ = sink;
}

bool InstructionStore::Heartbeat(int32_t replica, int64_t iteration,
                                 double wall_ms) {
  HeartbeatSink* sink = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sink = heartbeat_sink_;
  }
  // Deliver outside mu_: the sink takes its own lock, and a sink that calls
  // back into the store must not self-deadlock.
  if (sink == nullptr) {
    return false;
  }
  sink->OnHeartbeat(replica, iteration, wall_ms);
  return true;
}

void InstructionStore::NotifyReplicaAttached(int32_t replica) {
  HeartbeatSink* sink = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sink = heartbeat_sink_;
  }
  if (sink != nullptr) {
    sink->OnReplicaAttached(replica);  // outside mu_, like OnHeartbeat
  }
}

void InstructionStore::NotifyReplicaDisconnected(int32_t replica, bool clean) {
  HeartbeatSink* sink = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sink = heartbeat_sink_;
  }
  if (sink != nullptr) {
    sink->OnReplicaDisconnected(replica, clean);
  }
}

void InstructionStore::NotifyReplicaDrainRequested(int32_t replica) {
  HeartbeatSink* sink = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sink = heartbeat_sink_;
  }
  if (sink != nullptr) {
    // Outside mu_: a FleetCoordinator sink hands the drainer off inside
    // this call, straight back into this store (PendingIterations, Repost).
    sink->OnReplicaDrainRequested(replica);
  }
}

bool InstructionStore::ReplicaConsideredDead(int32_t replica) const {
  HeartbeatSink* sink = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sink = heartbeat_sink_;
  }
  return sink != nullptr && sink->IsReplicaDead(replica);
}

}  // namespace dynapipe::runtime
