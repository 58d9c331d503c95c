#include "src/service/heartbeat_monitor.h"

#include <algorithm>
#include <optional>

#include "src/common/metrics.h"

namespace dynapipe::service {

const char* ReplicaLivenessName(ReplicaLiveness state) {
  switch (state) {
    case ReplicaLiveness::kUnknown: return "unknown";
    case ReplicaLiveness::kAlive: return "alive";
    case ReplicaLiveness::kDead: return "dead";
    case ReplicaLiveness::kDetached: return "detached";
    case ReplicaLiveness::kDraining: return "draining";
  }
  return "?";
}

HeartbeatMonitor::HeartbeatMonitor(HeartbeatMonitorOptions options)
    : options_(options), expected_replicas_(options.expected_replicas) {
  if (options_.dead_after_ms > 0.0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

HeartbeatMonitor::~HeartbeatMonitor() {
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

void HeartbeatMonitor::set_event_callback(
    std::function<void(const ReplicaEvent&)> callback) {
  std::unique_lock<std::mutex> lock(mu_);
  event_callback_ = std::move(callback);
  // Swapping the callback out (to nullptr at subscriber teardown) must not
  // return while a delivery is mid-flight on another thread — the subscriber
  // is about to be destroyed. Wait for in-flight deliveries to drain; new
  // deliveries see the new callback.
  callback_cv_.wait(lock, [&] { return callbacks_in_flight_ == 0; });
}

void HeartbeatMonitor::set_straggler_callback(
    std::function<void(const IterationHeartbeatStats&)> callback) {
  std::unique_lock<std::mutex> lock(mu_);
  straggler_callback_ = std::move(callback);
  // Same drain rule as set_event_callback: unregistering (nullptr) must not
  // return while a delivery runs on another thread.
  callback_cv_.wait(lock, [&] { return callbacks_in_flight_ == 0; });
}

void HeartbeatMonitor::TransitionLocked(int32_t replica, ReplicaLiveness to,
                                        const char* reason,
                                        std::vector<ReplicaEvent>* events) {
  ReplicaState& state = replicas_[replica];
  if (state.state == to) {
    return;
  }
  ReplicaEvent event;
  event.replica = replica;
  event.from = state.state;
  event.to = to;
  event.reason = reason;
  state.state = to;
  static common::Counter& transitions =
      common::MetricsRegistry::Instance().GetCounter(
          "liveness_transitions_total");
  transitions.Add();
  if (to == ReplicaLiveness::kDead) {
    static common::Counter& deaths =
        common::MetricsRegistry::Instance().GetCounter(
            "liveness_deaths_total");
    deaths.Add();
  }
  events->push_back(std::move(event));
}

void HeartbeatMonitor::FireEvents(const std::vector<ReplicaEvent>& events) {
  if (events.empty()) {
    return;
  }
  std::function<void(const ReplicaEvent&)> callback;
  {
    std::lock_guard<std::mutex> lock(mu_);
    callback = event_callback_;
    if (callback) {
      ++callbacks_in_flight_;
    }
  }
  if (!callback) {
    return;
  }
  for (const ReplicaEvent& event : events) {
    callback(event);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --callbacks_in_flight_;
  }
  callback_cv_.notify_all();
}

void HeartbeatMonitor::OnHeartbeat(int32_t replica, int64_t iteration,
                                   double wall_ms) {
  std::vector<ReplicaEvent> events;
  std::optional<IterationHeartbeatStats> completed;
  std::function<void(const IterationHeartbeatStats&)> straggler_callback;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++total_heartbeats_;
    auto [it, inserted] = last_iteration_.emplace(replica, iteration);
    if (!inserted) {
      it->second = std::max(it->second, iteration);
    }
    std::map<int32_t, double>& by_replica = completions_[iteration];
    const auto [wall_it, fresh] = by_replica.try_emplace(replica, wall_ms);
    if (!fresh) {
      wall_it->second = wall_ms;
    }
    // The completing heartbeat: a *new* reporter just grew the set to the
    // expected fleet size. The straggler_fired_ guard makes the fire
    // exactly-once per iteration — a duplicate beat overwrites its wall but
    // cannot re-complete the set, and >= (not ==) keeps the fire alive when
    // the fleet shrank below an iteration's current reporter count between
    // its heartbeats. Snapshot the stats under the lock, deliver outside it.
    if (fresh && straggler_callback_ && expected_replicas_ > 0 &&
        static_cast<int32_t>(by_replica.size()) >= expected_replicas_ &&
        straggler_fired_.insert(iteration).second) {
      completed = ForIterationLocked(iteration);
      straggler_callback = straggler_callback_;
      ++callbacks_in_flight_;
    }

    ReplicaState& state = replicas_[replica];
    if (state.state != ReplicaLiveness::kDead) {  // dead is sticky
      state.last_seen = Clock::now();
      // A draining replica's in-flight completions refresh its deadline but
      // never revive it to kAlive — it is on its way out, not back.
      if (state.state != ReplicaLiveness::kDraining) {
        TransitionLocked(replica, ReplicaLiveness::kAlive, "heartbeat",
                         &events);
      }
    }
  }
  FireEvents(events);
  if (completed.has_value()) {
    straggler_callback(*completed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --callbacks_in_flight_;
    }
    callback_cv_.notify_all();
  }
}

void HeartbeatMonitor::OnReplicaAttached(int32_t replica) {
  std::vector<ReplicaEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ReplicaState& state = replicas_[replica];
    if (state.state != ReplicaLiveness::kDead) {  // a zombie stays dead
      state.last_seen = Clock::now();
      // Liveness touches (the shm poller relays Contains-poll activity as
      // attach) must not flip a drainer back to alive mid-handoff.
      if (state.state != ReplicaLiveness::kDraining) {
        TransitionLocked(replica, ReplicaLiveness::kAlive, "attached",
                         &events);
      }
    }
  }
  FireEvents(events);
}

void HeartbeatMonitor::OnReplicaDrainRequested(int32_t replica) {
  std::vector<ReplicaEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ReplicaState& state = replicas_[replica];
    if (state.state != ReplicaLiveness::kDead) {  // too late: evicted instead
      state.last_seen = Clock::now();
      TransitionLocked(replica, ReplicaLiveness::kDraining, "drain requested",
                       &events);
    }
  }
  FireEvents(events);
}

void HeartbeatMonitor::OnReplicaDisconnected(int32_t replica, bool clean) {
  std::vector<ReplicaEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ReplicaState& state = replicas_[replica];
    if (state.state == ReplicaLiveness::kDead) {
      // Already declared; the dropped zombie connection changes nothing.
    } else if (clean) {
      TransitionLocked(replica, ReplicaLiveness::kDetached, "clean detach",
                       &events);
    } else {
      // The stream died with the replica still attached: a vanished process
      // or a peer dropped for a malformed frame. Declare death immediately,
      // so recovery starts without waiting out a heartbeat deadline; the
      // peer's reconnect, if any, is evicted.
      TransitionLocked(replica, ReplicaLiveness::kDead, "connection dropped",
                       &events);
    }
  }
  FireEvents(events);
}

bool HeartbeatMonitor::IsReplicaDead(int32_t replica) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = replicas_.find(replica);
  return it != replicas_.end() && it->second.state == ReplicaLiveness::kDead;
}

void HeartbeatMonitor::set_expected_replicas(int32_t expected) {
  std::vector<IterationHeartbeatStats> completed;
  std::function<void(const IterationHeartbeatStats&)> straggler_callback;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int32_t previous = expected_replicas_;
    expected_replicas_ = expected;
    // A shrink can complete report sets retroactively: an iteration parked at
    // N-1 of N reporters — the drained replica's beat is never coming — is
    // complete at N-1 of N-1, and the rebalance loop downstream would
    // otherwise wait forever for a fire gated on a stale fleet size. The
    // straggler_fired_ guard keeps every fire exactly-once across both
    // completion paths.
    if (straggler_callback_ && expected > 0 && expected < previous) {
      for (const auto& [iteration, by_replica] : completions_) {
        if (static_cast<int32_t>(by_replica.size()) >= expected &&
            straggler_fired_.insert(iteration).second) {
          completed.push_back(ForIterationLocked(iteration));
        }
      }
      if (!completed.empty()) {
        straggler_callback = straggler_callback_;
        ++callbacks_in_flight_;
      }
    }
  }
  if (straggler_callback) {
    for (const IterationHeartbeatStats& stats : completed) {
      straggler_callback(stats);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --callbacks_in_flight_;
    }
    callback_cv_.notify_all();
  }
}

int32_t HeartbeatMonitor::expected_replicas() const {
  std::lock_guard<std::mutex> lock(mu_);
  return expected_replicas_;
}

int HeartbeatMonitor::PollLiveness(Clock::time_point now) {
  std::vector<ReplicaEvent> events;
  if (options_.dead_after_ms > 0.0) {
    const std::chrono::duration<double, std::milli> deadline(
        options_.dead_after_ms);
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [replica, state] : replicas_) {
      // The deadline applies only while presence is expected — and a drainer
      // that wedges instead of detaching must still die.
      if ((state.state == ReplicaLiveness::kAlive ||
           state.state == ReplicaLiveness::kDraining) &&
          now - state.last_seen > deadline) {
        TransitionLocked(replica, ReplicaLiveness::kDead,
                         "heartbeat deadline", &events);
      }
    }
  }
  FireEvents(events);
  return static_cast<int>(events.size());
}

ReplicaLiveness HeartbeatMonitor::Liveness(int32_t replica) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = replicas_.find(replica);
  return it == replicas_.end() ? ReplicaLiveness::kUnknown : it->second.state;
}

std::vector<int32_t> HeartbeatMonitor::DeadReplicas() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int32_t> dead;
  for (const auto& [replica, state] : replicas_) {
    if (state.state == ReplicaLiveness::kDead) {
      dead.push_back(replica);  // map order = ascending
    }
  }
  return dead;
}

void HeartbeatMonitor::WatchdogLoop() {
  // Tick fast enough that the deadline is detected within a fraction of
  // itself, clamped so near-zero test deadlines do not spin.
  const auto tick = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(
          std::clamp(options_.dead_after_ms / 4.0, 1.0, 50.0)));
  std::unique_lock<std::mutex> lock(mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, tick, [&] { return watchdog_stop_; });
    if (watchdog_stop_) {
      break;
    }
    lock.unlock();
    PollLiveness(Clock::now());
    lock.lock();
  }
}

IterationHeartbeatStats HeartbeatMonitor::ForIteration(
    int64_t iteration) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ForIterationLocked(iteration);
}

IterationHeartbeatStats HeartbeatMonitor::ForIterationLocked(
    int64_t iteration) const {
  IterationHeartbeatStats stats;
  stats.iteration = iteration;
  stats.replicas_expected = expected_replicas_;
  const auto it = completions_.find(iteration);
  if (it == completions_.end() || it->second.empty()) {
    return stats;
  }
  const std::map<int32_t, double>& by_replica = it->second;
  stats.replicas_reported = static_cast<int32_t>(by_replica.size());
  // Member scratch (mu_ is held): clear keeps capacity, so steady-state
  // queries allocate nothing.
  std::vector<double>& walls = wall_scratch_;
  walls.clear();
  walls.reserve(by_replica.size());
  for (const auto& [replica, wall_ms] : by_replica) {
    walls.push_back(wall_ms);
    stats.max_wall_ms = std::max(stats.max_wall_ms, wall_ms);
  }
  // Median by the usual even/odd convention; nth_element twice stays O(n).
  const size_t mid = walls.size() / 2;
  std::nth_element(walls.begin(), walls.begin() + mid, walls.end());
  stats.median_wall_ms = walls[mid];
  if (walls.size() % 2 == 0) {
    std::nth_element(walls.begin(), walls.begin() + (mid - 1),
                     walls.begin() + mid);
    stats.median_wall_ms = (stats.median_wall_ms + walls[mid - 1]) / 2.0;
  }
  // Flag stragglers only against a complete (or unknown-size) report set: a
  // median over the first 1–2 finishers is not a threshold, and comparing
  // later finishers against it mis-flags ordinary skew. Gated on the *live*
  // fleet size — after a drain, a full set of the survivors flags; a stale
  // pre-drain expectation must not suppress it.
  if (expected_replicas_ > 0 &&
      stats.replicas_reported < expected_replicas_) {
    return stats;
  }
  const double threshold =
      options_.straggler_multiple * stats.median_wall_ms +
      options_.min_straggler_gap_ms;
  for (const auto& [replica, wall_ms] : by_replica) {
    if (wall_ms > threshold) {
      stats.stragglers.push_back(replica);  // map order = ascending replica
    }
  }
  return stats;
}

int64_t HeartbeatMonitor::LastIteration(int32_t replica) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = last_iteration_.find(replica);
  return it == last_iteration_.end() ? -1 : it->second;
}

int64_t HeartbeatMonitor::total_heartbeats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_heartbeats_;
}

}  // namespace dynapipe::service
