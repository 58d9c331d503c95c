#include "src/service/heartbeat_monitor.h"

#include <algorithm>

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
    : options_(options), expected_replicas_(options.expected_replicas) {}

void HeartbeatMonitor::TransitionLocked(int32_t replica, ReplicaLiveness to,
                                        const char* reason,
                                        MonitorUpdate* update) {
  ReplicaState& state = replicas_[replica];
  if (state.state == to) {
    return;
  }
  if (update != nullptr) {
    update->transitions.push_back(
        ReplicaEvent{replica, state.state, to, reason});
  }
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
}

void HeartbeatMonitor::BeatLocked(int32_t replica, int64_t iteration,
                                  double wall_ms, Clock::time_point now,
                                  MonitorUpdate* update) {
  ReplicaState& state = replicas_[replica];
  if (state.state == ReplicaLiveness::kDead) {
    // Sticky: a zombie's report neither refreshes anything nor counts toward
    // the iteration's report set — once the expected fleet has shrunk past
    // it, a late beat would fill the set before a live member reported and
    // flag stragglers against the wrong median.
    return;
  }
  ++total_heartbeats_;
  auto [it, inserted] = last_iteration_.emplace(replica, iteration);
  if (!inserted) {
    it->second = std::max(it->second, iteration);
  }
  state.last_seen = std::max(state.last_seen, now);
  // A draining replica's in-flight completions refresh its deadline but
  // never revive it to kAlive — it is on its way out, not back.
  if (state.state != ReplicaLiveness::kDraining) {
    TransitionLocked(replica, ReplicaLiveness::kAlive, "heartbeat", update);
  }
  completions_[iteration][replica] = wall_ms;  // a duplicate overwrites
}

MonitorUpdate HeartbeatMonitor::Beat(int32_t replica, int64_t iteration,
                                     double wall_ms, Clock::time_point now) {
  MonitorUpdate update;
  std::lock_guard<std::mutex> lock(mu_);
  BeatLocked(replica, iteration, wall_ms, now, &update);
  return update;
}

MonitorUpdate HeartbeatMonitor::Attach(int32_t replica,
                                       Clock::time_point now) {
  MonitorUpdate update;
  std::lock_guard<std::mutex> lock(mu_);
  ReplicaState& state = replicas_[replica];
  if (state.state != ReplicaLiveness::kDead) {  // a zombie stays dead
    state.last_seen = std::max(state.last_seen, now);
    // Liveness touches (the shm poller relays Contains-poll activity as
    // attach) must not flip a drainer back to alive mid-handoff.
    if (state.state != ReplicaLiveness::kDraining) {
      TransitionLocked(replica, ReplicaLiveness::kAlive, "attached", &update);
    }
  }
  return update;
}

MonitorUpdate HeartbeatMonitor::Drain(int32_t replica, Clock::time_point now) {
  MonitorUpdate update;
  std::lock_guard<std::mutex> lock(mu_);
  ReplicaState& state = replicas_[replica];
  if (state.state != ReplicaLiveness::kDead) {  // too late: evicted instead
    state.last_seen = std::max(state.last_seen, now);
    TransitionLocked(replica, ReplicaLiveness::kDraining, "drain requested",
                     &update);
  }
  return update;
}

MonitorUpdate HeartbeatMonitor::Drop(int32_t replica, bool clean) {
  MonitorUpdate update;
  std::lock_guard<std::mutex> lock(mu_);
  if (replicas_[replica].state == ReplicaLiveness::kDead) {
    // Already declared; the dropped zombie connection changes nothing.
  } else if (clean) {
    TransitionLocked(replica, ReplicaLiveness::kDetached, "clean detach",
                     &update);
  } else {
    // The stream died with the replica still attached: a vanished process
    // or a peer dropped for a malformed frame. Declare death immediately,
    // so recovery starts without waiting out a heartbeat deadline; the
    // peer's reconnect, if any, is evicted.
    TransitionLocked(replica, ReplicaLiveness::kDead, "connection dropped",
                     &update);
  }
  return update;
}

void HeartbeatMonitor::set_expected_replicas(int32_t expected) {
  std::lock_guard<std::mutex> lock(mu_);
  expected_replicas_ = expected;
}

MonitorUpdate HeartbeatMonitor::PollLiveness(Clock::time_point now) {
  MonitorUpdate update;
  if (options_.dead_after_ms <= 0.0) {
    return update;
  }
  const std::chrono::duration<double, std::milli> deadline(
      options_.dead_after_ms);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [replica, state] : replicas_) {
    // The deadline applies only while presence is expected — and a drainer
    // that wedges instead of detaching must still die.
    if ((state.state == ReplicaLiveness::kAlive ||
         state.state == ReplicaLiveness::kDraining) &&
        now - state.last_seen > deadline) {
      TransitionLocked(replica, ReplicaLiveness::kDead, "heartbeat deadline",
                       &update);
    }
  }
  return update;
}

void HeartbeatMonitor::OnHeartbeat(int32_t replica, int64_t iteration,
                                   double wall_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  BeatLocked(replica, iteration, wall_ms, Clock::now(), nullptr);
}

void HeartbeatMonitor::OnReplicaAttached(int32_t replica) {
  Attach(replica, Clock::now());
}

void HeartbeatMonitor::OnReplicaDisconnected(int32_t replica, bool clean) {
  Drop(replica, clean);
}

void HeartbeatMonitor::OnReplicaDrainRequested(int32_t replica) {
  Drain(replica, Clock::now());
}

bool HeartbeatMonitor::IsReplicaDead(int32_t replica) const {
  return Liveness(replica) == ReplicaLiveness::kDead;
}

int32_t HeartbeatMonitor::expected_replicas() const {
  std::lock_guard<std::mutex> lock(mu_);
  return expected_replicas_;
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
