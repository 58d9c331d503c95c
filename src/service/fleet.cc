#include "src/service/fleet.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace dynapipe::service {

int64_t FleetCoordinator::SpareKeyAllocator::Next(int32_t replica) {
  auto freed = released_.find(replica);
  if (freed != released_.end() && !freed->second.empty()) {
    const int64_t key = *freed->second.begin();
    freed->second.erase(freed->second.begin());
    return key;
  }
  auto [it, inserted] = next_.emplace(replica, base_);
  return it->second++;
}

FleetCoordinator::FleetCoordinator(runtime::RecoverableStore* store,
                                   HeartbeatMonitorOptions monitor_options,
                                   const FleetOptions& options)
    : store_(store),
      monitor_(monitor_options),
      spare_keys_(options.spare_iteration_base) {
  DYNAPIPE_CHECK_MSG(monitor_options.expected_replicas == 0,
                     "the fleet's size is FleetOptions::replicas");
  for (const int32_t replica : options.replicas) {
    members_.emplace(replica, Member::kActive);
  }
  ResizeLocked();
}

void FleetCoordinator::Beat(int32_t replica, int64_t iteration,
                            double wall_ms, Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  ApplyLocked(monitor_.Beat(replica, iteration, wall_ms, now));
}

void FleetCoordinator::Attach(int32_t replica, Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  ApplyLocked(monitor_.Attach(replica, now));
}

void FleetCoordinator::Drain(int32_t replica, Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  ApplyLocked(monitor_.Drain(replica, now));
}

void FleetCoordinator::Drop(int32_t replica, bool clean) {
  std::lock_guard<std::mutex> lock(mu_);
  ApplyLocked(monitor_.Drop(replica, clean));
}

void FleetCoordinator::PollLiveness(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  ApplyLocked(monitor_.PollLiveness(now));
}

void FleetCoordinator::OnHeartbeat(int32_t replica, int64_t iteration,
                                   double wall_ms) {
  Beat(replica, iteration, wall_ms, Clock::now());
}

void FleetCoordinator::OnReplicaAttached(int32_t replica) {
  Attach(replica, Clock::now());
}

void FleetCoordinator::OnReplicaDisconnected(int32_t replica, bool clean) {
  Drop(replica, clean);
}

void FleetCoordinator::OnReplicaDrainRequested(int32_t replica) {
  Drain(replica, Clock::now());
}

bool FleetCoordinator::IsReplicaDead(int32_t replica) const {
  return monitor_.IsReplicaDead(replica);
}

FleetReport FleetCoordinator::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return report_;
}

std::vector<int32_t> FleetCoordinator::ActiveMembers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ActiveLocked();
}

std::vector<int32_t> FleetCoordinator::ActiveLocked() const {
  std::vector<int32_t> active;
  for (const auto& [replica, state] : members_) {
    if (state == Member::kActive) {
      active.push_back(replica);
    }
  }
  return active;
}

size_t FleetCoordinator::MoveLocked(int32_t victim,
                                   const std::vector<int64_t>& plans,
                                   const std::vector<int32_t>& destinations) {
  // A victim that stays a polling member gets its vacated keys back (the
  // gap-filling rule in the header); a non-active one never does.
  const auto it = members_.find(victim);
  const bool release_vacated =
      it != members_.end() && it->second == Member::kActive;
  size_t moved = 0;
  if (destinations.empty()) {
    return moved;
  }
  for (const int64_t iteration : plans) {
    const int32_t destination = destinations[moved % destinations.size()];
    for (int attempt = 0; attempt < 16; ++attempt) {
      const runtime::RepostOutcome outcome = store_->Repost(
          iteration, victim, spare_keys_.Next(destination), destination);
      if (outcome == runtime::RepostOutcome::kDestinationTaken) {
        continue;  // that key is burned, not the plan: try the next one
      }
      if (outcome == runtime::RepostOutcome::kMoved) {
        ++moved;
        if (release_vacated) {
          spare_keys_.Release(victim, iteration);
        }
      }
      // kSourceGone: the victim fetched it in a race — the work happens.
      break;
    }
  }
  return moved;
}

void FleetCoordinator::ApplyLocked(const MonitorUpdate& update) {
  for (const ReplicaEvent& event : update.transitions) {
    switch (event.to) {
      case ReplicaLiveness::kDead:
        OnDeathLocked(event.replica);
        break;
      case ReplicaLiveness::kAlive:
        OnJoinLocked(event.replica);
        break;
      case ReplicaLiveness::kDraining:
        OnDrainLocked(event.replica);
        break;
      case ReplicaLiveness::kDetached: {
        // A clean goodbye retires any member; a re-attach is a join.
        const auto it = members_.find(event.replica);
        if (it != members_.end()) {
          it->second = Member::kDeparted;
          ResizeLocked();
        }
        break;
      }
      default:
        break;
    }
  }
  // The sweep: the one rule that moves plans off a member that stopped
  // polling. It hands a leaver's backlog off in the input that made it
  // leave, and a plan pushed to it later on the next input.
  for (const auto& [replica, state] : members_) {
    if (state != Member::kActive) {
      RehomeLocked(replica, state);
    }
  }
}

void FleetCoordinator::ResizeLocked() {
  monitor_.set_expected_replicas(static_cast<int32_t>(ActiveLocked().size()));
}

void FleetCoordinator::RehomeLocked(int32_t replica, Member state) {
  const std::vector<int64_t> pending = store_->PendingIterations(replica);
  if (pending.empty()) {
    return;
  }
  const std::vector<int32_t> active = ActiveLocked();
  if (active.empty()) {
    // Nobody left to take the work; free the slots so parked pushes
    // unblock, and record the loss.
    report_.dropped_iterations +=
        static_cast<int64_t>(store_->DropReplica(replica));
    return;
  }
  const auto t0 = Clock::now();
  const auto moved = static_cast<int64_t>(MoveLocked(replica, pending, active));
  if (state != Member::kDead) {
    report_.drain_reposted += moved;
    return;
  }
  report_.replanned_iterations += moved;
  static common::Counter& reposts =
      common::MetricsRegistry::Instance().GetCounter("recovery_reposts_total");
  reposts.Add(moved);
  const double recovery_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  report_.recovery_ms += recovery_ms;
  static common::LatencyHistogram& recovery_us =
      common::MetricsRegistry::Instance().GetHistogram("recovery_us");
  recovery_us.RecordMs(recovery_ms);
}

void FleetCoordinator::OnDeathLocked(int32_t replica) {
  report_.dead_replicas.push_back(replica);
  members_[replica] = Member::kDead;  // sticky, like the monitor's kDead
  ResizeLocked();
}

void FleetCoordinator::OnJoinLocked(int32_t replica) {
  const auto it = members_.find(replica);
  if (it != members_.end() && it->second != Member::kDeparted) {
    return;  // a known member proving liveness, or a zombie — not a join
  }
  common::TraceSpan span("join", "membership", /*iteration=*/0, replica);
  members_[replica] = Member::kActive;
  report_.joined.push_back(replica);
  static common::Counter& joins =
      common::MetricsRegistry::Instance().GetCounter("membership_joins_total");
  joins.Add();
  // Donor: the peer with the deepest unfetched backlog.
  const std::vector<int32_t> active = ActiveLocked();
  int32_t donor = -1;
  std::vector<int64_t> tail;
  for (const int32_t peer : active) {
    if (peer == replica) {
      continue;
    }
    std::vector<int64_t> pending = store_->PendingIterations(peer);
    if (pending.size() > tail.size()) {
      donor = peer;
      tail = std::move(pending);
    }
  }
  if (donor >= 0) {
    const size_t share = tail.size() / active.size();
    std::reverse(tail.begin(), tail.end());
    tail.resize(share);
    report_.join_stolen +=
        static_cast<int64_t>(MoveLocked(donor, tail, {replica}));
  }
  ResizeLocked();
}

void FleetCoordinator::OnDrainLocked(int32_t replica) {
  const auto it = members_.find(replica);
  if (it != members_.end() && it->second != Member::kActive) {
    return;  // zombie, departed or duplicate request
  }
  // Out of the member set: no move targets it from here on, and the sweep
  // that ends this input hands its backlog to the active members.
  common::TraceSpan span("drain", "membership", /*iteration=*/0, replica);
  members_[replica] = Member::kDraining;  // a drain implies membership
  report_.drained.push_back(replica);
  static common::Counter& drains =
      common::MetricsRegistry::Instance().GetCounter("membership_drains_total");
  drains.Add();
  ResizeLocked();
}

}  // namespace dynapipe::service
