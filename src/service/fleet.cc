#include "src/service/fleet.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace dynapipe::service {

namespace {
bool Contains(const std::vector<int32_t>& v, int32_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}
}  // namespace

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
                                   FleetOptions options)
    : store_(store),
      options_(std::move(options)),
      monitor_(monitor_options),
      spare_keys_(options_.spare_iteration_base) {
  DYNAPIPE_CHECK_MSG(monitor_options.expected_replicas == 0,
                     "the fleet's size is FleetOptions::replicas");
  for (const int32_t replica : options_.replicas) {
    members_.emplace(replica, Member::kActive);
  }
  ResizeLocked();  // no report set exists yet, so nothing reacts
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

std::vector<int32_t> FleetCoordinator::PeersLocked(int32_t replica) const {
  std::vector<int32_t> peers = ActiveLocked();
  peers.erase(std::remove(peers.begin(), peers.end(), replica), peers.end());
  return peers;
}

std::vector<int64_t> FleetCoordinator::MoveLocked(
    int32_t victim, const std::vector<int64_t>& plans,
    const std::vector<int32_t>& destinations) {
  // A victim that stays a polling member gets its vacated keys back (the
  // gap-filling rule in the header); the dead and the draining never do.
  const auto it = members_.find(victim);
  const bool release_vacated =
      it != members_.end() && it->second == Member::kActive;
  std::vector<int64_t> moved;
  if (destinations.empty()) {
    return moved;
  }
  for (const int64_t iteration : plans) {
    const int32_t destination =
        destinations[moved.size() % destinations.size()];
    for (int attempt = 0; attempt < 16; ++attempt) {
      const runtime::RepostOutcome outcome = store_->Repost(
          iteration, victim, spare_keys_.Next(destination), destination);
      if (outcome == runtime::RepostOutcome::kDestinationTaken) {
        continue;  // that key is burned, not the plan: try the next one
      }
      if (outcome == runtime::RepostOutcome::kMoved) {
        moved.push_back(iteration);
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
  ReactLocked(update);
  // A plan pushed to a replica after its death lands at a key nobody polls:
  // move it as the death moved the backlog. No dead member, no store call.
  for (const auto& [replica, state] : members_) {
    if (state == Member::kDead) {
      RehomeLocked(replica);
    }
  }
}

void FleetCoordinator::ReactLocked(const MonitorUpdate& update) {
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
        // A drainer's clean exit: the handoff and the shrink already
        // happened, so just retire it; a re-join admits the id afresh.
        const auto it = members_.find(event.replica);
        if (it != members_.end() && it->second == Member::kDraining) {
          members_.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }
  if (options_.rebalance) {
    for (const IterationHeartbeatStats& stats : update.completed) {
      OnIterationCompleteLocked(stats);
    }
  }
}

void FleetCoordinator::ResizeLocked() {
  ReactLocked(monitor_.set_expected_replicas(
      static_cast<int32_t>(ActiveLocked().size())));
}

void FleetCoordinator::RehomeLocked(int32_t dead) {
  const std::vector<int32_t> survivors = PeersLocked(dead);
  if (survivors.empty()) {
    // Nobody left to take the work; free the slots so parked pushes
    // unblock, and record the loss.
    report_.dropped_iterations +=
        static_cast<int64_t>(store_->DropReplica(dead));
    return;
  }
  const size_t moved =
      MoveLocked(dead, store_->PendingIterations(dead), survivors).size();
  report_.replanned_iterations += static_cast<int64_t>(moved);
  static common::Counter& reposts =
      common::MetricsRegistry::Instance().GetCounter("recovery_reposts_total");
  reposts.Add(static_cast<int64_t>(moved));
}

void FleetCoordinator::OnDeathLocked(int32_t replica) {
  const auto t0 = Clock::now();
  report_.dead_replicas.push_back(replica);
  members_[replica] = Member::kDead;  // sticky, like the monitor's kDead
  RehomeLocked(replica);
  const double recovery_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  report_.recovery_ms += recovery_ms;
  static common::LatencyHistogram& recovery_us =
      common::MetricsRegistry::Instance().GetHistogram("recovery_us");
  recovery_us.RecordMs(recovery_ms);
  ResizeLocked();
}

void FleetCoordinator::OnIterationCompleteLocked(
    const IterationHeartbeatStats& stats) {
  // Only complete report sets arrive here, so every active member
  // either straggled this iteration or kept pace — keeping pace resets its
  // streak.
  const std::vector<int32_t> active = ActiveLocked();
  for (const int32_t replica : active) {
    streak_[replica] =
        Contains(stats.stragglers, replica) ? streak_[replica] + 1 : 0;
  }
  for (const int32_t slow : stats.stragglers) {
    if (!Contains(active, slow) ||
        streak_[slow] < options_.rebalance_consecutive_flags) {
      continue;  // not a member, or not persistent yet
    }
    const auto cooldown = cooldown_until_.find(slow);
    if (cooldown != cooldown_until_.end() &&
        stats.iteration < cooldown->second) {
      continue;  // hysteresis: recently shed work, let it show in the walls
    }
    std::vector<int32_t> destinations;
    for (const int32_t peer : PeersLocked(slow)) {
      if (!Contains(stats.stragglers, peer)) {
        destinations.push_back(peer);
      }
    }
    // The tail only: the lowest pending plan stays (see the header).
    std::vector<int64_t> tail = store_->PendingIterations(slow);
    std::reverse(tail.begin(), tail.end());
    tail.resize(std::min<size_t>(
        tail.empty() ? 0 : tail.size() - 1,
        static_cast<size_t>(std::max(options_.rebalance_max_moves, 0))));
    const std::vector<int64_t> moved = MoveLocked(slow, tail, destinations);
    if (moved.empty()) {
      continue;
    }
    static common::Counter& moved_total =
        common::MetricsRegistry::Instance().GetCounter("rebalance_moved_total");
    for (const int64_t iteration : moved) {
      common::TraceSpan span("rebalanced", "plan", iteration, slow);
      moved_total.Add();
    }
    ++report_.shed_events;
    report_.shed_iterations += static_cast<int64_t>(moved.size());
    if (!Contains(report_.shed_replicas, slow)) {
      report_.shed_replicas.push_back(slow);
    }
    cooldown_until_[slow] =
        stats.iteration + options_.rebalance_hysteresis_iterations;
    streak_[slow] = 0;  // a fresh streak must build before the next
    static common::Counter& events =
        common::MetricsRegistry::Instance().GetCounter(
            "rebalance_events_total");
    events.Add();
  }
}

void FleetCoordinator::OnJoinLocked(int32_t replica) {
  if (members_.count(replica) != 0) {
    return;  // a known member proving liveness, or a zombie — not a join
  }
  common::TraceSpan span("join", "membership", /*iteration=*/0, replica);
  members_.emplace(replica, Member::kActive);
  report_.joined.push_back(replica);
  static common::Counter& joins =
      common::MetricsRegistry::Instance().GetCounter("membership_joins_total");
  joins.Add();
  // Donor: the peer with the deepest unfetched backlog.
  int32_t donor = -1;
  std::vector<int64_t> tail;
  for (const int32_t peer : PeersLocked(replica)) {
    std::vector<int64_t> pending = store_->PendingIterations(peer);
    if (pending.size() > tail.size()) {
      donor = peer;
      tail = std::move(pending);
    }
  }
  if (donor >= 0) {
    const size_t share = tail.size() / ActiveLocked().size();
    std::reverse(tail.begin(), tail.end());
    tail.resize(share);
    report_.join_stolen +=
        static_cast<int64_t>(MoveLocked(donor, tail, {replica}).size());
  }
  ResizeLocked();
}

void FleetCoordinator::OnDrainLocked(int32_t replica) {
  const auto it = members_.find(replica);
  if (it != members_.end() && it->second != Member::kActive) {
    return;  // zombie or duplicate request
  }
  // Out of the member set first — no move targets it from here on, and its
  // vacated keys are not released — then hand its backlog to the survivors.
  common::TraceSpan span("drain", "membership", /*iteration=*/0, replica);
  members_[replica] = Member::kDraining;  // a drain implies membership
  report_.drain_reposted += static_cast<int64_t>(
      MoveLocked(replica, store_->PendingIterations(replica),
                 PeersLocked(replica))
          .size());
  report_.drained.push_back(replica);
  static common::Counter& drains =
      common::MetricsRegistry::Instance().GetCounter("membership_drains_total");
  drains.Add();
  // Shrink after the handoff: a report set this completes retroactively
  // must see the reposted work already off the leaver's keys.
  ResizeLocked();
}

}  // namespace dynapipe::service
