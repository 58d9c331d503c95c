#include "src/service/fleet.h"

#include <algorithm>
#include <chrono>
#include <utility>

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

FleetCoordinator::FleetCoordinator(runtime::InstructionStoreInterface* store,
                                   HeartbeatMonitor* monitor,
                                   FleetOptions options)
    : store_(store),
      monitor_(monitor),
      options_(std::move(options)),
      spare_keys_(options_.spare_iteration_base) {
  for (const int32_t replica : options_.replicas) {
    members_.emplace(replica, Member::kActive);
  }
  monitor_->set_event_callback(
      [this](const ReplicaEvent& event) { OnEvent(event); });
  if (options_.rebalance) {
    monitor_->set_straggler_callback(
        [this](const IterationHeartbeatStats& stats) {
          OnIterationComplete(stats);
        });
  }
}

FleetCoordinator::~FleetCoordinator() {
  // Each drains its in-flight deliveries before returning, so no handler can
  // run on a destroyed coordinator.
  if (options_.rebalance) {
    monitor_->set_straggler_callback(nullptr);
  }
  monitor_->set_event_callback(nullptr);
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
  // A fence that lands after this snapshot is still safe: the store answers
  // the Repost with kDestinationTaken and the mover burns that key.
  std::vector<int32_t> peers;
  for (const int32_t member : ActiveLocked()) {
    if (member != replica && !store_->IsReplicaFenced(member)) {
      peers.push_back(member);
    }
  }
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
      // kUnsupported: this store cannot move plans.
      break;
    }
  }
  return moved;
}

void FleetCoordinator::OnEvent(const ReplicaEvent& event) {
  switch (event.to) {
    case ReplicaLiveness::kDead:
      OnDeath(event.replica);
      break;
    case ReplicaLiveness::kAlive:
      if (options_.membership) {
        OnJoin(event.replica);
      }
      break;
    case ReplicaLiveness::kDraining:
      if (options_.membership) {
        OnDrain(event.replica);
      }
      break;
    case ReplicaLiveness::kDetached: {
      // A drainer's clean exit: the handoff and the shrink already happened,
      // so just retire it. The fence stays up so nothing can target the
      // departed id; a re-join lifts it.
      std::lock_guard<std::mutex> lock(mu_);
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

void FleetCoordinator::OnDeath(int32_t replica) {
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  report_.dead_replicas.push_back(replica);
  members_[replica] = Member::kDead;  // sticky, like the monitor's kDead
  if (options_.policy == FailurePolicy::kFailFast) {
    report_.fail_fast_triggered = true;
    lock.unlock();
    // Unblocks every Push parked in capacity backpressure (including ones
    // stalled on the dead replica's unfetched slots) and disarms future
    // pushes: the epoch is over.
    store_->Shutdown();
    lock.lock();
  } else {
    const std::vector<int32_t> survivors = PeersLocked(replica);
    if (survivors.empty()) {
      // Nobody left to take the work; free the slots so parked pushes
      // unblock, and record the loss.
      report_.dropped_iterations +=
          static_cast<int64_t>(store_->DropReplica(replica));
    } else {
      const size_t moved =
          MoveLocked(replica, store_->PendingIterations(replica), survivors)
              .size();
      report_.replanned_iterations += static_cast<int64_t>(moved);
      static common::Counter& reposts =
          common::MetricsRegistry::Instance().GetCounter(
              "recovery_reposts_total");
      reposts.Add(static_cast<int64_t>(moved));
    }
  }
  const double recovery_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
  report_.recovery_ms += recovery_ms;
  lock.unlock();
  static common::LatencyHistogram& recovery_us =
      common::MetricsRegistry::Instance().GetHistogram("recovery_us");
  recovery_us.RecordMs(recovery_ms);
  if (options_.membership) {
    SyncExpectedReplicas();
  }
}

void FleetCoordinator::OnIterationComplete(
    const IterationHeartbeatStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  // The callback fires only on complete report sets, so every active member
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
    // The monitor flips kDead before the death handler runs; a replica dying
    // right now is the death handler's.
    if (monitor_->Liveness(slow) == ReplicaLiveness::kDead) {
      continue;
    }
    std::vector<int32_t> destinations;
    for (const int32_t peer : PeersLocked(slow)) {
      if (!Contains(stats.stragglers, peer) &&
          monitor_->Liveness(peer) != ReplicaLiveness::kDead) {
        destinations.push_back(peer);
      }
    }
    std::vector<int64_t> tail = store_->PendingIterations(slow);
    std::reverse(tail.begin(), tail.end());
    tail.resize(std::min<size_t>(
        tail.size(),
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

void FleetCoordinator::OnJoin(int32_t replica) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (members_.count(replica) != 0) {
      return;  // a known member proving liveness, or a zombie — not a join
    }
    common::TraceSpan span("join", "membership", /*iteration=*/0, replica);
    members_.emplace(replica, Member::kActive);
    store_->UnfenceReplica(replica);  // re-admission after a drain
    report_.joined.push_back(replica);
    static common::Counter& joins =
        common::MetricsRegistry::Instance().GetCounter(
            "membership_joins_total");
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
  }
  SyncExpectedReplicas();
}

void FleetCoordinator::OnDrain(int32_t replica) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = members_.find(replica);
    if (it != members_.end() && it->second != Member::kActive) {
      return;  // zombie or duplicate request
    }
    // Fence first so no racing move lands on the leaver from here on, then
    // hand its backlog to the survivors.
    common::TraceSpan span("drain", "membership", /*iteration=*/0, replica);
    store_->FenceReplica(replica);
    members_[replica] = Member::kDraining;  // a drain implies membership
    report_.drain_reposted += static_cast<int64_t>(
        MoveLocked(replica, store_->PendingIterations(replica),
                   PeersLocked(replica))
            .size());
    report_.drained.push_back(replica);
    static common::Counter& drains =
        common::MetricsRegistry::Instance().GetCounter(
            "membership_drains_total");
    drains.Add();
  }
  // Shrink after the handoff: a report set this completes retroactively
  // must see the reposted work already off the leaver's keys.
  SyncExpectedReplicas();
  if (options_.drain_ack) {
    options_.drain_ack(replica);
  }
}

void FleetCoordinator::SyncExpectedReplicas() {
  std::unique_lock<std::mutex> lock(mu_);
  resync_expected_ = true;
  if (syncing_expected_) {
    return;  // the syncing thread re-reads the member set before it stops
  }
  syncing_expected_ = true;
  while (resync_expected_) {
    resync_expected_ = false;
    const auto expected = static_cast<int32_t>(ActiveLocked().size());
    lock.unlock();
    monitor_->set_expected_replicas(expected);
    lock.lock();
  }
  syncing_expected_ = false;
}

}  // namespace dynapipe::service
