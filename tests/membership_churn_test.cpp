// Elastic-membership churn suite (the tentpole acceptance gate).
//
// Two layers:
//
//   1. A deterministic forked acceptance test: three shm executors start an
//      epoch; mid-epoch a fourth joins by bare announce and one of the three
//      drains out through its heartbeat slot's drain word. The joiner must
//      be admitted and seeded with stolen backlog, the drainer must be
//      fenced, handed off, acknowledged, and detached clean — and every
//      published plan must execute exactly once, byte-identical.
//
//   2. A seeded chaos harness: five deterministic std::mt19937 schedules,
//      each picking who drains (and when), who joins (and when), and whether
//      a third replica crashes or stalls mid-epoch. Whatever the schedule,
//      the invariants hold: the store drains to zero, the heartbeat total is
//      exact (published minus exactly one for a crash — the worst-timed
//      death loses the executed-but-unreported plan's beat, nothing else),
//      nobody innocent is declared dead, and the drain and join are
//      recorded. The exact heartbeat count is also the spare-key-collision
//      probe: recovery, rebalance, and membership all move plans through
//      one FleetCoordinator's mover and spare keys, and a collision would
//      either lose a plan (count short) or double-run one (count over).
//
// Everything is shm-native: liveness, the drain word, and the handoffs all
// live in the segment; no socket exists anywhere in this file. fork()
// happens before any parent-side thread (TSan), and children communicate
// verdicts through exit codes — gtest macros do not work in a fork()ed
// child.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fault_injection.h"
#include "src/executor/executor.h"
#include "src/service/fleet.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/plan_serde.h"
#include "src/transport/shm_store.h"

namespace dynapipe {
namespace {

constexpr int kIterations = 6;
constexpr int32_t kBaseReplicas = 3;
constexpr int32_t kJoiner = kBaseReplicas;
// Uniform pacing keeps a movable backlog resident while the churn lands
// (a simulated iteration alone completes in microseconds) without shifting
// any straggler medians.
constexpr double kPaceMs = 50.0;

std::string UniqueShmName(const char* tag) {
  static std::atomic<uint64_t> counter{0};
  return std::string("/dynapipe-mc-") + tag + "-" + std::to_string(::getpid()) +
         "-" + std::to_string(counter.fetch_add(1));
}

sim::ExecutionPlan MarkerPlan(int32_t marker) {
  sim::ExecutionPlan plan;
  plan.num_microbatches = marker;
  sim::DevicePlan dev;
  sim::Instruction instr;
  instr.microbatch = marker;
  instr.shape = {marker, 256, 64};
  dev.instructions.push_back(instr);
  plan.devices.push_back(std::move(dev));
  return plan;
}

bool WaitUntil(const std::function<bool()>& condition, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!condition()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// One forked executor's role in a churn epoch.
struct ChurnChildSpec {
  int32_t replica = 0;
  bool join = false;              // declare join intent; admission by event
  bool require_work = false;      // joiner in the acceptance test: >= 1 plan
  int64_t start_iteration = 0;    // joiners poll at the spare base
  int64_t drain_after = -1;       // request a drain after this many runs
  std::string fault;              // injected fault spec; empty = none
  int pre_attach_delay_ms = 0;    // late joiner: sleep before attaching
  int idle_timeout_ms = 2500;
};

// Exit codes are the child's verdict:
//   0 clean   2 run failed   3 fetched bytes not among the published
//   4 drain handshake failed   6 joiner fetched nothing (when required)
//   7 evicted   9 bad fault spec
[[noreturn]] void RunChurnChild(const std::string& shm_name,
                                const std::vector<std::string>& expected,
                                const ChurnChildSpec& spec) {
  if (spec.pre_attach_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(spec.pre_attach_delay_ms));
  }
  if (!spec.fault.empty()) {
    common::FaultSpec fault;
    std::string error;
    if (!common::ParseFaultSpec(spec.fault, &fault, &error)) {
      ::_exit(9);
    }
    common::FaultInjector::Instance().Arm(fault);
  }
  executor::ExecutorOptions opts;
  opts.attach = shm_name;
  opts.endpoint = executor::AttachEndpoint::kSharedMemory;
  opts.replica = spec.replica;
  opts.iterations = -1;  // open-ended: handed-off work lands at spare keys
  opts.start_iteration = spec.start_iteration;
  opts.idle_timeout_ms = spec.idle_timeout_ms;
  opts.slow_ms = kPaceMs;
  opts.join = spec.join;
  opts.drain_after = spec.drain_after;
  // Byte checks are set-membership: a moved plan (stolen for a joiner,
  // reposted off a drainer or a corpse) keeps its bytes but not its key.
  bool bytes_ok = true;
  opts.observer = [&](const executor::IterationOutcome& outcome) {
    const std::string bytes = service::EncodeExecutionPlan(*outcome.plan);
    bytes_ok = bytes_ok && std::find(expected.begin(), expected.end(),
                                     bytes) != expected.end();
  };
  const executor::ExecutorReport report = executor::RunExecutor(opts);
  if (!bytes_ok) ::_exit(3);
  if (report.evicted) ::_exit(7);
  if (!report.ok) ::_exit(2);
  if (spec.drain_after >= 0 && !report.drained) ::_exit(4);
  if (spec.require_work && report.iterations_run < 1) ::_exit(6);
  ::_exit(0);
}

// The publisher-side control plane for one churn epoch: monitor -> one
// FleetCoordinator with all three policies on (recovery, straggler rebalance
// at a one-flag streak, membership), fed by the segment poller. Declaration
// order is teardown order in reverse: the poller stops feeding the monitor
// before the coordinator unhooks.
struct ChurnControlPlane {
  ChurnControlPlane(const std::string& shm_name,
                    const std::vector<std::vector<sim::ExecutionPlan>>& plans,
                    double dead_after_ms)
      : monitor(MonitorOptions(dead_after_ms)),
        store(transport::ShmInstructionStore::Create(
            shm_name, transport::ShmStoreOptions{})) {
    // Publish the whole epoch before the poller starts delivering events:
    // a joiner can announce the moment the segment exists, and its
    // admission steal should find a backlog worth sharing.
    for (int i = 0; i < kIterations; ++i) {
      for (int32_t r = 0; r < kBaseReplicas; ++r) {
        store->Push(i, r, plans[static_cast<size_t>(r)][static_cast<size_t>(i)]);
      }
    }
    service::FleetOptions fleet_opts;
    for (int32_t r = 0; r < kBaseReplicas; ++r) {
      fleet_opts.replicas.push_back(r);
    }
    fleet_opts.spare_iteration_base = kIterations;
    fleet_opts.rebalance = true;
    fleet_opts.rebalance_consecutive_flags = 1;
    fleet_opts.membership = true;
    transport::ShmInstructionStore* raw = store.get();
    fleet_opts.drain_ack = [raw](int32_t replica) {
      raw->AcknowledgeDrain(replica);
    };
    fleet.emplace(store.get(), &monitor, std::move(fleet_opts));
    poller.emplace(store, &monitor);
  }

  static service::HeartbeatMonitorOptions MonitorOptions(double dead_after_ms) {
    service::HeartbeatMonitorOptions mopts;
    mopts.straggler_multiple = 2.0;
    mopts.min_straggler_gap_ms = 50.0;
    mopts.expected_replicas = kBaseReplicas;  // membership re-gates it live
    if (dead_after_ms > 0) {
      mopts.suspect_after_ms = dead_after_ms / 3.0;
      mopts.dead_after_ms = dead_after_ms;
    }
    return mopts;
  }

  service::HeartbeatMonitor monitor;
  std::shared_ptr<transport::ShmInstructionStore> store;
  std::optional<service::FleetCoordinator> fleet;
  std::optional<transport::ShmHeartbeatPoller> poller;
};

// ---------- the deterministic acceptance test ----------

// Replica 2 drains after two iterations; replica 3 joins immediately at the
// spare base. Every handoff is asserted individually: the joiner is
// admitted and seeded (>= 1 stolen plan — share = 6 pending / 4 expected),
// the drainer is fenced, reposted, acknowledged (clean handshake, no
// eviction) and retired on detach, and the whole epoch executes exactly
// once, byte-identical.
TEST(MembershipChurnTest, JoinAndDrainHandOffMidEpochExactlyOnce) {
  constexpr int32_t kDrainer = 2;
  std::vector<std::vector<sim::ExecutionPlan>> plans(kBaseReplicas);
  std::vector<std::string> expected;
  for (int i = 0; i < kIterations; ++i) {
    for (int32_t r = 0; r < kBaseReplicas; ++r) {
      plans[static_cast<size_t>(r)].push_back(MarkerPlan(500 + 10 * i + r));
      expected.push_back(
          service::EncodeExecutionPlan(plans[static_cast<size_t>(r)].back()));
    }
  }
  const std::string shm_name = UniqueShmName("accept");
  std::vector<pid_t> children;
  for (int32_t r = 0; r <= kJoiner; ++r) {
    ChurnChildSpec spec;
    spec.replica = r;
    if (r == kJoiner) {
      spec.join = true;
      spec.require_work = true;
      spec.start_iteration = kIterations;  // the spare base
    }
    if (r == kDrainer) {
      spec.drain_after = 2;
    }
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      RunChurnChild(shm_name, expected, spec);
    }
    children.push_back(child);
  }

  // No liveness deadlines: nobody dies here, and a false death would steal
  // the drainer's exit from under the assertion.
  ChurnControlPlane plane(shm_name, plans, /*dead_after_ms=*/0.0);

  ASSERT_TRUE(WaitUntil([&] { return plane.store->size() == 0; }, 30'000));
  const int64_t expected_beats =
      static_cast<int64_t>(kIterations) * kBaseReplicas;
  ASSERT_TRUE(WaitUntil(
      [&] { return plane.monitor.total_heartbeats() >= expected_beats; },
      10'000));

  for (size_t c = 0; c < children.size(); ++c) {
    int status = 0;
    ASSERT_EQ(::waitpid(children[c], &status, 0), children[c]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "executor " << c << " status " << status;
  }

  // Exactly once: nothing resident, every published plan heartbeat exactly
  // one completion wherever it ended up running.
  EXPECT_EQ(plane.store->size(), 0u);
  EXPECT_EQ(plane.monitor.total_heartbeats(), expected_beats);

  // The join: admitted, seeded with stolen tail backlog.
  const service::FleetReport report = plane.fleet->report();
  EXPECT_EQ(report.joined, std::vector<int32_t>{kJoiner});
  EXPECT_GE(report.join_stolen, 1);
  // The drain: fenced and handed off (the drainer left 4 unfetched), then
  // acknowledged — the child's exit code already proved the clean handshake.
  EXPECT_EQ(report.drained, std::vector<int32_t>{kDrainer});
  EXPECT_GE(report.drain_reposted, 1);

  // The drainer ended detached — not dead, not evicted, and retired from
  // the active fleet while the joiner stays a member.
  ASSERT_TRUE(WaitUntil(
      [&] {
        return plane.monitor.Liveness(kDrainer) ==
               service::ReplicaLiveness::kDetached;
      },
      5'000));
  EXPECT_TRUE(plane.monitor.DeadReplicas().empty());
  EXPECT_EQ(plane.fleet->ActiveMembers(),
            (std::vector<int32_t>{0, 1, kJoiner}));

  // Recovery never ran: a drain is not a death.
  EXPECT_TRUE(plane.fleet->report().dead_replicas.empty());
  EXPECT_EQ(plane.fleet->report().replanned_iterations, 0);
}

// ---------- the seeded chaos harness ----------

// One deterministic churn schedule drawn from `seed`. The fault kind cycles
// with the seed (none / crash / stall) so five seeds always cover every
// kind; who drains, who faults, and all the timings come from the seeded
// generator.
struct ChurnSchedule {
  int32_t drainer = 0;
  int64_t drain_after = 1;
  int32_t fault_replica = 0;
  int fault_kind = 0;  // 0 none, 1 crash, 2 stall
  int64_t fault_at = 1;
  int join_delay_ms = 0;

  explicit ChurnSchedule(uint32_t seed) {
    std::mt19937 rng(seed);
    drainer = static_cast<int32_t>(rng() % kBaseReplicas);
    fault_replica = static_cast<int32_t>(rng() % kBaseReplicas);
    while (fault_replica == drainer) {
      fault_replica = static_cast<int32_t>(rng() % kBaseReplicas);
    }
    fault_kind = static_cast<int>(seed % 3);
    drain_after = 1 + static_cast<int64_t>(rng() % 3);
    fault_at = 1 + static_cast<int64_t>(rng() % 3);
    join_delay_ms = static_cast<int>(rng() % 150);
  }

  std::string FaultSpec() const {
    switch (fault_kind) {
      case 1:
        // Crash at the heartbeat site: executed but unreported — the one
        // beat the epoch legitimately loses.
        return "crash@" + std::to_string(fault_at);
      case 2:
        // Stall well under the death deadline: a straggle, never a death.
        return "stall:450@" + std::to_string(fault_at);
      default:
        return "";
    }
  }
};

void RunSeededChurnEpoch(uint32_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const ChurnSchedule schedule(seed);
  const bool crash = schedule.fault_kind == 1;

  std::vector<std::vector<sim::ExecutionPlan>> plans(kBaseReplicas);
  std::vector<std::string> expected;
  for (int i = 0; i < kIterations; ++i) {
    for (int32_t r = 0; r < kBaseReplicas; ++r) {
      plans[static_cast<size_t>(r)].push_back(
          MarkerPlan(static_cast<int32_t>(1000 * seed) + 10 * i + r));
      expected.push_back(
          service::EncodeExecutionPlan(plans[static_cast<size_t>(r)].back()));
    }
  }
  const std::string shm_name = UniqueShmName("chaos");
  std::vector<pid_t> children;
  for (int32_t r = 0; r <= kJoiner; ++r) {
    ChurnChildSpec spec;
    spec.replica = r;
    if (r == kJoiner) {
      spec.join = true;
      spec.start_iteration = kIterations;
      spec.pre_attach_delay_ms = schedule.join_delay_ms;
      // A late joiner can legitimately find the backlog already fair-shared
      // to zero, so it must not *require* work — the invariants below are
      // global, not per-child.
    }
    if (r == schedule.drainer) {
      spec.drain_after = schedule.drain_after;
    }
    if (r == schedule.fault_replica) {
      spec.fault = schedule.FaultSpec();
    }
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      RunChurnChild(shm_name, expected, spec);
    }
    children.push_back(child);
  }

  // Death deadline sized so a SIGKILLed replica is declared well inside the
  // children's idle windows, while the 450 ms stall and the paced gaps
  // between publishes never get near it (idle shm executors stamp their
  // slot's alive marker on every probe).
  ChurnControlPlane plane(shm_name, plans, /*dead_after_ms=*/1'200.0);

  // A crash loses exactly one heartbeat: the victim dies at the heartbeat
  // site, after executing the plan it never reported. Everything else —
  // drained, stolen, reposted, inherited-spare-reposted-again — reports
  // exactly once.
  const int64_t expected_beats =
      static_cast<int64_t>(kIterations) * kBaseReplicas - (crash ? 1 : 0);
  ASSERT_TRUE(WaitUntil([&] { return plane.store->size() == 0; }, 30'000));
  ASSERT_TRUE(WaitUntil(
      [&] { return plane.monitor.total_heartbeats() >= expected_beats; },
      15'000));

  for (int32_t r = 0; r <= kJoiner; ++r) {
    int status = 0;
    ASSERT_EQ(::waitpid(children[static_cast<size_t>(r)], &status, 0),
              children[static_cast<size_t>(r)]);
    if (crash && r == schedule.fault_replica) {
      EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
          << "crash victim status " << status;
    } else {
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "executor " << r << " status " << status;
    }
  }

  EXPECT_EQ(plane.store->size(), 0u);
  EXPECT_EQ(plane.monitor.total_heartbeats(), expected_beats);

  // Only a crash produces a death; a stall is a straggle and a drain is a
  // goodbye. Nobody innocent ever dies.
  if (crash) {
    EXPECT_EQ(plane.monitor.DeadReplicas(),
              std::vector<int32_t>{schedule.fault_replica});
  } else {
    EXPECT_TRUE(plane.monitor.DeadReplicas().empty());
  }

  // The schedule's churn was recorded: exactly this joiner, exactly this
  // drainer, and no survivor left to drop a plan on.
  const service::FleetReport report = plane.fleet->report();
  EXPECT_EQ(report.joined, std::vector<int32_t>{kJoiner});
  EXPECT_EQ(report.drained, std::vector<int32_t>{schedule.drainer});
  EXPECT_EQ(report.dropped_iterations, 0);
}

TEST(MembershipChurnChaosTest, SeededSchedulesRunExactlyOnce) {
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    RunSeededChurnEpoch(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace dynapipe
