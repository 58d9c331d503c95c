// dynapipe_executor: standalone executor daemon.
//
// Attaches to a plan publisher's instruction store — by Unix-socket path
// (one persistent multiplexed connection) or POSIX shm segment name — fetches
// the execution plans published for its replica, runs each on its own
// ClusterSim, and heartbeats iteration completion back over the transport so
// the publisher's HeartbeatMonitor can flag stragglers. This is the paper's
// §3 deployment shape as an actual separate binary: the only thing that
// crosses the process boundary is serialized plan bytes one way and
// heartbeat frames the other. (Fetch consumes — each plan executes exactly
// once — so the publisher side of a multi-process run does not execute
// in-process; a live Trainer epoch consumes its own plans.)
//
//   dynapipe_executor --attach /tmp/trainer.sock --replica 0
//   dynapipe_executor --attach /tmp/trainer.sock --replica 1 --iterations 50
//   dynapipe_executor --attach /dynapipe-store-1234-0 --replica 0   (shm)
//
// Open-ended runs (no --iterations) drain plans as they appear and exit
// cleanly once none arrives for --idle-timeout-ms.
//
// --demo <mux|shm> is a self-contained two-process smoke (used by
// scripts/check.sh): the parent plans a tiny epoch and publishes it through
// the chosen backend while fork()ed children run the exact --attach path
// above — one deliberately slowed — and the parent verifies byte-identical
// delivery, full drain, and (on the socket backend) straggler attribution.
//
// --fault <spec> (or DYNAPIPE_FAULT in the environment) arms the fault
// injector (src/common/fault_injection.h): in --attach mode the fault fires
// in this process; combined with --demo it fires in one forked child and the
// parent verifies the full control loop — death declared, pending plans
// re-published to the survivors, store drained:
//
//   dynapipe_executor --demo mux --fault crash@1         (SIGKILL mid-epoch)
//   dynapipe_executor --demo mux --fault stall:1200@1    (wedge past deadline)
//
// On the shm backend liveness is shm-native (heartbeat slots in the segment
// header, replayed by a ShmHeartbeatPoller — no socket side-channel), and
// --demo shm --fault stall:1200@1 exercises the straggler *reaction* path: a
// longer epoch is published, one executor wedges mid-epoch, the publisher's
// monitor flags it from the shm beats, and the FleetCoordinator's rebalance
// migrates part of its unfetched backlog to the fast executors, which drain
// it at spare iteration numbers.
//
// --demo shm --churn is the elastic-membership smoke: three executors start
// the epoch, one drains out mid-epoch through the slot's drain word while a
// fourth joins by bare announce, and the parent's FleetCoordinator verifies
// both handoffs — backlog stolen for the joiner, backlog reposted off the
// drainer, every published plan executed exactly once.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/cost/pipeline_cost_model.h"
#include "src/data/flan_generator.h"
#include "src/data/minibatch_sampler.h"
#include "src/executor/executor.h"
#include "src/runtime/instruction_store.h"
#include "src/runtime/planner.h"
#include "src/service/fleet.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/plan_serde.h"
#include "src/transport/shm_store.h"
#include "src/transport/store_server.h"
#include "src/transport/transport.h"

namespace {

using namespace dynapipe;

// Strict numeric flag parsing: garbage must be a usage error, not a silent
// zero — `--replica x` quietly fetching replica 0's plans (fetch consumes!)
// would sabotage another executor.
int64_t ParseIntFlag(const char* flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0') {
    std::fprintf(stderr, "%s wants an integer, got '%s'\n", flag, value);
    std::exit(1);
  }
  return parsed;
}

double ParseDoubleFlag(const char* flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (errno != 0 || end == value || *end != '\0') {
    std::fprintf(stderr, "%s wants a number, got '%s'\n", flag, value);
    std::exit(1);
  }
  return parsed;
}

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s --attach <socket-path|shm-name> [options]\n"
      "       %s --demo <mux|shm>\n"
      "\n"
      "  --attach <addr>       socket path (contains an interior '/') or shm\n"
      "                        segment name ('/name'); autodetected, see --endpoint\n"
      "  --endpoint <kind>     auto|mux|shm (default auto)\n"
      "  --replica <n>         replica whose plans to fetch (default 0)\n"
      "  --start-iteration <n> first iteration to fetch (default 0)\n"
      "  --iterations <n>      iterations to run; omit to drain until idle\n"
      "  --slow-ms <ms>        artificial per-iteration delay (straggler demo)\n"
      "  --join                attach as a mid-epoch joiner: declare the join\n"
      "                        capability so the publisher's fleet coordinator\n"
      "                        admits this replica and seeds it with stolen\n"
      "                        backlog (poll at the epoch's spare base)\n"
      "  --drain-after <n>     after n executed iterations, request a drain:\n"
      "                        hand the unfetched backlog back to the fleet\n"
      "                        and detach cleanly once acknowledged\n"
      "  --no-heartbeat        do not report completions back to the trainer\n"
      "  --poll-ms <ms>        publish-poll interval (default 1)\n"
      "  --idle-timeout-ms <ms> exit/open-ended or fail/counted after this\n"
      "                        long with no new plan (default 10000)\n"
      "  --attach-timeout-ms <ms> connect/attach retry budget (default 10000)\n"
      "  --fault <spec>        arm a fault: kind[:ms]@index[#site], kind in\n"
      "                        crash|stall|drop|corrupt (e.g. crash@1,\n"
      "                        stall:1200@1, corrupt@2). With --demo, fires\n"
      "                        in one forked executor and the parent checks\n"
      "                        detection + re-publish to survivors\n"
      "  --churn               with --demo shm: membership-churn smoke — one\n"
      "                        executor drains out mid-epoch, another joins,\n"
      "                        the parent verifies both handoffs\n"
      "  --metrics-dump        print this process's metrics (Prometheus text)\n"
      "                        on exit\n"
      "\n"
      "  DYNAPIPE_TRACE=<path> records plan-lifecycle spans: --attach mode\n"
      "  writes <path>.<pid>.part for the trace owner to merge; --demo merges\n"
      "  the parent and its forked executors into one Perfetto JSON at <path>\n",
      argv0, argv0);
}

int RunAttachMode(const executor::ExecutorOptions& options,
                  bool metrics_dump) {
  executor::ExecutorOptions opts = options;
  opts.observer = [](const executor::IterationOutcome& o) {
    std::printf("[executor] iter %lld: %d devices, %d microbatches, "
                "fetch %.3f ms, makespan %.2f ms (sim), wall %.2f ms\n",
                static_cast<long long>(o.iteration), o.plan->num_devices(),
                o.plan->num_microbatches, o.fetch_ms, o.sim->makespan_ms,
                o.exec_wall_ms);
  };
  const executor::ExecutorReport report = executor::RunExecutor(opts);
  // Daemon exit paths hand their spans to the trace owner (no-op when
  // DYNAPIPE_TRACE is unset) and optionally dump this process's metrics —
  // on failure too, since a failed run's counters are the interesting ones.
  common::Tracer::Instance().WritePartFile();
  if (metrics_dump) {
    std::fputs(common::MetricsRegistry::Instance().PrometheusText().c_str(),
               stdout);
  }
  if (!report.ok) {
    std::fprintf(stderr, "dynapipe_executor: %s\n", report.error.c_str());
    return 1;
  }
  std::printf(
      "[executor] done: %lld iterations, %lld instructions, "
      "%lld heartbeats%s (fetch %.2f ms, heartbeat %.2f ms total, "
      "%lld reconnects%s)\n",
      static_cast<long long>(report.iterations_run),
      static_cast<long long>(report.instructions_executed),
      static_cast<long long>(report.heartbeats_sent),
      report.heartbeat_supported ? "" : " (backend has no heartbeat channel)",
      report.fetch_ms_total, report.heartbeat_ms_total,
      static_cast<long long>(report.reconnects),
      report.evicted ? ", evicted" : "");
  return 0;
}

// ---- --demo: self-contained two-process smoke ----

constexpr int kDemoIterations = 3;
constexpr int kDemoReplicas = 3;
constexpr int kDemoSlowReplica = kDemoReplicas - 1;
// Wide margins so the CI gate never flakes on a loaded runner: flagging
// needs wall > 2*median + 25 ms, so a fast replica would have to stall
// ~30 ms+ to false-flag, and the slow one would be missed only if the
// fast median exceeded ~125 ms.
constexpr double kDemoSlowMs = 150.0;
// The shm stall demo publishes a longer epoch so the wedged replica has an
// unfetched backlog worth migrating when the straggler flag lands, and paces
// *every* executor so the backlog drains on a human timescale: a simulated
// iteration completes in microseconds, and an unpaced stalled replica would
// drain its whole share before the poller (5 ms cadence) could deliver the
// flag that triggers the migration. The pace is uniform, so it shifts no
// medians; the 1200 ms stall still towers over the 2*median+25 ms bar.
constexpr int kDemoStallIterations = 6;
constexpr double kDemoStallPaceMs = 60.0;

std::vector<sim::ExecutionPlan> PlanDemoEpoch() {
  cost::ProfileOptions profile;
  profile.max_microbatch_size = 16;
  profile.max_seq_len = 2048;
  const auto cost_model = cost::PipelineCostModel::Profile(
      model::ModelConfig::Gpt3_35B(), model::HardwareSpec{}, {1, 1, 4},
      profile);
  runtime::PlannerOptions popts;
  popts.max_tmax_candidates = 16;
  popts.tmax_interval_ms = 0.5;
  popts.max_microbatch_size = 16;
  popts.dynamic_recompute = false;
  runtime::IterationPlanner planner(cost_model, popts);

  data::FlanGeneratorOptions gen;
  gen.num_samples = 200;
  gen.length_cap = 512;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  data::MiniBatchSamplerOptions sopts;
  sopts.global_batch_tokens = 4096;
  sopts.max_input_len = 512;
  data::MiniBatchSampler sampler(dataset, sopts);

  std::vector<sim::ExecutionPlan> plans;
  for (int i = 0; i < kDemoIterations && sampler.HasNext(); ++i) {
    common::TraceSpan span("planned", "plan", i, /*replica=*/-1);
    runtime::IterationPlan plan = planner.PlanIteration(sampler.Next());
    if (!plan.feasible) {
      std::fprintf(stderr, "demo planning failed: %s\n",
                   plan.infeasible_reason.c_str());
      std::exit(1);
    }
    plans.push_back(std::move(plan.replicas[0].exec_plan));
  }
  if (plans.size() != kDemoIterations) {
    std::fprintf(stderr, "demo: dataset too small\n");
    std::exit(1);
  }
  return plans;
}

// Which replica the --demo --fault run injects into. Not the slow replica:
// the fault demo drops the straggler setup entirely (it verifies the failure
// loop, not attribution).
constexpr int kDemoFaultReplica = 1;

// The forked child's whole life: run the real --attach path against the
// parent, verifying each fetched plan re-encodes to bytes the parent
// published (inherited across the fork). Exit code is the verdict. In fault
// mode all children run open-ended — survivors must keep polling past their
// own share to pick up re-published plans at spare iteration numbers, so the
// byte check becomes set membership (a reposted plan keeps its bytes but not
// its original iteration key).
[[noreturn]] void RunDemoChild(const std::string& attach,
                               executor::AttachEndpoint endpoint,
                               int32_t replica,
                               const std::vector<std::string>& expected,
                               const common::FaultSpec* fault) {
  if (fault != nullptr && replica == kDemoFaultReplica) {
    common::FaultInjector::Instance().Arm(*fault);
  }
  const bool fault_mode = fault != nullptr;
  executor::ExecutorOptions opts;
  opts.attach = attach;
  opts.endpoint = endpoint;
  opts.replica = replica;
  opts.iterations = fault_mode ? -1 : kDemoIterations;
  opts.idle_timeout_ms = fault_mode ? 2000 : 10'000;
  if (fault_mode &&
      endpoint == executor::AttachEndpoint::kSharedMemory) {
    opts.slow_ms = kDemoStallPaceMs;  // uniform pacing (rebalance demo)
  } else if (!fault_mode && replica == kDemoSlowReplica) {
    opts.slow_ms = kDemoSlowMs;
  }
  bool bytes_ok = true;
  opts.observer = [&](const executor::IterationOutcome& o) {
    const std::string encoded = service::EncodeExecutionPlan(*o.plan);
    if (fault_mode) {
      bool member = false;
      for (const std::string& bytes : expected) {
        member = member || encoded == bytes;
      }
      bytes_ok = bytes_ok && member;
    } else {
      bytes_ok = bytes_ok && encoded == expected[static_cast<size_t>(o.iteration)];
    }
  };
  const executor::ExecutorReport report = executor::RunExecutor(opts);
  // Hand this child's spans to the parent (the trace owner) before any
  // verdict exit; no-op when tracing is off.
  common::Tracer::Instance().WritePartFile();
  if (!report.ok) {
    std::fprintf(stderr, "[executor %d] %s\n", replica, report.error.c_str());
    ::_exit(2);
  }
  if (!bytes_ok) {
    std::fprintf(stderr, "[executor %d] fetched plan bytes differ\n", replica);
    ::_exit(3);
  }
  if (report.evicted) {
    std::fprintf(stderr, "[executor %d] evicted after %lld iterations\n",
                 replica, static_cast<long long>(report.iterations_run));
  }
  ::_exit(0);
}

int RunDemo(const std::string& kind, const std::string& fault_text) {
  executor::AttachEndpoint endpoint;
  if (kind == "mux") {
    endpoint = executor::AttachEndpoint::kUnixSocketMux;
  } else if (kind == "shm") {
    endpoint = executor::AttachEndpoint::kSharedMemory;
  } else {
    std::fprintf(stderr, "--demo wants mux|shm, got '%s'\n",
                 kind.c_str());
    return 1;
  }
  const bool over_wire = endpoint != executor::AttachEndpoint::kSharedMemory;
  common::FaultSpec fault;
  const bool fault_mode = !fault_text.empty();
  if (fault_mode) {
    std::string error;
    if (!common::ParseFaultSpec(fault_text, &fault, &error)) {
      std::fprintf(stderr, "--fault: %s\n", error.c_str());
      return 1;
    }
    if (!over_wire && fault.kind != common::FaultKind::kStall) {
      // Crash/drop/corrupt demo the *death* loop, which needs the wire's
      // connection semantics; the shm fault demo is the *slowness* loop.
      std::fprintf(stderr, "--demo shm --fault: only 'stall' is supported "
                           "(shm-native straggler detection + rebalance)\n");
      return 1;
    }
  }
  // Shm + stall: the rebalance demo. Everything about it is shm-native —
  // detection, liveness, and the migration itself all live in the segment.
  const bool shm_rebalance = fault_mode && !over_wire;
  const int demo_iterations =
      shm_rebalance ? kDemoStallIterations : kDemoIterations;
  const std::string attach =
      over_wire
          ? "/tmp/dynapipe-exec-demo-" + std::to_string(::getpid()) + ".sock"
          : "/dynapipe-exec-demo-" + std::to_string(::getpid());

  std::printf("[demo] planning %d iterations...\n", kDemoIterations);
  const std::vector<sim::ExecutionPlan> plans = PlanDemoEpoch();
  std::vector<std::string> expected;
  for (const auto& plan : plans) {
    expected.push_back(service::EncodeExecutionPlan(plan));
  }

  // Fork the executors before any server thread exists; they poll/retry
  // while the parent brings the backend up.
  std::vector<pid_t> children;
  for (int32_t replica = 0; replica < kDemoReplicas; ++replica) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      RunDemoChild(attach, endpoint, replica, expected,
                   fault_mode ? &fault : nullptr);
    }
    children.push_back(pid);
  }

  // Trainer side: bring the store up, publish, watch heartbeats. In fault
  // mode the monitor gets liveness deadlines (well under the demo stall and
  // idle budgets) and a FleetCoordinator closes the loop: death declared ->
  // pending plans re-published to the survivors at spare iterations.
  service::HeartbeatMonitorOptions monitor_opts;
  monitor_opts.straggler_multiple = 2.0;
  monitor_opts.min_straggler_gap_ms = 25.0;
  // All replicas report every iteration, so gate straggler math on the full
  // set — a partial report set must never flag anyone.
  monitor_opts.expected_replicas = kDemoReplicas;
  if (fault_mode && over_wire) {
    monitor_opts.suspect_after_ms = 150.0;
    monitor_opts.dead_after_ms = 450.0;
    monitor_opts.connection_grace_ms = 0.0;  // a dropped connection is death
  }
  // The shm stall demo leaves the liveness deadlines off: a wedged-but-alive
  // replica is a straggler for the rebalancer, not a death for recovery.
  service::HeartbeatMonitor monitor(monitor_opts);
  std::optional<runtime::InstructionStore> store;
  std::optional<transport::UnixSocketTransport> transport_ep;
  std::optional<transport::InstructionStoreServer> server;
  std::shared_ptr<transport::ShmInstructionStore> shm;
  std::optional<service::FleetCoordinator> fleet;
  // Declared after the coordinator: the poller stops feeding the monitor
  // before it unhooks.
  std::optional<transport::ShmHeartbeatPoller> poller;
  runtime::InstructionStoreInterface* publish_to = nullptr;
  if (over_wire) {
    store.emplace(runtime::InstructionStoreOptions{/*serialized=*/true,
                                                   /*capacity=*/0});
    store->set_heartbeat_sink(&monitor);
    transport_ep.emplace(attach);
    server.emplace(&*transport_ep, &*store);
    publish_to = &*store;
  } else {
    shm = transport::ShmInstructionStore::Create(attach,
                                                 transport::ShmStoreOptions{});
    publish_to = shm.get();
  }
  if (fault_mode) {
    service::FleetOptions fleet_opts;
    for (int32_t replica = 0; replica < kDemoReplicas; ++replica) {
      fleet_opts.replicas.push_back(replica);
    }
    fleet_opts.spare_iteration_base = demo_iterations;
    if (shm_rebalance) {
      // One persistent flag moves work: the demo stall is a single long
      // wedge, so the streak threshold is 1; two plans (the default) migrate,
      // split over the two fast replicas.
      fleet_opts.rebalance = true;
      fleet_opts.rebalance_consecutive_flags = 1;
      fleet_opts.rebalance_hysteresis_iterations = kDemoStallIterations;
    }
    fleet.emplace(publish_to, &monitor, std::move(fleet_opts));
  }
  if (shm != nullptr) {
    // The shm liveness channel: executors stamp heartbeat slots inside the
    // segment; this poller replays them into the monitor. No socket exists
    // anywhere in this demo.
    poller.emplace(shm, &monitor);
  }
  for (int i = 0; i < demo_iterations; ++i) {
    for (int32_t replica = 0; replica < kDemoReplicas; ++replica) {
      publish_to->Push(i, replica, plans[static_cast<size_t>(i) % plans.size()]);
    }
  }
  if (fault_mode) {
    std::printf("[demo] published %dx%d plans on %s (%s), fault '%s' armed "
                "in replica %d\n",
                demo_iterations, kDemoReplicas, attach.c_str(),
                executor::EndpointName(endpoint), fault_text.c_str(),
                kDemoFaultReplica);
  } else {
    std::printf("[demo] published %dx%d plans on %s (%s), replica %d slowed "
                "%.0f ms/iter\n",
                kDemoIterations, kDemoReplicas, attach.c_str(),
                executor::EndpointName(endpoint), kDemoSlowReplica,
                kDemoSlowMs);
  }

  // After reaping, the parent owns the trace: fold its own spans (planned /
  // published) plus every child's .part file into one Perfetto JSON.
  const auto write_merged_trace = [] {
    if (common::Tracer::enabled() &&
        common::Tracer::Instance().WriteMergedTrace()) {
      std::printf("[demo] merged trace written to %s\n",
                  common::Tracer::Instance().path().c_str());
    }
  };

  if (over_wire && !fault_mode) {
    // Mid-epoch stats pull: every attached mux child answers a
    // server-initiated kStatsRequest with its process-wide snapshot while
    // still executing. The children are racing us to attach,
    // so retry briefly: the slowed replica stays attached for
    // kDemoIterations * kDemoSlowMs, which bounds how long a hit takes.
    std::vector<transport::RemoteReplicaStats> remote;
    const auto stats_deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
    for (;;) {
      remote = server->CollectRemoteStats(/*timeout_ms=*/1000);
      if (!remote.empty() ||
          std::chrono::steady_clock::now() >= stats_deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (const transport::RemoteReplicaStats& stats : remote) {
      std::string replicas;
      for (const int32_t replica : stats.replicas) {
        if (!replicas.empty()) {
          replicas += ",";
        }
        replicas += std::to_string(replica);
      }
      std::printf("[demo] stats: replica(s) [%s] fetched %lld plan(s), "
                  "%lld frame(s) pushed so far\n",
                  replicas.c_str(),
                  static_cast<long long>(
                      stats.snapshot.counter("store_mux_fetch_total")),
                  static_cast<long long>(
                      stats.snapshot.counter("store_mux_push_total")));
    }
    std::printf("[demo] stats channel: %zu executor connection(s) reported\n",
                remote.size());
    if (remote.empty()) {
      std::fprintf(stderr, "[demo] no mux executor answered the stats pull\n");
      return 1;
    }
  }

  bool ok = true;
  for (size_t c = 0; c < children.size(); ++c) {
    const pid_t child = children[c];
    int status = 0;
    if (::waitpid(child, &status, 0) != child) {
      std::fprintf(stderr, "[demo] waitpid for executor %zu failed\n", c);
      ok = false;
      continue;
    }
    const bool is_fault_child =
        fault_mode && static_cast<int>(c) == kDemoFaultReplica;
    if (is_fault_child && fault.kind == common::FaultKind::kCrash) {
      // The injected SIGKILL is the expected death.
      if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
        std::fprintf(stderr,
                     "[demo] fault executor should have died by SIGKILL, "
                     "status %d\n",
                     status);
        ok = false;
      }
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      // Covers the stalled fault child too: it must wake into the eviction
      // fence and exit *cleanly* (open-ended run, evicted = ok).
      std::fprintf(stderr, "[demo] executor pid %d exited abnormally (%d)\n",
                   static_cast<int>(child), status);
      ok = false;
    }
  }
  if (publish_to->size() != 0) {
    std::fprintf(stderr, "[demo] %zu plans left undrained\n",
                 publish_to->size());
    ok = false;
  }

  // Reaping finished the epoch, but shm heartbeat delivery is asynchronous:
  // the last beats are already in the segment slots, waiting for the poller
  // thread. Wait for the full count (bounded) before reading the monitor.
  if (poller.has_value()) {
    const int64_t expected_beats =
        static_cast<int64_t>(demo_iterations) * kDemoReplicas;
    const auto drain_deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
    while (monitor.total_heartbeats() < expected_beats &&
           std::chrono::steady_clock::now() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  if (shm_rebalance) {
    const service::FleetReport breport = fleet->report();
    const service::IterationHeartbeatStats stalled =
        monitor.ForIteration(fault.at);
    std::string stragglers;
    for (const int32_t replica : stalled.stragglers) {
      if (!stragglers.empty()) {
        stragglers += ",";
      }
      stragglers += std::to_string(replica);
    }
    std::printf("[demo] shm straggler reaction: iter %lld stragglers=[%s] "
                "(%d/%d reported), rebalance events=%lld moved=%lld\n",
                static_cast<long long>(fault.at), stragglers.c_str(),
                stalled.replicas_reported, stalled.replicas_expected,
                static_cast<long long>(breport.shed_events),
                static_cast<long long>(breport.shed_iterations));
    if (stalled.stragglers != std::vector<int32_t>{kDemoFaultReplica}) {
      std::fprintf(stderr,
                   "[demo] expected exactly replica %d flagged via the shm "
                   "heartbeat slots\n",
                   kDemoFaultReplica);
      ok = false;
    }
    if (breport.shed_events < 1 || breport.shed_iterations < 1) {
      std::fprintf(stderr, "[demo] no rebalance happened\n");
      ok = false;
    }
    if (breport.shed_replicas !=
        std::vector<int32_t>{kDemoFaultReplica}) {
      std::fprintf(stderr, "[demo] only replica %d should have shed work\n",
                   kDemoFaultReplica);
      ok = false;
    }
    const int64_t expected_beats =
        static_cast<int64_t>(demo_iterations) * kDemoReplicas;
    if (monitor.total_heartbeats() != expected_beats) {
      std::fprintf(stderr,
                   "[demo] %lld heartbeats delivered, expected %lld — every "
                   "plan (migrated included) reports exactly once\n",
                   static_cast<long long>(monitor.total_heartbeats()),
                   static_cast<long long>(expected_beats));
      ok = false;
    }
    write_merged_trace();
    std::printf("[demo] %s\n",
                ok ? "ok: stall flagged via shm heartbeat slots, backlog "
                     "rebalanced to fast replicas, epoch drained"
                   : "FAILED");
    return ok ? 0 : 1;
  }

  if (fault_mode) {
    const service::FleetReport rreport = fleet->report();
    std::printf("[demo] recovery: dead=[");
    for (size_t i = 0; i < rreport.dead_replicas.size(); ++i) {
      std::printf("%s%d", i == 0 ? "" : ",", rreport.dead_replicas[i]);
    }
    std::printf("] replanned=%lld dropped=%lld recovery=%.2f ms\n",
                static_cast<long long>(rreport.replanned_iterations),
                static_cast<long long>(rreport.dropped_iterations),
                rreport.recovery_ms);
    if (rreport.dead_replicas !=
        std::vector<int32_t>{kDemoFaultReplica}) {
      std::fprintf(stderr,
                   "[demo] expected exactly replica %d declared dead\n",
                   kDemoFaultReplica);
      ok = false;
    }
    if (rreport.dropped_iterations != 0) {
      std::fprintf(stderr, "[demo] recovery dropped plans despite live "
                           "survivors\n");
      ok = false;
    }
    if (server.has_value()) {
      server->Stop();
    }
    write_merged_trace();
    std::printf("[demo] %s\n",
                ok ? "ok: fault fired, death declared, backlog re-published, "
                     "survivors drained"
                   : "FAILED");
    return ok ? 0 : 1;
  }

  // Straggler attribution works on both backends: the socket backend
  // heartbeats through the server's sink, shm through the segment's heartbeat
  // slots and the poller.
  std::printf("  iter | replicas | median ms | max ms | stragglers\n");
  for (int i = 0; i < kDemoIterations; ++i) {
    const service::IterationHeartbeatStats stats = monitor.ForIteration(i);
    std::string stragglers;
    for (const int32_t replica : stats.stragglers) {
      if (!stragglers.empty()) {
        stragglers += ",";
      }
      stragglers += std::to_string(replica);
    }
    std::printf("  %4d | %8d | %9.2f | %6.2f | %s\n", i,
                stats.replicas_reported, stats.median_wall_ms,
                stats.max_wall_ms,
                stragglers.empty() ? "-" : stragglers.c_str());
    ok = ok && stats.replicas_reported == kDemoReplicas;
    ok = ok && stats.stragglers == std::vector<int32_t>{kDemoSlowReplica};
  }
  ok = ok && monitor.total_heartbeats() == kDemoIterations * kDemoReplicas;
  if (server.has_value()) {
    server->Stop();
  }
  write_merged_trace();
  std::printf("[demo] %s\n", ok ? "ok: byte-identical plans, full drain, "
                                  "straggler attributed"
                                : "FAILED");
  return ok ? 0 : 1;
}

// ---- --demo shm --churn: elastic membership smoke ----
//
// Three executors (0..2) start a paced shm epoch. Mid-epoch, replica 2
// requests a drain through its heartbeat slot's drain word after two
// iterations, and replica 3 joins by bare AnnounceReplica, polling at the
// spare base. The parent runs the elastic control plane (monitor -> one
// FleetCoordinator with membership on) and verifies:
// the joiner was admitted and seeded with stolen backlog, the drainer's
// backlog was reposted to the survivors and its drain acknowledged, the
// store fully drained, and every published plan executed exactly once
// (heartbeat count == plans published).
constexpr int kDemoChurnDrainReplica = kDemoReplicas - 1;
constexpr int kDemoChurnDrainAfter = 2;
constexpr int kDemoChurnJoinReplica = kDemoReplicas;

[[noreturn]] void RunChurnChild(const std::string& attach, int32_t replica,
                                const std::vector<std::string>& expected) {
  executor::ExecutorOptions opts;
  opts.attach = attach;
  opts.endpoint = executor::AttachEndpoint::kSharedMemory;
  opts.replica = replica;
  opts.iterations = -1;  // open-ended: handed-off work lands at spare keys
  opts.idle_timeout_ms = 2000;
  opts.slow_ms = kDemoStallPaceMs;  // pace so the churn happens mid-epoch
  if (replica == kDemoChurnJoinReplica) {
    opts.join = true;
    opts.start_iteration = kDemoStallIterations;  // the spare base
  }
  if (replica == kDemoChurnDrainReplica) {
    opts.drain_after = kDemoChurnDrainAfter;
  }
  // Every plan an executor sees — its own share, stolen, or reposted — must
  // re-encode to bytes the parent published (set membership: a moved plan
  // keeps its bytes but not its original iteration key).
  bool bytes_ok = true;
  opts.observer = [&](const executor::IterationOutcome& o) {
    const std::string encoded = service::EncodeExecutionPlan(*o.plan);
    bool member = false;
    for (const std::string& bytes : expected) {
      member = member || encoded == bytes;
    }
    bytes_ok = bytes_ok && member;
  };
  const executor::ExecutorReport report = executor::RunExecutor(opts);
  common::Tracer::Instance().WritePartFile();
  if (!report.ok) {
    std::fprintf(stderr, "[executor %d] %s\n", replica, report.error.c_str());
    ::_exit(2);
  }
  if (!bytes_ok) {
    std::fprintf(stderr, "[executor %d] fetched plan bytes differ\n", replica);
    ::_exit(3);
  }
  if (replica == kDemoChurnDrainReplica &&
      (!report.drained || report.evicted)) {
    std::fprintf(stderr,
                 "[executor %d] drain handshake failed (drained=%d "
                 "evicted=%d)\n",
                 replica, report.drained ? 1 : 0, report.evicted ? 1 : 0);
    ::_exit(4);
  }
  if (replica == kDemoChurnJoinReplica && report.iterations_run < 1) {
    std::fprintf(stderr, "[executor %d] joiner fetched no plans\n", replica);
    ::_exit(5);
  }
  ::_exit(0);
}

int RunChurnDemo() {
  const std::string attach =
      "/dynapipe-exec-churn-" + std::to_string(::getpid());
  std::printf("[demo] planning %d iterations...\n", kDemoIterations);
  const std::vector<sim::ExecutionPlan> plans = PlanDemoEpoch();
  std::vector<std::string> expected;
  for (const auto& plan : plans) {
    expected.push_back(service::EncodeExecutionPlan(plan));
  }

  // Fork the executors (joiner included) before the segment exists; they
  // poll/retry while the parent brings the control plane up.
  std::vector<pid_t> children;
  for (int32_t replica = 0; replica <= kDemoChurnJoinReplica; ++replica) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      RunChurnChild(attach, replica, expected);
    }
    children.push_back(pid);
  }

  service::HeartbeatMonitorOptions monitor_opts;
  monitor_opts.straggler_multiple = 2.0;
  monitor_opts.min_straggler_gap_ms = 25.0;
  // Membership re-gates this live: 4 while the joiner overlaps the original
  // fleet, 3 after the drainer leaves.
  monitor_opts.expected_replicas = kDemoReplicas;
  service::HeartbeatMonitor monitor(monitor_opts);
  std::shared_ptr<transport::ShmInstructionStore> shm =
      transport::ShmInstructionStore::Create(attach,
                                             transport::ShmStoreOptions{});
  // Publish the whole epoch before the poller starts delivering events: the
  // joiner announces the moment the segment exists, and its admission steal
  // should find a backlog worth sharing.
  for (int i = 0; i < kDemoStallIterations; ++i) {
    for (int32_t replica = 0; replica < kDemoReplicas; ++replica) {
      shm->Push(i, replica, plans[static_cast<size_t>(i) % plans.size()]);
    }
  }
  service::FleetOptions fleet_opts;
  for (int32_t replica = 0; replica < kDemoReplicas; ++replica) {
    fleet_opts.replicas.push_back(replica);
  }
  fleet_opts.spare_iteration_base = kDemoStallIterations;
  fleet_opts.membership = true;
  transport::ShmInstructionStore* raw_shm = shm.get();
  fleet_opts.drain_ack = [raw_shm](int32_t replica) {
    raw_shm->AcknowledgeDrain(replica);
  };
  service::FleetCoordinator fleet(shm.get(), &monitor, std::move(fleet_opts));
  // Declared last: the poller stops feeding the monitor before the
  // coordinator unhooks.
  transport::ShmHeartbeatPoller poller(shm, &monitor);

  std::printf("[demo] published %dx%d plans on %s (shm): replica %d drains "
              "after %d iterations, replica %d joins at the spare base\n",
              kDemoStallIterations, kDemoReplicas, attach.c_str(),
              kDemoChurnDrainReplica, kDemoChurnDrainAfter,
              kDemoChurnJoinReplica);

  bool ok = true;
  for (size_t c = 0; c < children.size(); ++c) {
    const pid_t child = children[c];
    int status = 0;
    if (::waitpid(child, &status, 0) != child) {
      std::fprintf(stderr, "[demo] waitpid for executor %zu failed\n", c);
      ok = false;
      continue;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "[demo] executor pid %d exited abnormally (%d)\n",
                   static_cast<int>(child), status);
      ok = false;
    }
  }
  if (shm->size() != 0) {
    std::fprintf(stderr, "[demo] %zu plans left undrained\n", shm->size());
    ok = false;
  }

  // The last beats are already in the segment slots, waiting for the poller
  // thread; wait for the full count (bounded) before reading the monitor.
  const int64_t expected_beats =
      static_cast<int64_t>(kDemoStallIterations) * kDemoReplicas;
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
  while (monitor.total_heartbeats() < expected_beats &&
         std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const service::FleetReport mreport = fleet.report();
  std::string joined, drained;
  for (const int32_t replica : mreport.joined) {
    joined += (joined.empty() ? "" : ",") + std::to_string(replica);
  }
  for (const int32_t replica : mreport.drained) {
    drained += (drained.empty() ? "" : ",") + std::to_string(replica);
  }
  std::printf("[demo] membership: joined=[%s] drained=[%s] stolen=%lld "
              "reposted=%lld, %lld/%lld heartbeats\n",
              joined.c_str(), drained.c_str(),
              static_cast<long long>(mreport.join_stolen),
              static_cast<long long>(mreport.drain_reposted),
              static_cast<long long>(monitor.total_heartbeats()),
              static_cast<long long>(expected_beats));
  if (mreport.joined != std::vector<int32_t>{kDemoChurnJoinReplica}) {
    std::fprintf(stderr, "[demo] expected exactly replica %d admitted\n",
                 kDemoChurnJoinReplica);
    ok = false;
  }
  if (mreport.drained != std::vector<int32_t>{kDemoChurnDrainReplica}) {
    std::fprintf(stderr, "[demo] expected exactly replica %d drained\n",
                 kDemoChurnDrainReplica);
    ok = false;
  }
  if (mreport.join_stolen < 1) {
    std::fprintf(stderr, "[demo] the joiner was seeded no backlog\n");
    ok = false;
  }
  if (mreport.drain_reposted < 1) {
    std::fprintf(stderr, "[demo] the drainer handed off no backlog\n");
    ok = false;
  }
  if (monitor.total_heartbeats() != expected_beats) {
    std::fprintf(stderr,
                 "[demo] %lld heartbeats delivered, expected %lld — every "
                 "plan (stolen and reposted included) reports exactly once\n",
                 static_cast<long long>(monitor.total_heartbeats()),
                 static_cast<long long>(expected_beats));
    ok = false;
  }
  if (common::Tracer::enabled() &&
      common::Tracer::Instance().WriteMergedTrace()) {
    std::printf("[demo] merged trace written to %s\n",
                common::Tracer::Instance().path().c_str());
  }
  std::printf("[demo] %s\n",
              ok ? "ok: joiner admitted and seeded, drainer acknowledged and "
                   "handed off, epoch drained exactly once"
                 : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // DYNAPIPE_FAULT in the environment arms this process directly (the way a
  // test harness injects into a spawned daemon); --fault below does the same
  // for --attach mode, or selects the demo's injected child.
  common::FaultInjector::Instance().ArmFromEnv();
  executor::ExecutorOptions options;
  std::string demo;
  std::string fault_text;
  bool churn = false;
  bool metrics_dump = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--attach") {
      options.attach = next();
    } else if (arg == "--endpoint") {
      const std::string kind = next();
      if (kind == "auto") {
        options.endpoint = executor::AttachEndpoint::kAuto;
      } else if (kind == "mux") {
        options.endpoint = executor::AttachEndpoint::kUnixSocketMux;
      } else if (kind == "shm") {
        options.endpoint = executor::AttachEndpoint::kSharedMemory;
      } else {
        std::fprintf(stderr, "unknown endpoint '%s'\n", kind.c_str());
        return 1;
      }
    } else if (arg == "--replica") {
      options.replica = static_cast<int32_t>(ParseIntFlag("--replica", next()));
    } else if (arg == "--start-iteration") {
      options.start_iteration = ParseIntFlag("--start-iteration", next());
    } else if (arg == "--iterations") {
      options.iterations = ParseIntFlag("--iterations", next());
    } else if (arg == "--slow-ms") {
      options.slow_ms = ParseDoubleFlag("--slow-ms", next());
    } else if (arg == "--join") {
      options.join = true;
    } else if (arg == "--drain-after") {
      options.drain_after = ParseIntFlag("--drain-after", next());
    } else if (arg == "--no-heartbeat") {
      options.heartbeat = false;
    } else if (arg == "--poll-ms") {
      options.poll_interval_ms =
          static_cast<int>(ParseIntFlag("--poll-ms", next()));
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout_ms =
          static_cast<int>(ParseIntFlag("--idle-timeout-ms", next()));
    } else if (arg == "--attach-timeout-ms") {
      options.attach_timeout_ms =
          static_cast<int>(ParseIntFlag("--attach-timeout-ms", next()));
    } else if (arg == "--demo") {
      demo = next();
    } else if (arg == "--fault") {
      fault_text = next();
    } else if (arg == "--churn") {
      churn = true;
    } else if (arg == "--metrics-dump") {
      metrics_dump = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      PrintUsage(argv[0]);
      return 1;
    }
  }
  if (!demo.empty()) {
    if (churn) {
      if (demo != "shm") {
        std::fprintf(stderr, "--churn: only the shm demo supports "
                             "membership churn\n");
        return 1;
      }
      if (!fault_text.empty()) {
        std::fprintf(stderr, "--churn and --fault are separate demos\n");
        return 1;
      }
      return RunChurnDemo();
    }
    return RunDemo(demo, fault_text);
  }
  if (!fault_text.empty()) {
    common::FaultSpec fault;
    std::string error;
    if (!common::ParseFaultSpec(fault_text, &fault, &error)) {
      std::fprintf(stderr, "--fault: %s\n", error.c_str());
      return 1;
    }
    common::FaultInjector::Instance().Arm(fault);
  }
  if (options.attach.empty()) {
    PrintUsage(argv[0]);
    return 1;
  }
  return RunAttachMode(options, metrics_dump);
}
