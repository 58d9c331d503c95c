// Two-process plan distribution: a planner process publishes an epoch of
// execution plans; a fork()ed executor process fetches and decodes the
// instruction streams — twice, over the two distribution paths:
//
//   1. the wire: the planner publishes into its own store, served by
//      InstructionStoreServer over a Unix domain socket; the executor
//      fetches with MuxInstructionStore (serialized plan bytes cross one
//      persistent connection);
//   2. shared memory: the planner creates a named ShmInstructionStore
//      segment, the executor *attaches by name* (shm_open + mmap) and pulls
//      zero-copy views of the very bytes the planner wrote — no wire, no
//      copy, decode-in-place;
//   3. the executor daemon: three fork()ed executor::RunExecutor processes
//      (the code behind tools/dynapipe_executor) attach over the socket, run
//      the plans on their own ClusterSims, and heartbeat completion back —
//      one replica deliberately slowed so the planner-side HeartbeatMonitor
//      flags it as a straggler.
//
// This is the paper's §3 deployment shape for real: planning happens on the
// dataloader side, executors live in other processes, and the only thing
// that crosses the boundary is serialized plan bytes (plan_serde) — either
// framed over a socket or mapped from the segment. The walk:
//   1. plan a short epoch inline (planner process, before any threads exist),
//   2. fork the executor, which waits for the publish signal,
//   3. planner: serve the store (socket phase) / create the segment (shm
//      phase), publish every (iteration, replica) plan, signal readiness,
//   4. executor: fetch + decode each plan, verify it re-encodes to the exact
//      published bytes, report per-fetch latency over the pipe.
//
// Build & run:  cmake -B build -S . && cmake --build build &&
//               ./build/plan_distribution
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cost/pipeline_cost_model.h"
#include "src/data/flan_generator.h"
#include "src/data/minibatch_sampler.h"
#include "src/executor/executor.h"
#include "src/runtime/instruction_store.h"
#include "src/runtime/planner.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/plan_serde.h"
#include "src/transport/mux.h"
#include "src/transport/shm_store.h"
#include "src/transport/store_server.h"
#include "src/transport/transport.h"

namespace {

bool WriteFull(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0 && errno != EINTR) return false;
    if (w > 0) {
      p += w;
      n -= static_cast<size_t>(w);
    }
  }
  return true;
}

bool ReadFull(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

struct FetchReport {
  int64_t iteration;
  int64_t bytes;
  double fetch_ms;
  int32_t devices;
  int32_t instructions;
  unsigned char byte_identical;
};

// One two-process phase: fork an executor that fetches every plan through
// `fetch` (run in the child) while the planner publishes through `publish`
// (run in the parent) and tallies the reports. Returns true when the
// executor exited cleanly and every fetch was byte-identical.
bool RunPhase(const char* label, const std::vector<dynapipe::sim::ExecutionPlan>& plans,
              const std::function<dynapipe::sim::ExecutionPlan(int64_t)>& fetch,
              const std::function<void()>& publish,
              const std::function<void()>& planner_cleanup) {
  using namespace dynapipe;
  int ready_pipe[2];
  int report_pipe[2];
  if (::pipe(ready_pipe) != 0 || ::pipe(report_pipe) != 0) {
    std::perror("pipe");
    return false;
  }
  const pid_t child = ::fork();
  if (child < 0) {
    std::perror("fork");
    return false;
  }

  if (child == 0) {
    // --- Executor process: fetch, decode, verify, report.
    ::close(ready_pipe[1]);
    ::close(report_pipe[0]);
    char go;
    if (!ReadFull(ready_pipe[0], &go, 1)) ::_exit(2);
    for (size_t i = 0; i < plans.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const sim::ExecutionPlan plan = fetch(static_cast<int64_t>(i));
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      // The child inherited the planner's pre-fork plans, so it can verify
      // the distribution path delivered exactly what was published.
      const std::string bytes = service::EncodeExecutionPlan(plan);
      FetchReport report;
      report.iteration = static_cast<int64_t>(i);
      report.bytes = static_cast<int64_t>(bytes.size());
      report.fetch_ms = ms;
      report.devices = plan.num_devices();
      report.instructions = 0;
      for (const auto& dev : plan.devices) {
        report.instructions += static_cast<int32_t>(dev.instructions.size());
      }
      report.byte_identical =
          bytes == service::EncodeExecutionPlan(plans[i]) ? 1 : 0;
      if (!WriteFull(report_pipe[1], &report, sizeof(report))) ::_exit(3);
    }
    ::_exit(0);
  }

  // --- Planner process: publish, signal, tally the reports.
  ::close(ready_pipe[0]);
  ::close(report_pipe[1]);
  const auto publish_start = std::chrono::steady_clock::now();
  publish();
  const double publish_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - publish_start)
                                .count();
  std::printf("[planner] %s: published %zu plans in %.2f ms\n", label,
              plans.size(), publish_ms);
  WriteFull(ready_pipe[1], "g", 1);

  std::printf("  iter | devices | instrs | bytes  | fetch ms | byte-identical\n");
  bool all_identical = true;
  bool executor_alive = true;
  for (size_t i = 0; i < plans.size() && executor_alive; ++i) {
    FetchReport report;
    if (!ReadFull(report_pipe[0], &report, sizeof(report))) {
      // Still reap the child and run cleanup below: a later phase must not
      // inherit this one's server threads (or a zombie) through its fork.
      std::printf("[planner] executor died mid-epoch\n");
      executor_alive = false;
      break;
    }
    all_identical = all_identical && report.byte_identical != 0;
    std::printf("  %4lld | %7d | %6d | %6lld | %8.3f | %s\n",
                static_cast<long long>(report.iteration), report.devices,
                report.instructions, static_cast<long long>(report.bytes),
                report.fetch_ms, report.byte_identical ? "yes" : "NO");
  }
  int status = 0;
  ::waitpid(child, &status, 0);
  planner_cleanup();
  ::close(ready_pipe[1]);
  ::close(report_pipe[0]);
  const bool child_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  std::printf("[planner] %s: executor exit %s; %s\n\n", label,
              child_ok ? "clean" : "ABNORMAL",
              all_identical ? "every fetched plan was byte-identical"
                            : "BYTE MISMATCH");
  return executor_alive && child_ok && all_identical;
}

}  // namespace

int main() {
  using namespace dynapipe;
  const std::string socket_path =
      "/tmp/dynapipe-example-" + std::to_string(::getpid()) + ".sock";

  // --- 1. Plan a short epoch inline (no threads yet: fork below stays safe).
  std::printf("[planner] profiling cost model and planning an epoch...\n");
  cost::ProfileOptions profile;
  profile.max_microbatch_size = 32;
  profile.max_seq_len = 4096;
  const auto cost_model = cost::PipelineCostModel::Profile(
      model::ModelConfig::Gpt3_35B(), model::HardwareSpec{}, {1, 1, 4}, profile);
  runtime::PlannerOptions popts;
  popts.max_tmax_candidates = 48;
  popts.tmax_interval_ms = 0.5;
  popts.max_microbatch_size = 32;
  runtime::IterationPlanner planner(cost_model, popts);

  data::FlanGeneratorOptions gen;
  gen.num_samples = 400;
  gen.length_cap = 1024;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  data::MiniBatchSamplerOptions sopts;
  sopts.global_batch_tokens = 8192;
  sopts.max_input_len = 1024;
  data::MiniBatchSampler sampler(dataset, sopts);

  constexpr int kIterations = 4;
  std::vector<sim::ExecutionPlan> plans;
  for (int i = 0; i < kIterations && sampler.HasNext(); ++i) {
    runtime::IterationPlan plan = planner.PlanIteration(sampler.Next());
    if (!plan.feasible) {
      std::printf("planning failed: %s\n", plan.infeasible_reason.c_str());
      return 1;
    }
    plans.push_back(std::move(plan.replicas[0].exec_plan));
  }
  std::printf("[planner] %zu iterations planned\n", plans.size());

  // --- Phase 1: the socket wire. The server comes up in the parent *after*
  // the fork (the child inherits no threads); the executor's connect retries
  // until it is listening.
  std::optional<runtime::InstructionStore> store;
  std::optional<transport::UnixSocketTransport> transport_ep;
  std::optional<transport::InstructionStoreServer> server;
  const bool socket_ok = RunPhase(
      "unix socket", plans,
      /*fetch=*/
      [&socket_path,
       client = std::shared_ptr<transport::MuxInstructionStore>()](
          int64_t iteration) mutable {
        if (client == nullptr) {
          client = transport::MuxInstructionStore::OverUnixSocket(
              socket_path, /*connect_timeout_ms=*/10'000);
        }
        bool lost = false;
        std::optional<sim::ExecutionPlan> plan =
            client->TryFetch(iteration, /*replica=*/0, &lost);
        if (!plan.has_value()) {
          ::_exit(3);  // published before the go signal, so never missing
        }
        return std::move(*plan);
      },
      /*publish=*/
      [&] {
        store.emplace(runtime::InstructionStoreOptions{/*serialized=*/true,
                                                       /*capacity=*/0});
        transport_ep.emplace(socket_path);
        server.emplace(&*transport_ep, &*store);
        for (size_t i = 0; i < plans.size(); ++i) {
          store->Push(static_cast<int64_t>(i), /*replica=*/0, plans[i]);
        }
        std::printf("[planner] serving %lld encoded bytes on %s\n",
                    static_cast<long long>(store->serialized_bytes_total()),
                    socket_path.c_str());
      },
      /*planner_cleanup=*/[&] { server->Stop(); });

  // --- Phase 2: shared memory. No server, no wire: the planner creates a
  // named segment, the executor attaches by that name and decodes zero-copy
  // views in place. (The socket server's threads were joined in Stop(), so
  // the fork inside RunPhase is again single-threaded.)
  const std::string shm_name =
      "/dynapipe-example-" + std::to_string(::getpid());
  std::shared_ptr<transport::ShmInstructionStore> shm;
  const bool shm_ok = RunPhase(
      "shared memory", plans,
      /*fetch=*/
      [&shm_name, attached = std::shared_ptr<transport::ShmInstructionStore>()](
          int64_t iteration) mutable {
        if (attached == nullptr) {
          attached = transport::ShmInstructionStore::Attach(
              shm_name, /*timeout_ms=*/10'000);
        }
        return attached->Fetch(iteration, /*replica=*/0);
      },
      /*publish=*/
      [&] {
        shm = transport::ShmInstructionStore::Create(
            shm_name, transport::ShmStoreOptions{});
        for (size_t i = 0; i < plans.size(); ++i) {
          shm->Push(static_cast<int64_t>(i), /*replica=*/0, plans[i]);
        }
        std::printf("[planner] %lld encoded bytes mapped at %s\n",
                    static_cast<long long>(shm->serialized_bytes_total()),
                    shm_name.c_str());
      },
      /*planner_cleanup=*/[&] { shm.reset(); });

  // --- Phase 3: the executor daemon. Three executor processes (the library
  // behind tools/dynapipe_executor) attach over a fresh socket, execute every
  // plan on their own ClusterSims, and heartbeat completion; replica 2 is
  // slowed 150 ms/iteration and must come back flagged as the straggler.
  constexpr int kReplicas = 3;
  constexpr int kSlowReplica = 2;
  constexpr double kSlowMs = 150.0;
  const std::string daemon_socket =
      "/tmp/dynapipe-example-exec-" + std::to_string(::getpid()) + ".sock";
  std::vector<pid_t> executors;
  for (int32_t replica = 0; replica < kReplicas; ++replica) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      executor::ExecutorOptions opts;
      opts.attach = daemon_socket;
      opts.replica = replica;
      opts.iterations = static_cast<int64_t>(plans.size());
      opts.slow_ms = replica == kSlowReplica ? kSlowMs : 0.0;
      ::_exit(executor::RunExecutor(opts).ok ? 0 : 2);
    }
    executors.push_back(pid);
  }

  service::HeartbeatMonitor monitor(service::HeartbeatMonitorOptions{
      /*straggler_multiple=*/2.0, /*min_straggler_gap_ms=*/25.0});
  runtime::InstructionStore daemon_store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  daemon_store.set_heartbeat_sink(&monitor);
  transport::UnixSocketTransport daemon_transport(daemon_socket);
  transport::InstructionStoreServer daemon_server(&daemon_transport,
                                                  &daemon_store);
  for (size_t i = 0; i < plans.size(); ++i) {
    for (int32_t replica = 0; replica < kReplicas; ++replica) {
      daemon_store.Push(static_cast<int64_t>(i), replica, plans[i]);
    }
  }
  std::printf("[planner] executor daemons: %d replicas attached to %s, "
              "replica %d slowed %.0f ms/iter\n",
              kReplicas, daemon_socket.c_str(), kSlowReplica, kSlowMs);

  bool daemons_ok = true;
  for (const pid_t pid : executors) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    daemons_ok =
        daemons_ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  std::printf("  iter | replicas | median ms | max ms | straggler\n");
  for (size_t i = 0; i < plans.size(); ++i) {
    const service::IterationHeartbeatStats stats =
        monitor.ForIteration(static_cast<int64_t>(i));
    daemons_ok = daemons_ok && stats.replicas_reported == kReplicas &&
                 stats.stragglers == std::vector<int32_t>{kSlowReplica};
    std::printf("  %4zu | %8d | %9.2f | %6.2f | %s\n", i,
                stats.replicas_reported, stats.median_wall_ms,
                stats.max_wall_ms,
                stats.stragglers == std::vector<int32_t>{kSlowReplica}
                    ? "replica 2 (expected)"
                    : "WRONG ATTRIBUTION");
  }
  daemon_server.Stop();
  std::printf("[planner] executor phase %s\n\n",
              daemons_ok ? "ok" : "FAILED");

  std::printf("[planner] socket phase %s, shm phase %s, executor phase %s\n",
              socket_ok ? "ok" : "FAILED", shm_ok ? "ok" : "FAILED",
              daemons_ok ? "ok" : "FAILED");
  return socket_ok && shm_ok && daemons_ok ? 0 : 1;
}
