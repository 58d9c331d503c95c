// Multi-process plan distribution: a planner process publishes an epoch of
// execution plans; fork()ed executor processes fetch, run and heartbeat
// them — once over each store backend:
//
//   1. a Unix socket path: the executors fetch with the mux client, one
//      persistent connection each, and the serialized plan bytes cross it;
//   2. a shared-memory name: the executors attach to the segment by name
//      and decode zero-copy views of the very bytes the planner wrote.
//
// This is the paper's §3 deployment shape for real: planning happens on the
// dataloader side, executors live in other processes, and only serialized
// plan bytes (plan_serde) cross the boundary. Both ends are built from the
// same attach string: executor::Publisher serves the store with its fleet
// coordinator, executor::RunExecutor (the code behind tools/dynapipe_executor)
// attaches to it. The walk, per backend:
//   1. plan a short epoch inline (before any thread exists, so fork is safe),
//   2. fork three executors; replica 2 is slowed 150 ms per iteration,
//   3. bring the publisher up and publish every (iteration, replica) plan,
//   4. each executor checks that every plan it ran re-encodes to exactly the
//      planner's bytes and prints its fetch time,
//   5. the publisher's heartbeat monitor must flag replica 2, and only it,
//      as the straggler of every iteration.
//
// Build & run:  cmake -B build -S . && cmake --build build &&
//               ./build/plan_distribution
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cost/pipeline_cost_model.h"
#include "src/data/flan_generator.h"
#include "src/data/minibatch_sampler.h"
#include "src/executor/executor.h"
#include "src/executor/publisher.h"
#include "src/runtime/planner.h"
#include "src/service/plan_serde.h"

namespace {

using namespace dynapipe;

constexpr int32_t kReplicas = 3;
constexpr int32_t kSlowReplica = 2;
constexpr double kSlowMs = 150.0;

// One backend's walk; true when every executor exited cleanly with
// byte-identical plans and the straggler was attributed to kSlowReplica.
bool RunWalk(const char* label, const std::string& attach,
             const std::vector<sim::ExecutionPlan>& plans) {
  const int64_t iterations = static_cast<int64_t>(plans.size());
  std::printf("--- %s: %s\n", label, attach.c_str());
  std::fflush(stdout);  // a child must not inherit and re-print this buffer
  std::vector<pid_t> executors;
  for (int32_t replica = 0; replica < kReplicas; ++replica) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return false;
    }
    if (pid == 0) {
      // The child inherited the planner's pre-fork plans, so it can verify
      // the backend delivered exactly what was published.
      executor::ExecutorOptions opts;
      opts.attach = attach;
      opts.replica = replica;
      opts.iterations = iterations;
      opts.slow_ms = replica == kSlowReplica ? kSlowMs : 0.0;
      bool identical = true;
      opts.observer = [&](const executor::IterationOutcome& outcome) {
        const std::string bytes = service::EncodeExecutionPlan(*outcome.plan);
        const bool same = bytes == service::EncodeExecutionPlan(
                                       plans[static_cast<size_t>(
                                           outcome.iteration)]);
        identical = identical && same;
        std::printf("  [executor %d] iter %lld: %zu bytes, fetch %.3f ms, "
                    "byte-identical %s\n",
                    replica, static_cast<long long>(outcome.iteration),
                    bytes.size(), outcome.fetch_ms, same ? "yes" : "NO");
        std::fflush(stdout);
      };
      ::_exit(executor::RunExecutor(opts).ok && identical ? 0 : 2);
    }
    executors.push_back(pid);
  }

  executor::PublisherOptions options;
  options.attach = attach;
  options.monitor.straggler_multiple = 2.0;
  options.monitor.min_straggler_gap_ms = 25.0;
  options.fleet.replicas = {0, 1, 2};
  executor::Publisher publisher(options);
  for (int64_t i = 0; i < iterations; ++i) {
    for (int32_t replica = 0; replica < kReplicas; ++replica) {
      publisher.store()->Push(i, replica, plans[static_cast<size_t>(i)]);
    }
  }
  const int64_t bytes = publisher.store()->serialized_bytes_total();
  std::printf("[planner] published %lld plans x %d replicas (%lld encoded "
              "bytes); replica %d slowed %.0f ms/iter\n",
              static_cast<long long>(iterations), kReplicas,
              static_cast<long long>(bytes), kSlowReplica, kSlowMs);
  std::fflush(stdout);

  bool ok = true;
  for (const pid_t pid : executors) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  // Shm beats reach the monitor through the segment poller, possibly after
  // the executors exited; socket beats arrived with each request.
  const service::HeartbeatMonitor& monitor = publisher.monitor();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (monitor.total_heartbeats() < iterations * kReplicas &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::printf("  iter | replicas | median ms | max ms | straggler\n");
  for (int64_t i = 0; i < iterations; ++i) {
    const service::IterationHeartbeatStats stats = monitor.ForIteration(i);
    const bool attributed =
        stats.replicas_reported == kReplicas &&
        stats.stragglers == std::vector<int32_t>{kSlowReplica};
    ok = ok && attributed;
    std::printf("  %4lld | %8d | %9.2f | %6.2f | %s\n",
                static_cast<long long>(i), stats.replicas_reported,
                stats.median_wall_ms, stats.max_wall_ms,
                attributed ? "replica 2 (expected)" : "WRONG ATTRIBUTION");
  }
  std::printf("[planner] %s: %s\n\n", label,
              ok ? "every plan byte-identical, straggler attributed"
                 : "FAILED");
  return ok;
}

}  // namespace

int main() {
  // --- Plan a short epoch inline (no threads yet: the forks stay safe).
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
  std::printf("[planner] %zu iterations planned\n\n", plans.size());

  // Each walk's publisher is torn down (its threads joined) before the
  // next walk forks.
  const std::string pid = std::to_string(::getpid());
  const bool socket_ok = RunWalk(
      "unix socket", "/tmp/dynapipe-example-" + pid + ".sock", plans);
  const bool shm_ok =
      RunWalk("shared memory", "/dynapipe-example-" + pid, plans);
  std::printf("[planner] socket walk %s, shm walk %s\n",
              socket_ok ? "ok" : "FAILED", shm_ok ? "ok" : "FAILED");
  return socket_ok && shm_ok ? 0 : 1;
}
