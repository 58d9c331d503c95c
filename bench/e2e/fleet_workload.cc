// The forked-executor workloads: one publisher process plus three forked
// RunExecutor children, GPT-3.35B at dp3 tp1 pp4 (one replica per child).
//
//   gpt-shm-ahead   the paper's §3 deployment: PlanAheadService (lookahead 2,
//                   a 3-thread pool) publishes into a shared-memory segment
//                   the executors attach to by name. Planning is live, so
//                   planner throughput and Karmarkar-Karp balancing bound
//                   the loop and the executors wait through the poll
//                   backoff.
//   gpt-mux-replay  the same fleet over the Unix-socket mux: the publisher
//                   hosts an InstructionStoreServer over an in-process store
//                   with the heartbeat monitor as its sink. Warm-up plans one
//                   kReplayEpoch-iteration epoch through a throwaway service;
//                   the timed phase replays that shuffle, so every plan is a
//                   plan-cache hit and the frame codec, server, mux demux,
//                   decode, executor poll and heartbeat frames are the
//                   critical path.
//   gpt-shm-replay  gpt-mux-replay over shm: zero-copy fetch, heartbeat
//                   slots and the poller, and the arena-rewind drain bubble.
//
// The load is a closed loop: an executor fetches iteration i+1 only after
// finishing i, and the publisher runs at most `lookahead` plans ahead of
// delivery and blocks in Push while the store holds kStoreCapacity plans.
//
// Run protocol. Each fixture forks its executors before the publisher
// creates any thread, so no child inherits a lock held by another thread.
// The executors run open-ended; the publisher's mini-batch source decides
// the end (and, in a traced run, where tracing starts) one iteration ahead
// of the plan it is about to hand out, and posts it in shared memory. An
// executor can only have run iterations that were published, so it always
// reads the decision in its observer before it would poll for a plan that
// will never come.
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/e2e/harness.h"
#include "src/common/thread_pool.h"
#include "src/common/trace.h"
#include "src/data/minibatch_sampler.h"
#include "src/executor/executor.h"
#include "src/runtime/instruction_store.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/plan_ahead_service.h"
#include "src/service/plan_cache.h"
#include "src/service/plan_serde.h"
#include "src/transport/shm_store.h"
#include "src/transport/store_server.h"
#include "src/transport/transport.h"

namespace dynapipe::bench_e2e {
namespace {

enum class Transport { kShm, kMux };

struct FleetConfig {
  const char* name;
  Transport transport;
  bool replay;
  // Iterations published through the live fleet before the timed phase.
  int64_t warmup_iterations;
};

constexpr int32_t kDp = 3;
constexpr int32_t kLookahead = 2;
constexpr int32_t kPoolThreads = 3;
constexpr size_t kStoreCapacity = 12;
constexpr int64_t kReplayEpoch = 250;
constexpr size_t kPlanCacheCapacity = 256;
// Per-executor record capacity; replay runs at a few thousand iterations a
// second, so this covers minutes.
constexpr int64_t kMaxRecords = int64_t{1} << 18;
// Attach and poll patience of the executors, and how long the publisher
// waits for a stuck fleet before killing it. Only a broken run gets near
// either.
constexpr int kExecutorTimeoutMs = 30'000;
constexpr int64_t kNoProgressNs = int64_t{60} * 1'000'000'000;
constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

constexpr FleetConfig kConfigs[] = {
    {"gpt-shm-ahead", Transport::kShm, false, 50},
    {"gpt-mux-replay", Transport::kMux, true, kReplayEpoch},
    {"gpt-shm-replay", Transport::kShm, true, kReplayEpoch},
};

const FleetConfig* FindConfig(const std::string& name) {
  for (const FleetConfig& c : kConfigs) {
    if (name == c.name) {
      return &c;
    }
  }
  return nullptr;
}

model::ParallelConfig Parallel() { return model::ParallelConfig{kDp, 1, 4}; }

data::MiniBatchSamplerOptions SamplerOptions(uint64_t seed) {
  data::MiniBatchSamplerOptions opts;
  opts.global_batch_tokens = kBatchTokens;
  opts.max_input_len = kMaxInputLen;
  opts.seed = seed;
  return opts;
}

// ---- shared memory between the publisher and its executors ----

// One executed iteration, as the executor's observer saw it. Trivially
// constructible, so creating the shared logs touches none of their pages.
struct ExecRecord {
  int64_t iteration;
  // Observer entry: the plan was fetched, executed and its completion
  // reported.
  int64_t done_ns;
  // Executor wait: time since the previous iteration's observer returned,
  // minus this iteration's fetch and execution — the publish-poll plus the
  // completion report. -1 for the executor's first iteration.
  int64_t stall_ns;
  int64_t fetch_ns;  // fetch + decode
  int64_t exec_ns;   // simulate
  double makespan_ms;
  // FNV-1a of the re-encoded plan (traced half only, else 0).
  uint64_t plan_hash;
};

struct ExecutorLog {
  // Written by the executor just before it exits.
  int32_t report_ok = 0;
  int64_t iterations_run = 0;
  int64_t heartbeats_sent = 0;
  int64_t reconnects = 0;
  int64_t dropped_records = 0;
  double traced_cpu_ms = 0.0;
  double heartbeat_us_sum = 0.0;
  int64_t heartbeat_spans = 0;
  std::atomic<int64_t> count{0};
  ExecRecord records[kMaxRecords];
};

struct Control {
  // Executors stop after iteration end_iteration - 1.
  std::atomic<int64_t> end_iteration{kNever};
  // First iteration of the traced half.
  std::atomic<int64_t> trace_from{kNever};
};

// MAP_SHARED anonymous memory created before the fork; lock-free atomics in
// it are address-free, so both sides see one object.
class SharedRegion {
 public:
  SharedRegion()
      : bytes_(sizeof(Control) + sizeof(ExecutorLog) * kDp),
        base_(::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0)) {
    if (base_ == MAP_FAILED) {
      std::perror("mmap");
      std::exit(1);
    }
    new (base_) Control;
    for (int32_t r = 0; r < kDp; ++r) {
      new (&log(r)) ExecutorLog;
    }
  }
  ~SharedRegion() { ::munmap(base_, bytes_); }
  SharedRegion(const SharedRegion&) = delete;
  SharedRegion& operator=(const SharedRegion&) = delete;

  Control& control() { return *static_cast<Control*>(base_); }
  ExecutorLog& log(int32_t replica) {
    auto* logs = reinterpret_cast<ExecutorLog*>(static_cast<char*>(base_) +
                                                sizeof(Control));
    return logs[replica];
  }

 private:
  size_t bytes_;
  void* base_;
};

// ---- the executor process ----

// Binds the calling process to the `index`-th CPU it may run on (modulo
// their number), best effort.
void PinToCpu(int32_t index) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) == 0) {
    return;
  }
  int32_t skip = index % CPU_COUNT(&allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && skip-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

[[noreturn]] void RunExecutorChild(SharedRegion& region, pid_t parent,
                                   const std::string& attach,
                                   executor::AttachEndpoint endpoint,
                                   int32_t replica,
                                   const std::string& trace_out) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) {
    ::_exit(3);
  }
  // Each executor owns a CPU (1..3 of 4), as one executor per device would.
  // Left to the scheduler, the placement of the fleet's threads made replay
  // throughput bimodal from run to run (on a shared 4-core VM, the IQR of
  // gpt-mux-replay's tokens_per_s over 6 seeds: 30% unpinned, 14% pinned).
  PinToCpu(replica + 1);
  Control& control = region.control();
  ExecutorLog& log = region.log(replica);

  executor::ExecutorOptions opts;
  opts.attach = attach;
  opts.endpoint = endpoint;
  opts.replica = replica;
  opts.iterations = -1;
  opts.idle_timeout_ms = kExecutorTimeoutMs;
  opts.attach_timeout_ms = kExecutorTimeoutMs;
  bool tracing = false;
  double cpu_at_trace = 0.0;
  int64_t prev_exit_ns = -1;
  opts.observer = [&](const executor::IterationOutcome& o) {
    const int64_t enter_ns = NowNs();
    ExecRecord rec{};
    rec.iteration = o.iteration;
    rec.stall_ns = -1;
    rec.done_ns = enter_ns;
    const auto exec_wall_ns = static_cast<int64_t>(std::llround(o.exec_wall_ms * 1e6));
    rec.fetch_ns = static_cast<int64_t>(std::llround(o.fetch_ms * 1e6));
    rec.exec_ns = exec_wall_ns - rec.fetch_ns;
    if (prev_exit_ns >= 0) {
      rec.stall_ns = enter_ns - prev_exit_ns - exec_wall_ns;
    }
    rec.makespan_ms = o.sim->makespan_ms;
    if (tracing) {
      const std::string bytes = service::EncodeExecutionPlan(*o.plan);
      rec.plan_hash = Fnv1a(bytes.data(), bytes.size());
    }
    const int64_t slot = log.count.load(std::memory_order_relaxed);
    if (slot < kMaxRecords) {
      log.records[slot] = rec;
      log.count.store(slot + 1, std::memory_order_release);
    } else {
      ++log.dropped_records;
    }
    const int64_t next = o.iteration + 1;
    if (!tracing && next >= control.trace_from.load(std::memory_order_acquire)) {
      common::Tracer::Instance().EnableToPath(trace_out);
      cpu_at_trace = ProcessCpuMs();
      tracing = true;
    }
    if (next >= control.end_iteration.load(std::memory_order_acquire)) {
      // RunExecutor re-reads the count after every iteration: this turns the
      // open-ended run into one that stops after `o.iteration`.
      opts.iterations = next - opts.start_iteration;
    }
    prev_exit_ns = NowNs();
  };
  const executor::ExecutorReport report = executor::RunExecutor(opts);
  log.report_ok = report.ok ? 1 : 0;
  log.iterations_run = report.iterations_run;
  log.heartbeats_sent = report.heartbeats_sent;
  log.reconnects = report.reconnects;
  if (tracing) {
    log.traced_cpu_ms = ProcessCpuMs() - cpu_at_trace;
    const auto spans = SpanDurationsUs();
    if (const auto it = spans.find("heartbeat"); it != spans.end()) {
      for (const double us : it->second) {
        log.heartbeat_us_sum += us;
      }
      log.heartbeat_spans = static_cast<int64_t>(it->second.size());
    }
    common::Tracer::Instance().WritePartFile();
  }
  if (!report.ok) {
    std::fprintf(stderr, "[executor %d] %s\n", replica, report.error.c_str());
  }
  std::fflush(stderr);
  ::_exit(report.ok ? 0 : 2);
}

// ---- publisher-side instruments ----

// Waits for the executors on a thread of its own, so a child that dies
// mid-run (or a fleet that stops making progress) aborts the publisher
// instead of leaving it parked in a full store.
class ChildReaper {
 public:
  // `run_over` says whether exits are expected yet; `abort` is called once
  // on the first unexpected exit or when `progress_ns` goes stale.
  ChildReaper(std::vector<pid_t> pids, std::function<bool()> run_over,
              std::function<void()> abort,
              const std::atomic<int64_t>* progress_ns)
      : pids_(std::move(pids)),
        status_(pids_.size(), -1),
        run_over_(std::move(run_over)),
        abort_(std::move(abort)),
        progress_ns_(progress_ns),
        thread_([this] { Loop(); }) {}

  ~ChildReaper() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    thread_.join();
    KillAndReapLocked();
  }
  ChildReaper(const ChildReaper&) = delete;
  ChildReaper& operator=(const ChildReaper&) = delete;

  // Waits until every child exited; after `timeout_ms` the rest are killed.
  // True when all exited with status 0.
  bool Wait(int64_t timeout_ms) {
    const int64_t deadline = NowNs() + timeout_ms * 1'000'000;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (std::count(status_.begin(), status_.end(), -1) == 0) {
          break;
        }
      }
      if (NowNs() >= deadline) {
        std::lock_guard<std::mutex> lock(mu_);
        KillAndReapLocked();
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::lock_guard<std::mutex> lock(mu_);
    bool ok = true;
    for (const int status : status_) {
      ok = ok && status == 0;
    }
    return ok;
  }

 private:
  void Loop() {
    bool aborted = false;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) {
          return;
        }
        for (size_t c = 0; c < pids_.size(); ++c) {
          if (status_[c] != -1) {
            continue;
          }
          int status = 0;
          if (::waitpid(pids_[c], &status, WNOHANG) == pids_[c]) {
            status_[c] = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
            if (!run_over_() && !aborted) {
              std::fprintf(stderr, "executor pid %d exited mid-run (%d)\n",
                           static_cast<int>(pids_[c]), status_[c]);
              aborted = true;
              abort_();
            }
          }
        }
      }
      if (!aborted && progress_ns_->load() != 0 &&
          NowNs() - progress_ns_->load() > kNoProgressNs) {
        std::fprintf(stderr, "no progress for %llds: killing the fleet\n",
                     static_cast<long long>(kNoProgressNs / 1'000'000'000));
        aborted = true;
        abort_();
        std::lock_guard<std::mutex> lock(mu_);
        KillAndReapLocked();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  void KillAndReapLocked() {
    for (size_t c = 0; c < pids_.size(); ++c) {
      if (status_[c] == -1) {
        ::kill(pids_[c], SIGKILL);
        int status = 0;
        ::waitpid(pids_[c], &status, 0);
        status_[c] = 128 + SIGKILL;
      }
    }
  }

  std::vector<pid_t> pids_;
  std::mutex mu_;
  std::vector<int> status_;  // -1 while running; guarded by mu_
  bool stop_ = false;        // guarded by mu_
  std::function<bool()> run_over_;
  std::function<void()> abort_;
  const std::atomic<int64_t>* progress_ns_;
  std::thread thread_;
};

// Counts completion reports per (replica, iteration) on their way to the
// heartbeat monitor.
class CountingSink final : public runtime::HeartbeatSink {
 public:
  explicit CountingSink(service::HeartbeatMonitor* monitor)
      : monitor_(monitor), seen_(kDp) {}

  void OnHeartbeat(int32_t replica, int64_t iteration,
                   double wall_ms) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (replica >= 0 && replica < kDp && iteration >= 0) {
        std::vector<uint8_t>& seen = seen_[static_cast<size_t>(replica)];
        if (seen.size() <= static_cast<size_t>(iteration)) {
          seen.resize(static_cast<size_t>(iteration) + 1, 0);
        }
        uint8_t& n = seen[static_cast<size_t>(iteration)];
        n = static_cast<uint8_t>(std::min(255, n + 1));
      }
    }
    monitor_->OnHeartbeat(replica, iteration, wall_ms);
  }
  void OnReplicaAttached(int32_t replica) override {
    monitor_->OnReplicaAttached(replica);
  }
  void OnReplicaDisconnected(int32_t replica, bool clean) override {
    monitor_->OnReplicaDisconnected(replica, clean);
  }
  bool IsReplicaDead(int32_t replica) const override {
    return monitor_->IsReplicaDead(replica);
  }
  void OnReplicaDrainRequested(int32_t replica) override {
    monitor_->OnReplicaDrainRequested(replica);
  }

  int Seen(int32_t replica, int64_t iteration) const {
    std::lock_guard<std::mutex> lock(mu_);
    const std::vector<uint8_t>& seen = seen_[static_cast<size_t>(replica)];
    return static_cast<size_t>(iteration) < seen.size()
               ? seen[static_cast<size_t>(iteration)]
               : 0;
  }

 private:
  service::HeartbeatMonitor* monitor_;
  mutable std::mutex mu_;
  std::vector<std::vector<uint8_t>> seen_;  // guarded by mu_
};

// Forwards to the real store; from `trace_from` on it times each Push (the
// encode, insert and capacity park all happen inside it) and records the
// plan's bytes hash for the byte-identity check.
class TimedStore final : public runtime::InstructionStoreInterface {
 public:
  struct Sample {
    int64_t iteration = 0;
    int32_t replica = 0;
    double push_us = 0.0;
    size_t bytes = 0;
    uint64_t hash = 0;
  };

  explicit TimedStore(std::shared_ptr<runtime::InstructionStoreInterface> inner)
      : inner_(std::move(inner)) {}

  void TraceFrom(int64_t iteration) { trace_from_.store(iteration); }

  void Push(int64_t iteration, int32_t replica,
            sim::ExecutionPlan plan) override {
    if (iteration < trace_from_.load(std::memory_order_relaxed)) {
      inner_->Push(iteration, replica, std::move(plan));
      return;
    }
    Sample sample;
    sample.iteration = iteration;
    sample.replica = replica;
    {
      ScopedAllocPause pause;
      const std::string bytes = service::EncodeExecutionPlan(plan);
      sample.bytes = bytes.size();
      sample.hash = Fnv1a(bytes.data(), bytes.size());
    }
    const int64_t t0 = NowNs();
    inner_->Push(iteration, replica, std::move(plan));
    sample.push_us = static_cast<double>(NowNs() - t0) / 1e3;
    ScopedAllocPause pause;
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(sample);
  }
  sim::ExecutionPlan Fetch(int64_t iteration, int32_t replica) override {
    return inner_->Fetch(iteration, replica);
  }
  bool Contains(int64_t iteration, int32_t replica) const override {
    return inner_->Contains(iteration, replica);
  }
  size_t size() const override { return inner_->size(); }
  void Shutdown() override { inner_->Shutdown(); }
  int64_t serialized_bytes_total() const override {
    return inner_->serialized_bytes_total();
  }

  std::vector<Sample> samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
  }

 private:
  std::shared_ptr<runtime::InstructionStoreInterface> inner_;
  std::atomic<int64_t> trace_from_{kNever};
  mutable std::mutex mu_;
  std::vector<Sample> samples_;  // guarded by mu_
};

// One PlanIteration call, timed around the planner's public entry point.
struct PlanCall {
  int64_t start_ns = 0;
  double ms = 0.0;
  runtime::PlanningStats stats;
};

// One delivered iteration, as NextPlan returned it.
struct Delivered {
  int64_t real_tokens = 0;
  bool feasible = false;
  bool plan_cache_hit = false;
  double next_plan_ms = 0.0;
  mb::PaddingStats padding;
};

// Everything one fixture measured.
struct FixtureRun {
  bool ok = true;
  double setup_s = 0.0;
  int64_t warmup = 0;
  int64_t end = 0;
  int64_t trace_from = kNever;
  int64_t timed_start_ns = 0;
  int64_t traced_start_ns = 0;
  std::vector<Delivered> delivered;
  std::vector<PlanCall> plan_calls;
  std::vector<TimedStore::Sample> pushes;
  double publisher_cpu_ms = 0.0;
  int64_t publisher_allocs = 0;
  // Per replica: executed records, in execution order.
  std::vector<std::vector<ExecRecord>> executed;
  std::vector<ExecutorLog*> logs;
  // Per replica and iteration: completion reports the monitor received.
  std::vector<std::vector<int>> heartbeats;
};

// One fixture: fork the fleet, set up the publisher, run the warm-up, and
// (`timed`) the timed phase; then wind down and collect what happened.
// Failures of the fixture itself land in `result`.
void RunFixture(const FleetConfig& cfg, const RunOptions& options,
                int fixture, bool timed, SharedRegion& region,
                FixtureRun* run, Result* result) {
  const int64_t t0 = NowNs();
  run->warmup = cfg.warmup_iterations;
  const std::string tag =
      std::to_string(::getpid()) + "-" + std::to_string(fixture);
  const bool shm = cfg.transport == Transport::kShm;
  const std::string attach = shm ? "/dynapipe-e2e-" + tag
                                 : options.run_dir + "/e2e-" + tag + ".sock";
  Control& control = region.control();

  // The executors first, while this process has no other thread.
  std::vector<pid_t> pids;
  const pid_t parent = ::getpid();
  std::fflush(stdout);
  std::fflush(stderr);
  for (int32_t replica = 0; replica < kDp; ++replica) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(1);
    }
    if (pid == 0) {
      RunExecutorChild(region, parent, attach,
                       shm ? executor::AttachEndpoint::kSharedMemory
                           : executor::AttachEndpoint::kUnixSocketMux,
                       replica, options.trace_out);
    }
    pids.push_back(pid);
  }

  std::atomic<bool> aborted{false};
  std::atomic<int64_t> progress_ns{0};
  // Set below once the inner store exists; the reaper shuts it down to free
  // a publisher parked in Push.
  std::shared_ptr<runtime::InstructionStoreInterface> inner;
  std::mutex inner_mu;
  ChildReaper reaper(
      pids,
      [&] {
        return control.end_iteration.load() != kNever;
      },
      [&] {
        aborted.store(true);
        std::lock_guard<std::mutex> lock(inner_mu);
        if (inner != nullptr) {
          inner->Shutdown();
        }
      },
      &progress_ns);

  // Dataset, cost model, planner.
  const data::Dataset dataset = bench::BenchDataset(kDatasetSamples, kCorpusSeed);
  const cost::PipelineCostModel cost_model = cost::PipelineCostModel::Profile(
      model::ModelConfig::Gpt3_35B(), model::HardwareSpec{}, Parallel(),
      bench::BenchProfile());
  ThreadPool pool(kPoolThreads);
  runtime::PlannerOptions popts = bench::BenchPlanner();
  popts.pool = &pool;
  const runtime::IterationPlanner planner(cost_model, popts);
  std::mutex calls_mu;
  const auto plan_fn = [&](const std::vector<data::Sample>& batch) {
    const int64_t start = NowNs();
    runtime::IterationPlan plan = planner.PlanIteration(batch);
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    if (options.trace) {
      ScopedAllocPause pause;
      std::lock_guard<std::mutex> lock(calls_mu);
      run->plan_calls.push_back(PlanCall{start, ms, plan.stats});
    }
    return plan;
  };

  service::PlanAheadOptions sopts;
  sopts.lookahead = kLookahead;
  sopts.pool = &pool;
  sopts.fold_target_lengths = true;
  std::vector<std::vector<data::Sample>> replay_batches;
  if (cfg.replay) {
    sopts.plan_cache = std::make_shared<service::PlanCache>(
        service::PlanCacheOptions{kPlanCacheCapacity, 0});
    sopts.config_hash = Fnv1a(cfg.name, std::strlen(cfg.name));
    data::MiniBatchSampler sampler(dataset, SamplerOptions(DeriveSeed(options.seed, 1)));
    while (static_cast<int64_t>(replay_batches.size()) < kReplayEpoch &&
           sampler.HasNext()) {
      replay_batches.push_back(sampler.Next());
    }
    // Plan the replayed epoch once, through a throwaway service sharing the
    // plan cache; its in-process store is drained and dropped.
    size_t next = 0;
    service::PlanAheadService warm(
        plan_fn,
        [&]() -> std::vector<data::Sample> {
          return next < replay_batches.size() ? replay_batches[next++]
                                              : std::vector<data::Sample>{};
        },
        sopts);
    while (std::optional<service::ServicedPlan> sp = warm.NextPlan()) {
      if (!sp->plan.feasible) {
        result->Fail("replay epoch planning: " + sp->plan.infeasible_reason);
        break;
      }
      for (int32_t r = 0; r < kDp; ++r) {
        warm.FetchExecPlan(sp->iteration, r);
      }
    }
  }

  // The store the executors attach to, and the completion-report path.
  service::HeartbeatMonitorOptions mopts;
  mopts.expected_replicas = kDp;
  service::HeartbeatMonitor monitor(mopts);
  CountingSink sink(&monitor);
  std::shared_ptr<runtime::InstructionStore> server_store;
  std::optional<transport::UnixSocketTransport> socket;
  std::optional<transport::InstructionStoreServer> server;
  std::shared_ptr<transport::ShmInstructionStore> shm_store;
  std::optional<transport::ShmHeartbeatPoller> poller;
  if (shm) {
    transport::ShmStoreOptions shm_opts;
    shm_opts.capacity = kStoreCapacity;
    shm_store = transport::ShmInstructionStore::Create(attach, shm_opts);
    poller.emplace(shm_store, &sink);
    std::lock_guard<std::mutex> lock(inner_mu);
    inner = shm_store;
  } else {
    server_store = std::make_shared<runtime::InstructionStore>(
        runtime::InstructionStoreOptions{/*serialized=*/true, kStoreCapacity});
    server_store->set_heartbeat_sink(&sink);
    socket.emplace(attach);
    server.emplace(&*socket, server_store.get());
    std::lock_guard<std::mutex> lock(inner_mu);
    inner = server_store;
  }
  if (aborted.load()) {
    inner->Shutdown();
  }
  auto store = std::make_shared<TimedStore>(inner);
  sopts.store = store;
  // The service must not defer publishing against its own fetch count (the
  // executors fetch, not this process): the store's capacity bound parks
  // Push instead.
  sopts.store_capacity = 0;

  // The mini-batch source decides the phase boundaries (see the file
  // comment). It runs on this thread, inside NextPlan.
  std::optional<data::MiniBatchSampler> warm_sampler;
  std::optional<data::MiniBatchSampler> timed_sampler;
  uint64_t timed_epoch = 0;
  if (!cfg.replay) {
    warm_sampler.emplace(dataset, SamplerOptions(DeriveSeed(options.seed, 1)));
  }
  int64_t pulled = 0;
  bool ended = false;
  int64_t end_deadline_ns = kNever;
  int64_t trace_deadline_ns = kNever;
  const auto next_batch = [&](int64_t k) -> std::vector<data::Sample> {
    if (cfg.replay) {
      return replay_batches[static_cast<size_t>(k) % replay_batches.size()];
    }
    if (k < run->warmup) {
      return warm_sampler->HasNext() ? warm_sampler->Next()
                                     : std::vector<data::Sample>{};
    }
    while (!timed_sampler.has_value() || !timed_sampler->HasNext()) {
      timed_sampler.emplace(dataset,
                            SamplerOptions(DeriveSeed(options.seed, 2 + timed_epoch++)));
    }
    return timed_sampler->Next();
  };
  const auto source = [&]() -> std::vector<data::Sample> {
    if (ended || aborted.load()) {
      return {};
    }
    const int64_t k = pulled++;
    const int64_t now = NowNs();
    if (!timed && k == run->warmup - 1) {
      ended = true;
    }
    if (timed && run->trace_from == kNever && now >= trace_deadline_ns) {
      run->trace_from = k + 1;
      store->TraceFrom(k + 1);
      common::Tracer::Instance().EnableToPath(options.trace_out);
      control.trace_from.store(k + 1);
    }
    if (timed && now >= end_deadline_ns) {
      ended = true;
    }
    if (ended) {
      run->end = k + 1;
      control.end_iteration.store(k + 1);
    }
    std::vector<data::Sample> batch = next_batch(k);
    if (batch.empty()) {
      result->Fail("the mini-batch source ran dry");
      aborted.store(true);
      control.end_iteration.store(k);
      run->end = k;
    }
    return batch;
  };

  {
    service::PlanAheadService service(plan_fn, source, sopts);
    double cpu0 = 0.0;
    int64_t allocs0 = 0;
    int64_t delivered = 0;
    for (;;) {
      if (timed && delivered == run->warmup) {
        run->timed_start_ns = NowNs();
        const double phase_s = options.trace ? options.seconds / 2.0
                                             : options.seconds;
        const int64_t deadline =
            run->timed_start_ns + static_cast<int64_t>(phase_s * 1e9);
        (options.trace ? trace_deadline_ns : end_deadline_ns) = deadline;
      }
      if (timed && delivered == run->trace_from) {
        run->traced_start_ns = NowNs();
        end_deadline_ns = run->traced_start_ns +
                          static_cast<int64_t>(options.seconds / 2.0 * 1e9);
        cpu0 = ProcessCpuMs();
        allocs0 = AllocCount();
        ArmAllocCounting(true);
      }
      progress_ns.store(NowNs());
      std::optional<service::ServicedPlan> sp = service.NextPlan();
      if (!sp.has_value()) {
        break;
      }
      ScopedAllocPause pause;
      Delivered d;
      d.feasible = sp->plan.feasible;
      d.plan_cache_hit = sp->plan_cache_hit;
      d.next_plan_ms = sp->stall_ms;
      d.padding = sp->plan.padding;
      for (const runtime::ReplicaPlan& replica : sp->plan.replicas) {
        for (const mb::MicroBatch& m : replica.micro_batches) {
          d.real_tokens += m.real_tokens();
        }
      }
      run->delivered.push_back(d);
      ++delivered;
      if (delivered == run->warmup) {
        run->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
      }
    }
    ArmAllocCounting(false);
    if (run->trace_from != kNever) {
      run->publisher_cpu_ms = ProcessCpuMs() - cpu0;
      run->publisher_allocs = AllocCount() - allocs0;
    }
    progress_ns.store(0);

    // Wind down: the executors stop after the last published iteration.
    if (!reaper.Wait(kExecutorTimeoutMs)) {
      result->Fail(std::string(cfg.name) + ": an executor did not exit cleanly");
    }
    if (aborted.load()) {
      result->Fail(std::string(cfg.name) + ": run aborted");
    }
    if (shm) {
      // The poller delivers completions asynchronously; wait (bounded) for
      // every replica's last one.
      const int64_t deadline = NowNs() + int64_t{2'000'000'000};
      for (int32_t r = 0; r < kDp; ++r) {
        while (monitor.LastIteration(r) < run->end - 1 && NowNs() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    }
    if (store->size() != 0) {
      result->Fail(std::string(cfg.name) + ": " + std::to_string(store->size()) +
                   " plans left in the store");
    }
  }
  if (static_cast<int64_t>(run->delivered.size()) != run->end) {
    result->Fail("publisher delivered " + std::to_string(run->delivered.size()) +
                 " of " + std::to_string(run->end) + " iterations");
  }

  run->pushes = store->samples();
  run->executed.resize(kDp);
  run->heartbeats.resize(kDp);
  for (int32_t r = 0; r < kDp; ++r) {
    ExecutorLog& log = region.log(r);
    run->logs.push_back(&log);
    const int64_t n = log.count.load(std::memory_order_acquire);
    run->executed[r].assign(log.records, log.records + n);
    if (log.report_ok != 1 || log.iterations_run != run->end ||
        log.heartbeats_sent != log.iterations_run || log.dropped_records != 0) {
      result->Fail("executor " + std::to_string(r) + " ran " +
                   std::to_string(log.iterations_run) + " of " +
                   std::to_string(run->end) + " iterations and reported " +
                   std::to_string(log.heartbeats_sent));
    }
    run->heartbeats[r].resize(static_cast<size_t>(std::max<int64_t>(run->end, 0)));
    for (int64_t i = 0; i < run->end; ++i) {
      run->heartbeats[r][static_cast<size_t>(i)] = sink.Seen(r, i);
    }
  }
  if (server.has_value()) {
    server->Stop();
  }
  if (timed && options.trace &&
      !common::Tracer::Instance().WriteMergedTrace()) {
    result->Fail("could not write the trace to " + options.trace_out);
  }
}

// Throughput and timing of iterations [from, to) that the publisher started
// delivering at start_ns.
struct PhaseStats {
  int64_t iterations = 0;
  int64_t real_tokens = 0;
  double seconds = 0.0;
  double tokens_per_s() const {
    return seconds > 0.0 ? static_cast<double>(real_tokens) / seconds : 0.0;
  }
};

PhaseStats Phase(const FixtureRun& run, int64_t from, int64_t to,
                 int64_t start_ns) {
  PhaseStats s;
  s.iterations = std::max<int64_t>(0, to - from);
  for (int64_t i = from; i < to; ++i) {
    s.real_tokens += run.delivered[static_cast<size_t>(i)].real_tokens;
  }
  int64_t end_ns = start_ns;
  for (const std::vector<ExecRecord>& records : run.executed) {
    for (const ExecRecord& rec : records) {
      if (rec.iteration >= from && rec.iteration < to) {
        end_ns = std::max(end_ns, rec.done_ns);
      }
    }
  }
  s.seconds = static_cast<double>(end_ns - start_ns) / 1e9;
  return s;
}

}  // namespace

std::string DescribeFleetWorkload(const std::string& name) {
  const FleetConfig* cfg = FindConfig(name);
  if (cfg == nullptr) {
    return "";
  }
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"surface\": \"PlanAheadService + RunExecutor\", \"model\": "
      "\"GPT-3.35B\", \"parallel\": {\"dp\": %d, \"tp\": 1, \"pp\": 4}, "
      "\"executors\": %d, \"executor_cpus\": \"one each, from the 2nd\", "
      "\"transport\": \"%s\", \"plan_cache\": %s, "
      "\"corpus_seed\": %llu, \"dataset_samples\": %lld, \"global_batch_tokens\": %lld, "
      "\"max_input_len\": %d, \"plan_lookahead\": %d, "
      "\"planning_threads\": %d, \"store_capacity\": %zu, "
      "\"replay_epoch\": %lld, \"warmup_iterations\": %lld, "
      "\"sim_window\": %lld, \"setup_repeats\": %d}",
      kDp, kDp, cfg->transport == Transport::kShm ? "shm" : "unix-socket-mux",
      cfg->replay ? "true" : "false", static_cast<unsigned long long>(kCorpusSeed),
      static_cast<long long>(kDatasetSamples),
      static_cast<long long>(kBatchTokens), kMaxInputLen, kLookahead,
      kPoolThreads, kStoreCapacity,
      static_cast<long long>(cfg->replay ? kReplayEpoch : 0),
      static_cast<long long>(cfg->warmup_iterations),
      static_cast<long long>(kSimWindow), kSetupRepeats);
  return buf;
}

Result RunFleetWorkload(const RunOptions& options) {
  Result result;
  const FleetConfig* cfg = FindConfig(options.workload);
  if (cfg == nullptr) {
    result.Fail("unknown workload " + options.workload);
    return result;
  }
  std::vector<double> setup_s;
  FixtureRun run;
  std::unique_ptr<SharedRegion> region;
  for (int f = 0; f < kSetupRepeats; ++f) {
    const bool timed = f == kSetupRepeats - 1;
    region = std::make_unique<SharedRegion>();
    run = FixtureRun{};
    RunFixture(*cfg, options, f, timed, *region, &run, &result);
    setup_s.push_back(run.setup_s);
    if (!result.correct) {
      return result;
    }
  }
  result.NoteSetups(setup_s);

  // Per-plan checks over the timed phase [warmup, end).
  const int64_t from = run.warmup;
  const int64_t to = run.end;
  std::vector<std::vector<int>> executions(kDp);
  std::vector<std::vector<uint64_t>> executed_hash(kDp);
  for (int32_t r = 0; r < kDp; ++r) {
    executions[r].assign(static_cast<size_t>(to), 0);
    executed_hash[r].assign(static_cast<size_t>(to), 0);
    for (const ExecRecord& rec : run.executed[r]) {
      if (rec.iteration >= 0 && rec.iteration < to) {
        ++executions[r][static_cast<size_t>(rec.iteration)];
        executed_hash[r][static_cast<size_t>(rec.iteration)] = rec.plan_hash;
      }
    }
  }
  std::vector<std::vector<uint64_t>> published_hash(kDp);
  for (int32_t r = 0; r < kDp; ++r) {
    published_hash[r].assign(static_cast<size_t>(to), 0);
  }
  for (const TimedStore::Sample& s : run.pushes) {
    if (s.iteration >= 0 && s.iteration < to && s.replica >= 0 &&
        s.replica < kDp) {
      published_hash[s.replica][static_cast<size_t>(s.iteration)] = s.hash;
    }
  }
  const bool mux = cfg->transport == Transport::kMux;
  int64_t hash_mismatches = 0;
  for (int64_t i = from; i < to; ++i) {
    for (int32_t r = 0; r < kDp; ++r) {
      ++result.attempted;
      const auto k = static_cast<size_t>(i);
      bool ok = executions[r][k] == 1 && run.delivered[k].feasible;
      // Over the wire every report is answered synchronously, so each plan's
      // report must have reached the monitor. On shm a report is a write
      // into the segment that cannot fail (RunFixture checks each executor
      // sent one per plan); the poller forwards only the newest completions
      // per visit, so what reached the monitor is the layer metric
      // heartbeat.delivered_share.
      if (mux) {
        ok = ok && run.heartbeats[r][k] >= 1;
      }
      if (i >= run.trace_from &&
          (published_hash[r][k] == 0 ||
           published_hash[r][k] != executed_hash[r][k])) {
        ++hash_mismatches;
        ok = false;
      }
      result.failed += ok ? 0 : 1;
    }
  }
  if (hash_mismatches != 0) {
    result.notes.push_back(std::to_string(hash_mismatches) +
                           " executed plans differ from the published bytes");
  }

  // Simulated throughput over the first kSimWindow timed iterations: real
  // tokens over the slowest replica's executor-reported makespan.
  std::vector<double> makespan(static_cast<size_t>(to), 0.0);
  for (const std::vector<ExecRecord>& records : run.executed) {
    for (const ExecRecord& rec : records) {
      if (rec.iteration >= 0 && rec.iteration < to) {
        double& m = makespan[static_cast<size_t>(rec.iteration)];
        m = std::max(m, rec.makespan_ms);
      }
    }
  }
  const int64_t sim_to = std::min(to, from + kSimWindow);
  int64_t sim_tokens = 0;
  double sim_ms = 0.0;
  for (int64_t i = from; i < sim_to; ++i) {
    sim_tokens += run.delivered[static_cast<size_t>(i)].real_tokens;
    sim_ms += makespan[static_cast<size_t>(i)];
  }

  // Executor wait and fetch/execute samples of iterations [a, b).
  const auto exec_samples = [&](int64_t a, int64_t b,
                                double (*pick)(const ExecRecord&)) {
    std::vector<double> out;
    for (const std::vector<ExecRecord>& records : run.executed) {
      for (const ExecRecord& rec : records) {
        if (rec.iteration >= a && rec.iteration < b && rec.stall_ns >= 0) {
          out.push_back(pick(rec));
        }
      }
    }
    return out;
  };
  const auto stall_ms = [](const ExecRecord& r) {
    return static_cast<double>(r.stall_ns) / 1e6;
  };

  if (!options.trace) {
    const PhaseStats timed = Phase(run, from, to, run.timed_start_ns);
    result.Add("tokens_per_s", timed.tokens_per_s(), "tokens/s");
    result.Add("sim_tokens_per_s",
               sim_ms > 0.0 ? static_cast<double>(sim_tokens) / (sim_ms / 1000.0)
                            : 0.0,
               "tokens/s");
    result.Add("stall_ms_mean", Mean(exec_samples(from, to, stall_ms)), "ms");
    result.Add("setup_s", Pct(setup_s, 50.0), "s");
    return result;
  }

  // Traced half [trace_from, end).
  const int64_t tf = std::min(run.trace_from, to);
  const PhaseStats untraced = Phase(run, from, tf, run.timed_start_ns);
  const PhaseStats traced = Phase(run, tf, to, run.traced_start_ns);
  const double iterations = static_cast<double>(std::max<int64_t>(1, traced.iterations));
  const double plans = iterations * kDp;

  // Planner calls of the traced half; the replay workloads make none there,
  // so their latencies describe the planning of the replayed epoch.
  std::vector<const PlanCall*> calls;
  for (const PlanCall& c : run.plan_calls) {
    if (c.start_ns >= run.traced_start_ns) {
      calls.push_back(&c);
    }
  }
  const int64_t traced_calls = static_cast<int64_t>(calls.size());
  if (calls.empty()) {
    for (const PlanCall& c : run.plan_calls) {
      calls.push_back(&c);
    }
  }
  std::vector<double> plan_ms, partition_ms, schedule_ms;
  int64_t cost_hits = 0, cost_misses = 0, prefix_hits = 0, prefix_misses = 0;
  for (const PlanCall* c : calls) {
    plan_ms.push_back(c->ms);
    partition_ms.push_back(c->stats.partition_ms);
    schedule_ms.push_back(c->stats.schedule_ms);
    cost_hits += c->stats.cost_cache_hits;
    cost_misses += c->stats.cost_cache_misses;
    prefix_hits += c->stats.prefix_cache_hits;
    prefix_misses += c->stats.prefix_cache_misses;
  }
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };

  std::vector<double> next_plan_ms;
  int64_t cache_hits = 0;
  mb::PaddingStats padding;
  for (int64_t i = tf; i < to; ++i) {
    const Delivered& d = run.delivered[static_cast<size_t>(i)];
    next_plan_ms.push_back(d.next_plan_ms);
    cache_hits += d.plan_cache_hit ? 1 : 0;
    padding.real_input_tokens += d.padding.real_input_tokens;
    padding.padded_input_tokens += d.padding.padded_input_tokens;
    padding.real_target_tokens += d.padding.real_target_tokens;
    padding.padded_target_tokens += d.padding.padded_target_tokens;
  }
  std::vector<double> push_us;
  double pushed_bytes = 0.0;
  for (const TimedStore::Sample& s : run.pushes) {
    if (s.iteration >= tf && s.iteration < to) {
      push_us.push_back(s.push_us);
      pushed_bytes += static_cast<double>(s.bytes);
    }
  }
  const std::vector<double> fetch_us = exec_samples(
      tf, to, [](const ExecRecord& r) { return static_cast<double>(r.fetch_ns) / 1e3; });
  const std::vector<double> exec_us = exec_samples(
      tf, to, [](const ExecRecord& r) { return static_cast<double>(r.exec_ns) / 1e3; });
  double busy_us = 0.0;
  for (size_t k = 0; k < fetch_us.size(); ++k) {
    busy_us += fetch_us[k] + exec_us[k];
  }
  double executor_cpu_ms = 0.0;
  double heartbeat_us = 0.0;
  int64_t heartbeat_spans = 0;
  int64_t reconnects = 0;
  for (const ExecutorLog* log : run.logs) {
    executor_cpu_ms += log->traced_cpu_ms;
    heartbeat_us += log->heartbeat_us_sum;
    heartbeat_spans += log->heartbeat_spans;
    reconnects += log->reconnects;
  }
  int64_t delivered_reports = 0;
  for (int32_t r = 0; r < kDp; ++r) {
    for (int64_t i = tf; i < to; ++i) {
      delivered_reports += run.heartbeats[r][static_cast<size_t>(i)] >= 1 ? 1 : 0;
    }
  }

  result.Add("planner.calls", static_cast<double>(traced_calls), "count");
  result.Add("planner.plan_ms_p50", Pct(plan_ms, 50.0), "ms");
  result.Add("planner.plan_ms_p99", Pct(plan_ms, 99.0), "ms");
  result.Add("mb.partition_ms_p50", Pct(partition_ms, 50.0), "ms");
  result.Add("schedule.schedule_ms_p50", Pct(schedule_ms, 50.0), "ms");
  result.Add("cost.cache_hit_rate",
             ratio(static_cast<double>(cost_hits),
                   static_cast<double>(cost_hits + cost_misses)),
             "ratio");
  result.Add("mb.prefix_hit_rate",
             ratio(static_cast<double>(prefix_hits),
                   static_cast<double>(prefix_hits + prefix_misses)),
             "ratio");
  result.Add("mb.padding_efficiency", padding.overall_efficiency(), "ratio");
  result.Add("service.next_plan_ms_p50", Pct(next_plan_ms, 50.0), "ms");
  result.Add("service.next_plan_ms_p99", Pct(next_plan_ms, 99.0), "ms");
  result.Add("service.plan_cache_hit_rate",
             ratio(static_cast<double>(cache_hits), iterations), "ratio");
  result.Add("store.push_us_p50", Pct(push_us, 50.0), "us");
  result.Add("store.push_us_p99", Pct(push_us, 99.0), "us");
  result.Add("store.fetch_us_p50", Pct(fetch_us, 50.0), "us");
  result.Add("store.fetch_us_p99", Pct(fetch_us, 99.0), "us");
  result.Add("store.bytes_per_plan", pushed_bytes / plans, "bytes");
  result.Add("executor.exec_us_p50", Pct(exec_us, 50.0), "us");
  result.Add("executor.stall_ms_p99", Pct(exec_samples(tf, to, stall_ms), 99.0),
             "ms");
  result.Add("executor.busy_share",
             ratio(busy_us / 1e6, traced.seconds * kDp), "ratio");
  result.Add("executor.cpu_ms_per_iter", executor_cpu_ms / iterations, "ms");
  result.Add("executor.reconnects", static_cast<double>(reconnects), "count");
  result.Add("heartbeat.us_mean",
             ratio(heartbeat_us, static_cast<double>(heartbeat_spans)), "us");
  result.Add("heartbeat.delivered_share",
             static_cast<double>(delivered_reports) / plans, "ratio");
  result.Add("publisher.allocs_per_plan",
             static_cast<double>(run.publisher_allocs) / plans, "count");
  result.Add("publisher.cpu_ms_per_iter", run.publisher_cpu_ms / iterations,
             "ms");
  result.Add("trace.overhead_share",
             untraced.tokens_per_s() > 0.0
                 ? 1.0 - traced.tokens_per_s() / untraced.tokens_per_s()
                 : 0.0,
             "ratio");
  return result;
}

}  // namespace dynapipe::bench_e2e
