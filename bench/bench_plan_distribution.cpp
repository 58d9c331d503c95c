// Plan distribution latency: per-plan publish/fetch cost by store backend.
//
// The plan-ahead pipeline hides planning latency, but the *distribution* hop
// — publishing a serialized plan into the store and fetching it back on the
// executor side — sits on the critical path of every iteration start. This
// bench measures that hop per backend, same plan, same contract:
//
//   in-process         move the plan object (no encode)
//   in-process serde   encode on Push, decode on Fetch (plan_serde)
//   shm store          shared-memory segment: encode-into-arena on Push,
//                      zero-copy view + decode-in-place on Fetch
//   shm view           same segment, but the fetch column is the raw
//                      distribution hop alone: acquire the zero-copy view
//                      and release it, no decode (decode-in-place costs the
//                      same everywhere and can happen lazily on the executor)
//
// Plans are published where the store lives, so the socket wire has no push
// row: its fetch hop is measured end to end as bench/e2e's store.fetch_us_*
// on gpt-mux-replay. The wire row here is the heartbeat exchange.
//
// Each row also counts heap allocations per Push/Fetch (global operator new
// interposition): the steady-state publish path is designed to allocate
// nothing (per-thread encode scratch), and the shm rows prove it.
//
// Reported numbers go into bench/README.md ("Plan distribution"). Pass an
// integer argv[1] to override the round count (CI smoke runs use a handful
// of rounds).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/cost/pipeline_cost_model.h"
#include "src/data/minibatch_sampler.h"
#include "src/runtime/instruction_store.h"
#include "src/service/fleet.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/plan_serde.h"
#include "src/transport/mux.h"
#include "src/transport/shm_store.h"
#include "src/transport/store_server.h"
#include "src/transport/transport.h"

// ---- allocation counting (whole binary) ----
namespace {
std::atomic<int64_t> g_allocs{0};
}  // namespace

void* operator new(size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace {

using namespace dynapipe;

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct Row {
  const char* name;
  double push_ms = 0.0;
  double fetch_ms = 0.0;
  double push_allocs = 0.0;
  double fetch_allocs = 0.0;
};

Row Measure(const char* name, runtime::InstructionStoreInterface& store,
            const sim::ExecutionPlan& plan, int rounds) {
  // Warm-up round: first allocation and thread-local scratch growth are not
  // steady state.
  store.Push(-1, 0, plan);
  store.Fetch(-1, 0);
  Row row;
  row.name = name;
  int64_t push_allocs = 0;
  int64_t fetch_allocs = 0;
  for (int i = 0; i < rounds; ++i) {
    int64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    auto t0 = std::chrono::steady_clock::now();
    store.Push(i, 0, plan);
    row.push_ms += MsSince(t0);
    const int64_t allocs1 = g_allocs.load(std::memory_order_relaxed);
    push_allocs += allocs1 - allocs0;
    t0 = std::chrono::steady_clock::now();
    const sim::ExecutionPlan fetched = store.Fetch(i, 0);
    row.fetch_ms += MsSince(t0);
    fetch_allocs += g_allocs.load(std::memory_order_relaxed) - allocs1;
    if (fetched.num_microbatches != plan.num_microbatches) {
      std::printf("!! %s corrupted a plan\n", name);
    }
  }
  row.push_ms /= rounds;
  row.fetch_ms /= rounds;
  row.push_allocs = static_cast<double>(push_allocs) / rounds;
  row.fetch_allocs = static_cast<double>(fetch_allocs) / rounds;
  return row;
}

// The shm distribution hop alone: push into the arena, acquire the zero-copy
// view, release — no decode. It is what a same-host executor pays to
// *obtain* a published plan's bytes.
Row MeasureShmView(transport::ShmInstructionStore& store,
                   const sim::ExecutionPlan& plan, int rounds) {
  store.Push(-1, 0, plan);
  { const auto warm = store.AcquireView(-1, 0); (void)warm; }
  Row row;
  row.name = "shm view (no decode)";
  int64_t push_allocs = 0;
  int64_t fetch_allocs = 0;
  for (int i = 0; i < rounds; ++i) {
    int64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    auto t0 = std::chrono::steady_clock::now();
    store.Push(i, 0, plan);
    row.push_ms += MsSince(t0);
    const int64_t allocs1 = g_allocs.load(std::memory_order_relaxed);
    push_allocs += allocs1 - allocs0;
    t0 = std::chrono::steady_clock::now();
    {
      const auto view = store.AcquireView(i, 0);
      if (view.bytes().size() < 5) {
        std::printf("!! shm view too small\n");
      }
    }
    row.fetch_ms += MsSince(t0);
    fetch_allocs += g_allocs.load(std::memory_order_relaxed) - allocs1;
  }
  row.push_ms /= rounds;
  row.fetch_ms /= rounds;
  row.push_allocs = static_cast<double>(push_allocs) / rounds;
  row.fetch_allocs = static_cast<double>(fetch_allocs) / rounds;
  return row;
}

// Heartbeat overhead: what an executor pays per iteration to report
// completion back to the trainer (bench/README.md "Executor deployment").
// The row measures the full request/reply exchange over the socket mux,
// landing in a real HeartbeatMonitor.
struct HeartbeatRow {
  const char* name;
  double heartbeat_ms = 0.0;
  double heartbeat_allocs = 0.0;
};

HeartbeatRow MeasureHeartbeat(const char* name,
                              transport::MuxInstructionStore& client,
                              int rounds) {
  bool evicted = false;
  // Warm-up: first connect, scratch growth.
  client.TryHeartbeat(0, -1, 1.0, &evicted);
  HeartbeatRow row;
  row.name = name;
  int64_t allocs = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < rounds; ++i) {
    const int64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    if (!client.TryHeartbeat(/*replica=*/0, /*iteration=*/i,
                             /*wall_ms=*/12.5, &evicted) ||
        evicted) {
      std::printf("!! heartbeat %d not delivered\n", i);
    }
    allocs += g_allocs.load(std::memory_order_relaxed) - allocs0;
  }
  row.heartbeat_ms = MsSince(t0) / rounds;
  row.heartbeat_allocs = static_cast<double>(allocs) / rounds;
  return row;
}

// Recovery latency: the detect -> re-publish hop of the failure control loop
// (bench/README.md "Failure recovery"). An executor vanishes with `backlog`
// plans still unfetched; the monitor declares it dead (an unclean
// connection drop is death) and the FleetCoordinator moves the backlog to
// survivors. The coordinator reposts inside the same call, so the
// OnReplicaDisconnected call spans the whole hop — what a
// trainer stalls for before degraded-mode execution can resume. Reposting is
// a key move on resident bytes (no re-plan, no re-encode), so the per-plan
// cost should stay flat as the backlog grows.
struct RecoveryRow {
  int backlog;
  double recovery_ms = 0.0;
  double per_plan_ms = 0.0;
};

RecoveryRow MeasureRecovery(const sim::ExecutionPlan& plan, int backlog,
                            int rounds) {
  RecoveryRow row;
  row.backlog = backlog;
  for (int r = 0; r < rounds; ++r) {
    // Fresh control plane per round: death is sticky, a dead replica cannot
    // be re-killed. Setup (pushes, attach) stays outside the timed window.
    runtime::InstructionStore store(
        runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
    service::FleetOptions fleet_opts;
    fleet_opts.replicas = {0, 1, 2};
    fleet_opts.spare_iteration_base = backlog;
    service::FleetCoordinator fleet(&store, {}, fleet_opts);
    for (int i = 0; i < backlog; ++i) {
      store.Push(i, /*replica=*/1, plan);
    }
    fleet.OnReplicaAttached(1);
    const auto t0 = std::chrono::steady_clock::now();
    fleet.OnReplicaDisconnected(/*replica=*/1, /*clean=*/false);
    row.recovery_ms += MsSince(t0);
    const service::FleetReport report = fleet.report();
    if (report.replanned_iterations != backlog) {
      std::printf("!! recovery moved %lld of %d plans\n",
                  static_cast<long long>(report.replanned_iterations),
                  backlog);
    }
  }
  row.recovery_ms /= rounds;
  row.per_plan_ms = row.recovery_ms / backlog;
  return row;
}

// Elastic membership latency: the two mid-epoch fleet-change hops
// (bench/README.md "Elastic membership"). Join: an unknown replica turns
// alive and the FleetCoordinator admits it, grows the expected fleet,
// and steals the joiner's fair share of the deepest backlog to its spare
// keys — the OnReplicaAttached call spans the whole admission, i.e. the
// delay before the joiner has work to find. Drain: a member asks to leave
// and the coordinator drops it from the member set, reposts its remaining
// backlog round-robin to the survivors, and acknowledges — the
// OnReplicaDrainRequested call spans request -> ack, the time a leaver
// waits before it may finish in-flight work and detach. Both hops are key
// moves on resident bytes (no re-plan, no re-encode), so per-plan cost
// should stay flat like recovery's.
struct MembershipRow {
  int backlog;
  double join_ms = 0.0;
  int64_t join_stolen = 0;
  double drain_ms = 0.0;
  int64_t drain_reposted = 0;
};

MembershipRow MeasureMembership(const sim::ExecutionPlan& plan, int backlog,
                                int rounds) {
  MembershipRow row;
  row.backlog = backlog;
  for (int r = 0; r < rounds; ++r) {
    // Fresh control plane per round: membership is sticky too (a replica
    // joins once). Setup (pushes) stays outside the timed windows.
    runtime::InstructionStore store(
        runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
    service::FleetOptions fleet_opts;
    fleet_opts.replicas = {0, 1, 2};
    fleet_opts.spare_iteration_base = backlog;
    fleet_opts.membership = true;
    service::FleetCoordinator fleet(&store, {}, fleet_opts);
    for (int i = 0; i < backlog; ++i) {
      store.Push(i, /*replica=*/1, plan);
    }
    // Join admission: alive -> admitted, expected grown, fair share stolen.
    auto t0 = std::chrono::steady_clock::now();
    fleet.OnReplicaAttached(3);
    row.join_ms += MsSince(t0);
    // Drain handoff: request -> leave the member set -> repost to
    // survivors -> ack.
    t0 = std::chrono::steady_clock::now();
    fleet.OnReplicaDrainRequested(1);
    row.drain_ms += MsSince(t0);
    const service::FleetReport report = fleet.report();
    const int64_t stolen = backlog / 4;  // fair share of the 4-strong fleet
    if (report.join_stolen != stolen ||
        report.drain_reposted != backlog - stolen) {
      std::printf("!! membership moved %lld + %lld of %d plans\n",
                  static_cast<long long>(report.join_stolen),
                  static_cast<long long>(report.drain_reposted),
                  backlog);
    }
    row.join_stolen = report.join_stolen;
    row.drain_reposted = report.drain_reposted;
  }
  row.join_ms /= rounds;
  row.drain_ms /= rounds;
  return row;
}

// Observability overhead: what one instrument operation costs armed vs
// disarmed (docs/OBSERVABILITY.md "Cost discipline"). The disarmed rows are
// the budget holders: one relaxed load and a branch, zero allocations — in
// particular the shm publish row must show no extra allocations with
// everything disarmed.
struct OverheadRow {
  const char* name;
  double armed_ns = 0.0;
  double disarmed_ns = 0.0;
  double armed_allocs = 0.0;
  double disarmed_allocs = 0.0;
};

// ns and allocations per op. The ops have atomic side effects when armed;
// the barrier keeps the disarmed loops from folding to nothing.
template <typename Op>
std::pair<double, double> MeasureOpNs(Op&& op, int iters) {
  const int64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    op(i);
    asm volatile("" ::: "memory");
  }
  const double ns = MsSince(t0) * 1e6 / iters;
  const double allocs =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - allocs0) /
      iters;
  return {ns, allocs};
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::max(1, std::atoi(argv[1])) : 300;
  // One representative plan from the bench epoch (GPT-3.35B, 4 stages,
  // 65k-token batch): a realistic instruction stream, not a toy.
  const auto cost_model = cost::PipelineCostModel::Profile(
      model::ModelConfig::Gpt3_35B(), model::HardwareSpec{}, {1, 1, 4},
      bench::BenchProfile());
  runtime::IterationPlanner planner(cost_model, bench::BenchPlanner());
  const data::Dataset dataset = bench::BenchDataset();
  data::MiniBatchSamplerOptions sopts;
  sopts.global_batch_tokens = 65'536;
  sopts.max_input_len = 2048;
  data::MiniBatchSampler sampler(dataset, sopts);
  runtime::IterationPlan plan = planner.PlanIteration(sampler.Next());
  if (!plan.feasible) {
    std::printf("planning failed: %s\n", plan.infeasible_reason.c_str());
    return 1;
  }
  const sim::ExecutionPlan& exec = plan.replicas[0].exec_plan;
  size_t instructions = 0;
  for (const auto& dev : exec.devices) {
    instructions += dev.instructions.size();
  }
  const std::string encoded = service::EncodeExecutionPlan(exec);
  std::printf("plan: %d microbatches, %d devices, %zu instructions, "
              "%zu encoded bytes\n\n",
              exec.num_microbatches, exec.num_devices(), instructions,
              encoded.size());

  std::vector<Row> rows;
  {
    runtime::InstructionStore store;
    rows.push_back(Measure("in-process", store, exec, rounds));
  }
  {
    runtime::InstructionStore store(
        runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
    rows.push_back(Measure("in-process serde", store, exec, rounds));
  }
  {
    auto store = transport::ShmInstructionStore::Create(
        "/dynapipe-bench-" + std::to_string(::getpid()),
        transport::ShmStoreOptions{});
    rows.push_back(Measure("shm store", *store, exec, rounds));
  }
  {
    auto store = transport::ShmInstructionStore::Create(
        "/dynapipe-bench-view-" + std::to_string(::getpid()),
        transport::ShmStoreOptions{});
    rows.push_back(MeasureShmView(*store, exec, rounds));
  }

  std::printf("%-20s | %9s | %9s | %10s | %11s | %12s\n", "backend", "push ms",
              "fetch ms", "round trip", "push allocs", "fetch allocs");
  std::printf("---------------------+-----------+-----------+------------+"
              "-------------+-------------\n");
  for (const Row& row : rows) {
    std::printf("%-20s | %9.4f | %9.4f | %10.4f | %11.1f | %12.1f\n", row.name,
                row.push_ms, row.fetch_ms, row.push_ms + row.fetch_ms,
                row.push_allocs, row.fetch_allocs);
  }
  std::printf(
      "\n(%d rounds per backend; shm rows never touch a wire; alloc columns "
      "are heap allocations per operation in this process)\n",
      rounds);

  // Heartbeat overhead per iteration over the socket. (Shm heartbeats are
  // slot stamps replayed by a poller — no request/reply to time here.)
  std::vector<HeartbeatRow> hb_rows;
  {
    service::HeartbeatMonitor monitor;
    runtime::InstructionStore store(
        runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
    store.set_heartbeat_sink(&monitor);
    transport::UnixSocketTransport transport(
        "/tmp/dynapipe-bench-hbmux-" + std::to_string(::getpid()) + ".sock");
    transport::InstructionStoreServer server(&transport, &store);
    {
      auto client = transport::MuxInstructionStore::OverTransport(&transport);
      hb_rows.push_back(MeasureHeartbeat("unix socket mux", *client, rounds));
    }
    server.Stop();
  }
  std::printf("\n%-20s | %12s | %16s\n", "heartbeat backend", "heartbeat ms",
              "heartbeat allocs");
  std::printf("---------------------+--------------+-----------------\n");
  for (const HeartbeatRow& row : hb_rows) {
    std::printf("%-20s | %12.4f | %16.1f\n", row.name, row.heartbeat_ms,
                row.heartbeat_allocs);
  }
  std::printf(
      "(one completion report per iteration, round-tripped into a live "
      "HeartbeatMonitor)\n");

  // Recovery latency: detect -> re-publish for a vanished replica's backlog.
  std::vector<RecoveryRow> rec_rows;
  for (const int backlog : {1, 8, 64}) {
    rec_rows.push_back(MeasureRecovery(exec, backlog, std::min(rounds, 50)));
  }
  std::printf("\n%-20s | %12s | %12s\n", "dead-replica backlog", "recovery ms",
              "per plan ms");
  std::printf("---------------------+--------------+--------------\n");
  for (const RecoveryRow& row : rec_rows) {
    std::printf("%-20d | %12.4f | %12.4f\n", row.backlog, row.recovery_ms,
                row.per_plan_ms);
  }
  std::printf(
      "(unclean connection drop -> death declared -> backlog re-published to "
      "2 survivors; reposts are key moves on resident bytes, no re-encode)\n");

  // Elastic membership: join-admission and drain-handoff latency.
  std::vector<MembershipRow> mem_rows;
  for (const int backlog : {4, 16, 64}) {
    mem_rows.push_back(MeasureMembership(exec, backlog, std::min(rounds, 50)));
  }
  std::printf("\n%-20s | %12s | %8s | %15s | %9s\n", "mid-epoch backlog",
              "join adm ms", "stolen", "drain handoff ms", "reposted");
  std::printf("---------------------+--------------+----------+"
              "-----------------+----------\n");
  for (const MembershipRow& row : mem_rows) {
    std::printf("%-20d | %12.4f | %8lld | %15.4f | %9lld\n", row.backlog,
                row.join_ms, static_cast<long long>(row.join_stolen),
                row.drain_ms, static_cast<long long>(row.drain_reposted));
  }
  std::printf(
      "(join = unknown replica turns alive -> admitted + fair share of the "
      "deepest backlog stolen to its spare keys; drain = request -> member "
      "set shrinks -> remaining backlog reposted to survivors -> ack; both "
      "are key moves on "
      "resident bytes)\n");

  // Observability overhead. Ordering matters: the shm publish rows run
  // before the trace-span row enables tracing, because tracer enablement is
  // sticky — so "armed" here means metrics armed, tracing off (the
  // steady-state production configuration), and "disarmed" means everything
  // off.
  std::vector<OverheadRow> ov_rows;
  {
    common::MetricsRegistry& reg = common::MetricsRegistry::Instance();
    common::Counter& counter = reg.GetCounter("bench_overhead_total");
    common::LatencyHistogram& hist = reg.GetHistogram("bench_overhead_us");
    constexpr int kOps = 4'000'000;
    const auto measure_metric = [&](const char* name, auto&& op) {
      OverheadRow row;
      row.name = name;
      common::Metrics::set_enabled(true);
      std::tie(row.armed_ns, row.armed_allocs) = MeasureOpNs(op, kOps);
      common::Metrics::set_enabled(false);
      std::tie(row.disarmed_ns, row.disarmed_allocs) = MeasureOpNs(op, kOps);
      common::Metrics::set_enabled(true);
      ov_rows.push_back(row);
    };
    measure_metric("counter add", [&](int) { counter.Add(); });
    measure_metric("histogram record",
                   [&](int i) { hist.RecordUs(i & 1023); });
    measure_metric("latency timer", [&](int) {
      const common::LatencyTimer timer;
      timer.ObserveInto(hist);
    });

    // The shm publish path, armed vs disarmed (µs-scale; shown in ns for
    // one table). The disarmed row is the ≤5%-regression / 0-extra-allocs
    // budget from the acceptance criteria.
    {
      OverheadRow row;
      row.name = "shm publish";
      int shm_tag = 0;
      const auto measure_shm = [&] {
        auto store = transport::ShmInstructionStore::Create(
            "/dynapipe-bench-ov-" + std::to_string(::getpid()) + "-" +
                std::to_string(shm_tag++),
            transport::ShmStoreOptions{});
        store->Push(-1, 0, exec);
        store->Fetch(-1, 0);  // warm: scratch + arena touched
        int64_t allocs = 0;
        double ms = 0.0;
        for (int i = 0; i < rounds; ++i) {
          const int64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
          const auto t0 = std::chrono::steady_clock::now();
          store->Push(i, 0, exec);
          ms += MsSince(t0);
          allocs += g_allocs.load(std::memory_order_relaxed) - allocs0;
          store->Fetch(i, 0);  // drain the slot, untimed
        }
        return std::pair<double, double>(ms * 1e6 / rounds,
                                         static_cast<double>(allocs) / rounds);
      };
      common::Metrics::set_enabled(true);
      std::tie(row.armed_ns, row.armed_allocs) = measure_shm();
      common::Metrics::set_enabled(false);
      std::tie(row.disarmed_ns, row.disarmed_allocs) = measure_shm();
      common::Metrics::set_enabled(true);
      ov_rows.push_back(row);
    }

    // Trace span last: enabling the tracer is process-sticky. Disarmed
    // (tracing off) measured first; armed records into this thread's ring.
    {
      OverheadRow row;
      row.name = "trace span";
      std::tie(row.disarmed_ns, row.disarmed_allocs) = MeasureOpNs(
          [](int i) { common::TraceSpan span("bench", "bench", i); }, kOps);
      common::Tracer::Instance().EnableToPath("/dev/null");
      std::tie(row.armed_ns, row.armed_allocs) = MeasureOpNs(
          [](int i) { common::TraceSpan span("bench", "bench", i); }, kOps);
      ov_rows.push_back(row);
    }
  }
  std::printf("\n%-20s | %11s | %13s | %12s | %15s\n", "instrument",
              "armed ns/op", "disarmed ns/op", "armed allocs",
              "disarmed allocs");
  std::printf("---------------------+-------------+---------------+"
              "--------------+----------------\n");
  for (const OverheadRow& row : ov_rows) {
    std::printf("%-20s | %11.1f | %13.1f | %12.2f | %15.2f\n", row.name,
                row.armed_ns, row.disarmed_ns, row.armed_allocs,
                row.disarmed_allocs);
  }
  std::printf(
      "(disarmed = one relaxed load + branch; shm publish rows are the full "
      "encode-into-arena push of the bench plan, metrics armed vs off — the "
      "alloc columns must match, instrumentation adds none; trace span armed "
      "writes a ring entry + two clock reads, no file I/O)\n");
  return 0;
}
