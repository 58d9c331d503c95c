// Plan distribution: the control-plane and instrument costs that the
// end-to-end benchmark cannot see.
//
// bench/e2e already times every distribution hop where it runs: the
// publish/fetch hop of each backend (store.push_us_* / store.fetch_us_* on
// t5-inline, gpt-shm-* and gpt-mux-replay) and the heartbeat exchange
// (heartbeat.us_mean on every workload). What stays here is what a healthy
// run never exercises or cannot isolate:
//
//   recovery     a dead replica's backlog reposted by the FleetCoordinator
//   membership   a joiner's admission and a drainer's handoff
//   instruments  one metric / trace operation armed vs disarmed, and the shm
//                publish path's allocations with metrics armed vs off
//
// The allocation columns count heap allocations per operation (global
// operator new interposition). Pass an integer argv[1] to override the round
// count (CI smoke runs use a handful of rounds).
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
#include "src/service/plan_serde.h"
#include "src/transport/shm_store.h"

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
// alive and the FleetCoordinator admits it and grows the expected fleet —
// the OnReplicaAttached call spans the admission, which moves no plan.
// Drain: a member asks to leave and the coordinator drops it from the
// member set, reposts its remaining backlog round-robin to the survivors
// (the joiner among them), and acknowledges — the OnReplicaDrainRequested
// call spans request -> ack, the time a leaver waits before it may finish
// in-flight work and detach. The handoff is key moves on resident bytes
// (no re-plan, no re-encode), so per-plan cost should stay flat like
// recovery's.
struct MembershipRow {
  int backlog;
  double join_ms = 0.0;
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
    service::FleetCoordinator fleet(&store, {}, fleet_opts);
    for (int i = 0; i < backlog; ++i) {
      store.Push(i, /*replica=*/1, plan);
    }
    // Join admission: alive -> admitted, expected grown.
    auto t0 = std::chrono::steady_clock::now();
    fleet.OnReplicaAttached(3);
    row.join_ms += MsSince(t0);
    // Drain handoff: request -> leave the member set -> repost to
    // survivors -> ack.
    t0 = std::chrono::steady_clock::now();
    fleet.OnReplicaDrainRequested(1);
    row.drain_ms += MsSince(t0);
    const service::FleetReport report = fleet.report();
    if (report.drain_reposted != backlog) {
      std::printf("!! drain moved %lld of %d plans\n",
                  static_cast<long long>(report.drain_reposted), backlog);
    }
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
              "%zu encoded bytes\n",
              exec.num_microbatches, exec.num_devices(), instructions,
              encoded.size());

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
  std::printf("\n%-20s | %12s | %15s | %9s\n", "mid-epoch backlog",
              "join adm ms", "drain handoff ms", "reposted");
  std::printf("---------------------+--------------+"
              "-----------------+----------\n");
  for (const MembershipRow& row : mem_rows) {
    std::printf("%-20d | %12.4f | %15.4f | %9lld\n", row.backlog,
                row.join_ms, row.drain_ms,
                static_cast<long long>(row.drain_reposted));
  }
  std::printf(
      "(join = unknown replica turns alive -> admitted, no plan moves; "
      "drain = request -> member set shrinks -> remaining backlog reposted "
      "to survivors and the joiner -> ack, key moves on resident bytes)\n");

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
    // one table). The alloc columns must match: docs/OBSERVABILITY.md
    // "Cost discipline" holds instrumentation to no extra allocation.
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
