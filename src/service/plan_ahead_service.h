// Plan-ahead service: pipelined cross-iteration planning with serialized
// instruction distribution.
//
// DynaPipe hides per-iteration planning behind GPU execution (§3, Fig. 17):
// dataloader-side workers plan future iterations ahead of time, serialize the
// resulting instruction streams into a shared store, and executors fetch them
// when each iteration starts. PlanAheadService is that pipeline as a single
// component — the only way the trainer obtains plans:
//
//   mini-batch source -> [plan cache?] -> planner tasks on a shared ThreadPool
//                     -> in-order publish into InstructionStore (serialized?)
//                     -> NextPlan() / FetchExecPlan() consumers
//
// Properties:
//   - Bounded lookahead window: at most `lookahead` iterations exist beyond
//     the delivered frontier (backpressure on the source); `lookahead == 0`
//     degrades to inline synchronous planning — the trainer's old inline and
//     threaded paths are this one code path at different depths.
//   - Deterministic publish order: plans enter the store in iteration order
//     regardless of task completion order, so the store's publish-before-fetch
//     contract holds under any interleaving and results are bit-identical to
//     serial planning.
//   - Shared pool: plan-ahead tasks run on the same ThreadPool the planner
//     fans its per-t_max DPs and recompute modes onto, so iteration i+1's
//     window precompute overlaps iteration i's candidate sweep without a
//     second thread herd (nested fan-outs are deadlock-free, see ParallelFor).
//   - Optional cross-iteration PlanCache: recurring batch signatures skip
//     planning entirely (see plan_cache.h).
#ifndef DYNAPIPE_SRC_SERVICE_PLAN_AHEAD_SERVICE_H_
#define DYNAPIPE_SRC_SERVICE_PLAN_AHEAD_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/data/dataset.h"
#include "src/runtime/instruction_store.h"
#include "src/runtime/planner.h"

namespace dynapipe {
class ThreadPool;
}  // namespace dynapipe

namespace dynapipe::service {

class PlanCache;

struct PlanAheadOptions {
  // Iterations planned ahead of the delivered frontier. 0 plans inline on the
  // calling thread; > 0 requires `pool`.
  int32_t lookahead = 0;
  ThreadPool* pool = nullptr;
  // Cross-iteration plan cache; null disables caching. May be shared across
  // services/epochs (that is how epoch 2 hits epoch 1's plans).
  std::shared_ptr<PlanCache> plan_cache;
  // Folded into every cache signature; must pin everything the plan depends
  // on besides the batch itself (model, hardware, parallelism, planner knobs).
  uint64_t config_hash = 0;
  // Canonicalization applied to signatures and rebound samples; mirrors the
  // planner's decoder-only folding.
  bool fold_target_lengths = false;
  // Instruction store mode: serialize plans through the binary plan_serde
  // format, and bound resident plans (Push backpressure). capacity must be at
  // least the number of replicas of one iteration.
  bool serialize_plans = false;
  size_t store_capacity = 0;
  // Store backend override. Null (default): the service owns an in-process
  // InstructionStore built from the two knobs above. Non-null: plans publish
  // to this store instead — e.g. a transport::RemoteInstructionStore fronting
  // another process — and serialize_plans is ignored (a remote backend always
  // serializes). store_capacity must still mirror the backend's actual
  // capacity: the publisher uses it to defer (rather than block in) pushes
  // that would exceed it, which is what keeps a consumer that help-drains
  // planning tasks from wedging against its own unfetched plans.
  std::shared_ptr<runtime::InstructionStoreInterface> store;
};

// One delivered iteration. The execution plans have already been published to
// the store — fetch them with FetchExecPlan; `plan.replicas[*].exec_plan` is
// empty here.
struct ServicedPlan {
  int64_t iteration = 0;
  runtime::IterationPlan plan;
  bool plan_cache_hit = false;
  // Time NextPlan spent waiting for this plan — the planning latency the
  // executor could not hide (inline planning counts fully; a warm pipeline
  // reports ~0).
  double stall_ms = 0.0;
};

struct PlanAheadServiceStats {
  int64_t plans_delivered = 0;
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  double stall_ms_total = 0.0;
  // Cumulative encoded plan bytes (serialized mode only).
  int64_t published_bytes = 0;
};

class PlanAheadService {
 public:
  using PlanFn =
      std::function<runtime::IterationPlan(const std::vector<data::Sample>&)>;
  // Returns the next mini-batch; an empty vector means the source is drained.
  using MiniBatchSource = std::function<std::vector<data::Sample>()>;

  PlanAheadService(PlanFn plan_fn, MiniBatchSource source,
                   PlanAheadOptions options);
  ~PlanAheadService();

  PlanAheadService(const PlanAheadService&) = delete;
  PlanAheadService& operator=(const PlanAheadService&) = delete;

  // Blocks until the next iteration's plan is planned and published, topping
  // up the lookahead window first. Returns nullopt once the source drains.
  // Must be called from one consumer thread (the source is pulled here).
  std::optional<ServicedPlan> NextPlan();

  // Fetches (and, in serialized mode, decodes) one replica's published
  // execution plan. Valid only after NextPlan returned that iteration.
  sim::ExecutionPlan FetchExecPlan(int64_t iteration, int32_t replica);

  // Stops the pipeline: unblocks publishers, lets in-flight tasks finish, and
  // drops their output. Called by the destructor; safe to call early when the
  // consumer aborts mid-epoch.
  void Shutdown();

  const runtime::InstructionStoreInterface& store() const { return *store_; }
  PlanAheadServiceStats stats() const;

 private:
  struct Slot {
    runtime::IterationPlan plan;
    bool cache_hit = false;
    bool planned = false;
    bool published = false;
  };

  // Plans iteration `iteration` (cache lookup, plan_fn, rebind), deposits the
  // result, and drives the in-order publisher. Runs on pool workers, or on
  // the consumer thread when lookahead == 0.
  void RunIteration(int64_t iteration, std::vector<data::Sample> minibatch);
  // Publishes consecutive planned slots starting at next_publish_, releasing
  // the lock around store pushes. At most one thread publishes at a time, and
  // publishing never blocks on a full store — it defers and resumes from
  // FetchExecPlan when capacity frees.
  void PublishLocked(std::unique_lock<std::mutex>& lock);
  // Pulls mini-batches and submits planning tasks until the window is full.
  void TopUp();
  // Next non-empty mini-batch, or nullopt when drained. Consumer thread only.
  std::optional<std::vector<data::Sample>> PullMiniBatch();

  PlanFn plan_fn_;
  MiniBatchSource source_;
  PlanAheadOptions options_;
  // options_.store, or the service-owned in-process store. Everything below
  // this line is backend-agnostic.
  std::shared_ptr<runtime::InstructionStoreInterface> store_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<int64_t, Slot> slots_;
  int64_t next_submit_ = 0;
  int64_t next_publish_ = 0;
  int64_t next_deliver_ = 0;
  // Plans resident in the store, tracked locally: the service is the store's
  // only producer and FetchExecPlan its only consumer, so this mirrors
  // store().size() without querying it — which for a remote backend would be
  // a network round trip under mu_.
  size_t resident_plans_ = 0;
  int32_t in_flight_ = 0;
  bool publishing_ = false;
  bool source_drained_ = false;
  bool stopped_ = false;
  PlanAheadServiceStats stats_;
};

}  // namespace dynapipe::service

#endif  // DYNAPIPE_SRC_SERVICE_PLAN_AHEAD_SERVICE_H_
