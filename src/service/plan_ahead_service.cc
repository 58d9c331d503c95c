#include "src/service/plan_ahead_service.h"

#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/common/thread_pool.h"
#include "src/common/timing.h"
#include "src/common/trace.h"
#include "src/service/plan_cache.h"

namespace dynapipe::service {

namespace {
// Process-wide plan-ahead instruments, resolved once (registration locks the
// registry; the references stay valid for the life of the process).
struct PlanAheadMetrics {
  common::Counter& cache_hits;
  common::Counter& cache_misses;
  // Planned-but-not-yet-delivered slots — the lookahead pipeline's fill.
  common::Gauge& queue_depth;
  common::LatencyHistogram& planning_us;
  common::LatencyHistogram& partition_us;
  common::LatencyHistogram& schedule_us;
  // Time NextPlan spent blocked per delivery — the latency planning failed
  // to hide. A warm pipeline's histogram sits in the lowest buckets.
  common::LatencyHistogram& stall_us;

  static PlanAheadMetrics& Get() {
    static PlanAheadMetrics m = [] {
      common::MetricsRegistry& r = common::MetricsRegistry::Instance();
      return PlanAheadMetrics{r.GetCounter("planahead_cache_hits_total"),
                              r.GetCounter("planahead_cache_misses_total"),
                              r.GetGauge("planahead_queue_depth"),
                              r.GetHistogram("planahead_planning_us"),
                              r.GetHistogram("planahead_partition_us"),
                              r.GetHistogram("planahead_schedule_us"),
                              r.GetHistogram("planahead_stall_us")};
    }();
    return m;
  }
};
}  // namespace

PlanAheadService::PlanAheadService(PlanFn plan_fn, MiniBatchSource source,
                                   PlanAheadOptions options)
    : plan_fn_(std::move(plan_fn)), source_(std::move(source)),
      options_(std::move(options)),
      store_(options_.store != nullptr
                 ? options_.store
                 : std::make_shared<runtime::InstructionStore>(
                       runtime::InstructionStoreOptions{
                           options_.serialize_plans, options_.store_capacity})) {
  DYNAPIPE_CHECK(plan_fn_ != nullptr);
  DYNAPIPE_CHECK(source_ != nullptr);
  DYNAPIPE_CHECK(options_.lookahead >= 0);
  DYNAPIPE_CHECK_MSG(options_.lookahead == 0 || options_.pool != nullptr,
                     "plan-ahead lookahead > 0 needs a ThreadPool");
}

PlanAheadService::~PlanAheadService() { Shutdown(); }

void PlanAheadService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
  }
  cv_.notify_all();
  // Unblock anything stuck in a full store; its plans are dropped.
  store_->Shutdown();
  std::unique_lock<std::mutex> lock(mu_);
  while (in_flight_ != 0) {
    if (options_.pool != nullptr) {
      // In-flight tasks may still be queued, unstarted — and this thread may
      // itself be a pool worker (grid search runs whole epochs on the shared
      // pool), so waiting without draining could leave nobody to run them.
      // Same discipline as NextPlan's wait.
      lock.unlock();
      const bool ran = options_.pool->RunPendingTask();
      lock.lock();
      if (!ran) {
        cv_.wait_for(lock, std::chrono::milliseconds(10));
      }
    } else {
      cv_.wait(lock);
    }
  }
}

std::optional<std::vector<data::Sample>> PlanAheadService::PullMiniBatch() {
  std::vector<data::Sample> mb = source_();
  if (mb.empty()) {
    return std::nullopt;
  }
  return mb;
}

void PlanAheadService::TopUp() {
  if (options_.lookahead <= 0) {
    return;
  }
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_ || source_drained_ ||
          next_submit_ - next_deliver_ >=
              static_cast<int64_t>(options_.lookahead)) {
        return;
      }
    }
    // Pull outside the lock: the source is consumer-thread-only and may be
    // expensive (sampling, truncation).
    std::optional<std::vector<data::Sample>> mb = PullMiniBatch();
    int64_t iteration;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!mb.has_value()) {
        source_drained_ = true;
        cv_.notify_all();
        return;
      }
      iteration = next_submit_++;
      ++in_flight_;
    }
    options_.pool->Submit([this, iteration, m = std::move(*mb)]() mutable {
      RunIteration(iteration, std::move(m));
    });
  }
}

void PlanAheadService::RunIteration(int64_t iteration,
                                    std::vector<data::Sample> minibatch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      // Teardown in progress: the consumer will never deliver this slot, so
      // skip the planning work entirely.
      --in_flight_;
      cv_.notify_all();
      return;
    }
  }

  const auto start = SteadyClock::now();
  // The "planned" span covers cache lookup + planning + rebind; replica −1
  // because one planning pass covers every replica of the iteration. Ended
  // explicitly before the publish (which has its own "published" spans).
  std::optional<common::TraceSpan> planned_span;
  planned_span.emplace("planned", "plan", iteration, -1);
  runtime::IterationPlan plan;
  bool cache_hit = false;
  PlanCache* cache = options_.plan_cache.get();
  // A planning exception must not escape: the slot would never be marked
  // planned and the consumer (and Shutdown) would wait forever. Convert it to
  // an infeasible plan so the trainer surfaces it as a failed epoch — the
  // same observable outcome the old inline path's rethrow produced.
  try {
    if (cache != nullptr) {
      const PlanSignature sig = PlanCache::Signature(
          minibatch, options_.fold_target_lengths, options_.config_hash);
      std::optional<runtime::IterationPlan> cached =
          cache->Lookup(sig, minibatch, options_.fold_target_lengths);
      if (cached.has_value()) {
        plan = std::move(*cached);
        // The hit skipped partitioning/scheduling entirely; report the lookup
        // cost and zeroed phase counters so IterationRecord shows the skip.
        plan.stats = runtime::PlanningStats{};
        plan.planning_time_ms = ElapsedMs(start);
        cache_hit = true;
      } else {
        plan = plan_fn_(minibatch);
        cache->Insert(sig, plan);
      }
    } else {
      plan = plan_fn_(minibatch);
    }
  } catch (const std::exception& e) {
    plan = runtime::IterationPlan{};
    plan.infeasible_reason = std::string("planning threw: ") + e.what();
    cache_hit = false;
  } catch (...) {
    plan = runtime::IterationPlan{};
    plan.infeasible_reason = "planning threw an unknown exception";
    cache_hit = false;
  }
  planned_span.reset();

  PlanAheadMetrics& metrics = PlanAheadMetrics::Get();
  if (cache != nullptr) {
    (cache_hit ? metrics.cache_hits : metrics.cache_misses).Add();
  }
  metrics.planning_us.RecordMs(ElapsedMs(start));
  if (!cache_hit) {
    // Phase split from the planner's own stopwatch; a cache hit skipped both
    // phases, so recording its zeros would just distort the distributions.
    metrics.partition_us.RecordMs(plan.stats.partition_ms);
    metrics.schedule_us.RecordMs(plan.stats.schedule_ms);
  }

  std::unique_lock<std::mutex> lock(mu_);
  Slot& slot = slots_[iteration];
  slot.plan = std::move(plan);
  slot.cache_hit = cache_hit;
  slot.planned = true;
  if (cache != nullptr) {
    ++(cache_hit ? stats_.plan_cache_hits : stats_.plan_cache_misses);
  }
  metrics.queue_depth.Set(static_cast<int64_t>(slots_.size()));
  PublishLocked(lock);
  --in_flight_;
  cv_.notify_all();
}

void PlanAheadService::PublishLocked(std::unique_lock<std::mutex>& lock) {
  // In-order publisher: whichever thread completes the frontier iteration
  // drains every consecutive planned slot; `publishing_` keeps the order
  // deterministic while the lock is released around store pushes. The
  // publisher must never block inside Push: the consumer itself publishes
  // when it help-drains a planning task, and a consumer wedged on a full
  // store is the one thread whose fetches could have freed it. Instead,
  // publishing defers when the store lacks headroom and resumes from
  // FetchExecPlan once capacity frees (only the publisher grows the store and
  // only fetches shrink it, so the headroom check cannot race into a block).
  while (!publishing_) {
    const auto it = slots_.find(next_publish_);
    if (it == slots_.end() || !it->second.planned) {
      return;
    }
    const size_t num_plans =
        it->second.plan.feasible ? it->second.plan.replicas.size() : 0;
    DYNAPIPE_CHECK_MSG(options_.store_capacity == 0 ||
                           options_.store_capacity >= num_plans,
                       "instruction store capacity below one iteration's "
                       "replica count can never publish");
    if (options_.store_capacity != 0 &&
        resident_plans_ + num_plans > options_.store_capacity) {
      return;  // deferred until the consumer fetches
    }
    publishing_ = true;
    std::vector<sim::ExecutionPlan> exec_plans;
    exec_plans.reserve(num_plans);
    for (size_t d = 0; d < num_plans; ++d) {
      exec_plans.push_back(std::move(it->second.plan.replicas[d].exec_plan));
      it->second.plan.replicas[d].exec_plan = sim::ExecutionPlan{};
    }
    const int64_t iteration = next_publish_;
    lock.unlock();
    for (size_t d = 0; d < exec_plans.size(); ++d) {
      store_->Push(iteration, static_cast<int32_t>(d),
                  std::move(exec_plans[d]));
    }
    lock.lock();
    // The slot iterator stays valid: only the consumer erases slots, and it
    // waits for `published` below.
    resident_plans_ += exec_plans.size();
    it->second.published = true;
    ++next_publish_;
    publishing_ = false;
    cv_.notify_all();
  }
}

std::optional<ServicedPlan> PlanAheadService::NextPlan() {
  const auto start = SteadyClock::now();
  TopUp();
  if (options_.lookahead <= 0) {
    // Inline mode: plan the next iteration synchronously on this thread. The
    // whole planning latency is stall — nothing hides it.
    bool have_work = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      have_work = !stopped_ && !source_drained_;
    }
    if (have_work) {
      std::optional<std::vector<data::Sample>> mb = PullMiniBatch();
      std::unique_lock<std::mutex> lock(mu_);
      if (!mb.has_value()) {
        source_drained_ = true;
      } else {
        const int64_t iteration = next_submit_++;
        ++in_flight_;
        lock.unlock();
        RunIteration(iteration, std::move(*mb));
      }
    }
  }

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopped_) {
      // Shutdown may have skipped or dropped in-flight iterations (and their
      // store entries); delivering a partial pipeline would hand out plans
      // whose exec plans are gone.
      return std::nullopt;
    }
    const auto it = slots_.find(next_deliver_);
    if (it != slots_.end() && it->second.published) {
      ServicedPlan out;
      out.iteration = next_deliver_;
      out.plan = std::move(it->second.plan);
      out.plan_cache_hit = it->second.cache_hit;
      out.stall_ms = ElapsedMs(start);
      slots_.erase(it);
      ++next_deliver_;
      ++stats_.plans_delivered;
      stats_.stall_ms_total += out.stall_ms;
      PlanAheadMetrics& metrics = PlanAheadMetrics::Get();
      metrics.stall_us.RecordMs(out.stall_ms);
      metrics.queue_depth.Set(static_cast<int64_t>(slots_.size()));
      return out;
    }
    if (source_drained_ && next_submit_ == next_deliver_) {
      return std::nullopt;
    }
    if (options_.pool != nullptr) {
      // The consumer may itself be a pool worker (grid search fans whole
      // epochs over the same pool the services submit to): waiting outright
      // could leave every thread blocked here with the planning tasks stuck
      // in the queue. Help drain it, like ParallelFor's waiters; once the
      // queue is dry, sleep with a timeout hedge.
      lock.unlock();
      const bool ran = options_.pool->RunPendingTask();
      lock.lock();
      if (!ran) {
        cv_.wait_for(lock, std::chrono::milliseconds(10));
      }
    } else {
      cv_.wait(lock);
    }
  }
}

sim::ExecutionPlan PlanAheadService::FetchExecPlan(int64_t iteration,
                                                   int32_t replica) {
  sim::ExecutionPlan plan = store_->Fetch(iteration, replica);
  // The fetch may have freed the headroom a deferred publish is waiting for.
  std::unique_lock<std::mutex> lock(mu_);
  if (resident_plans_ > 0) {
    --resident_plans_;
  }
  PublishLocked(lock);
  return plan;
}

PlanAheadServiceStats PlanAheadService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanAheadServiceStats out = stats_;
  out.published_bytes = store_->serialized_bytes_total();
  return out;
}

}  // namespace dynapipe::service
