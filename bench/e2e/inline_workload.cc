// t5-inline: the default single-process trainer shape, the plain
// single-worker baseline. Trainer::RunEpoch with its default planning (one
// thread, lookahead 0) plans through an in-process serialized instruction
// store and executes on the simulated cluster, so planning sits on the
// critical path (stall == plan time) and the transport stays idle. T5's
// two-dimensional shapes defeat the cost cache, so the DP and schedule do the
// most fresh work of any workload. (A planning pool is left out on purpose:
// on a shared 4-core VM its fan-out speedup swings by +-15% from run to run,
// against +-2% for the serial planner.)
//
// The timed phase runs the trainer in chunks of kChunkIterations, each a
// fresh shuffle, until --seconds pass; the epoch-level Trainer API is the
// surface, so per-layer numbers come from its IterationRecords and, in the
// traced half, from the tracer's span rings.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "bench/e2e/harness.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace dynapipe::bench_e2e {
namespace {

constexpr int32_t kWarmupIterations = 100;
constexpr int32_t kChunkIterations = 64;
constexpr int32_t kDp = 1;
static_assert(kSimWindow % kChunkIterations == 0);

model::ParallelConfig Parallel() { return model::ParallelConfig{kDp, 2, 2}; }

runtime::TrainerOptions EpochOptions(uint64_t sampler_seed,
                                     uint64_t noise_seed,
                                     int32_t iterations) {
  runtime::TrainerOptions opts;
  opts.global_batch_tokens = kBatchTokens;
  opts.max_input_len = kMaxInputLen;
  opts.sampler_seed = sampler_seed;
  opts.noise_seed = noise_seed;
  opts.max_iterations = iterations;
  opts.plan_lookahead = 0;
  opts.serialize_plans = true;
  return opts;
}

struct Fixture {
  data::Dataset dataset;
  std::unique_ptr<runtime::Trainer> trainer;
  double setup_s = 0.0;
};

// Dataset generation, cost-model profiling, and a warm-up epoch on its own
// shuffle.
Fixture SetUp(uint64_t seed, Result* result) {
  Fixture f;
  const int64_t t0 = NowNs();
  f.dataset = bench::BenchDataset(kDatasetSamples, kCorpusSeed);
  f.trainer = std::make_unique<runtime::Trainer>(
      model::ModelConfig::T5_5_5B(), model::HardwareSpec{}, Parallel(),
      bench::BenchProfile());
  const runtime::EpochResult warm = f.trainer->RunEpoch(
      f.dataset, bench::BenchPlanner(),
      EpochOptions(DeriveSeed(seed, 1), DeriveSeed(seed, 2), kWarmupIterations));
  if (!warm.feasible || warm.iterations != kWarmupIterations) {
    result->Fail("warm-up epoch: " + warm.failure);
  }
  f.setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return f;
}

// What one phase of the timed run saw.
struct Phase {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t iterations = 0;
  int64_t real_tokens = 0;
  int64_t heartbeat_reports = 0;
  int64_t plan_cache_hits = 0;
  int64_t serialized_bytes = 0;
  int64_t cost_hits = 0;
  int64_t cost_misses = 0;
  int64_t prefix_hits = 0;
  int64_t prefix_misses = 0;
  std::vector<double> stall_ms;
  std::vector<double> plan_ms;
  std::vector<double> partition_ms;
  std::vector<double> schedule_ms;
  mb::PaddingStats padding;

  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
  double tokens_per_s() const {
    return seconds() > 0.0 ? static_cast<double>(real_tokens) / seconds() : 0.0;
  }
};

// The first kSimWindow timed iterations: simulated throughput and the digest
// of the planner's predicted iteration times (their bit patterns).
struct SimWindow {
  int64_t iterations = 0;
  int64_t real_tokens = 0;
  double sim_ms = 0.0;
  uint64_t digest = 1469598103934665603ull;
};

// Runs chunks until `seconds` have passed since the phase started.
void RunPhase(Fixture& f, uint64_t seed, double seconds, int64_t* chunk,
              Phase* phase, SimWindow* window, Result* result) {
  phase->start_ns = NowNs();
  const int64_t deadline =
      phase->start_ns + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    const runtime::EpochResult r = f.trainer->RunEpoch(
        f.dataset, bench::BenchPlanner(),
        EpochOptions(DeriveSeed(seed, 100 + static_cast<uint64_t>(*chunk)),
                     DeriveSeed(seed, 2), kChunkIterations));
    ScopedAllocPause pause;
    ++*chunk;
    // Every replica's plan of an iteration the epoch did not run failed.
    result->attempted += int64_t{kChunkIterations} * kDp;
    int64_t missing = kChunkIterations - r.iterations;
    if (!r.feasible) {
      missing = std::max<int64_t>(missing, 1);
      result->notes.push_back("infeasible chunk epoch: " + r.failure);
    }
    result->failed += missing * kDp;
    phase->iterations += r.iterations;
    phase->real_tokens += r.real_tokens;
    phase->plan_cache_hits += r.plan_cache_hits;
    phase->serialized_bytes += r.serialized_plan_bytes;
    phase->padding.real_input_tokens += r.padding.real_input_tokens;
    phase->padding.padded_input_tokens += r.padding.padded_input_tokens;
    phase->padding.real_target_tokens += r.padding.real_target_tokens;
    phase->padding.padded_target_tokens += r.padding.padded_target_tokens;
    for (const runtime::IterationRecord& rec : r.records) {
      phase->stall_ms.push_back(rec.plan_stall_ms);
      phase->plan_ms.push_back(rec.planning_ms);
      phase->partition_ms.push_back(rec.partition_ms);
      phase->schedule_ms.push_back(rec.schedule_ms);
      phase->cost_hits += rec.cost_cache_hits;
      phase->cost_misses += rec.cost_cache_misses;
      phase->prefix_hits += rec.prefix_cache_hits;
      phase->prefix_misses += rec.prefix_cache_misses;
      // In-process replicas report their completion to the trainer's
      // heartbeat monitor; a missing report is a failed plan.
      phase->heartbeat_reports += rec.heartbeat_replicas;
      result->failed += kDp - std::min(kDp, rec.heartbeat_replicas);
    }
    if (window->iterations < kSimWindow) {
      // The window is a whole number of chunks, so it is their
      // EpochResult::tokens_per_second() pooled.
      window->iterations += r.iterations;
      window->real_tokens += r.real_tokens;
      window->sim_ms += r.train_time_ms;
      for (const runtime::IterationRecord& rec : r.records) {
        uint64_t bits = 0;
        std::memcpy(&bits, &rec.predicted_ms, sizeof(bits));
        window->digest = Fnv1a(&bits, sizeof(bits), window->digest);
      }
    }
  }
  phase->end_ns = NowNs();
}

// Percentile of a registry latency histogram, interpolated linearly inside
// the power-of-two bucket that holds it (bucket 0 is [0, 1] us, bucket i is
// (2^(i-1), 2^i] us). The trainer's store is reachable only through the
// instruments it records itself, and these time exactly its Push (encode,
// insert, capacity park) and Fetch (remove, decode) calls.
double HistogramQuantileUs(const common::MetricsSnapshot::HistogramValue& h,
                           double p) {
  if (h.count <= 0) {
    return 0.0;
  }
  const double rank = p / 100.0 * static_cast<double>(h.count);
  double below = 0.0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    const auto n = static_cast<double>(h.buckets[i]);
    if (n > 0.0 && below + n >= rank) {
      const double lo =
          i == 0 ? 0.0 : static_cast<double>(int64_t{1} << (i - 1));
      const double hi = static_cast<double>(int64_t{1} << i);
      return lo + (hi - lo) * (rank - below) / n;
    }
    below += n;
  }
  return static_cast<double>(int64_t{1} << (h.buckets.size() - 1));
}

}  // namespace

std::string DescribeInlineWorkload() {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"surface\": \"Trainer::RunEpoch\", \"model\": \"T5-5.5B\", "
      "\"parallel\": {\"dp\": %d, \"tp\": 2, \"pp\": 2}, "
      "\"corpus_seed\": %llu, \"dataset_samples\": %lld, \"global_batch_tokens\": %lld, "
      "\"max_input_len\": %d, \"plan_lookahead\": 0, "
      "\"planning_threads\": 1, \"serialize_plans\": true, "
      "\"store\": \"in-process\", \"plan_cache\": false, "
      "\"warmup_iterations\": %d, \"chunk_iterations\": %d, "
      "\"sim_window\": %lld, \"setup_repeats\": %d}",
      kDp, static_cast<unsigned long long>(kCorpusSeed),
      static_cast<long long>(kDatasetSamples),
      static_cast<long long>(kBatchTokens), kMaxInputLen,
      kWarmupIterations, kChunkIterations,
      static_cast<long long>(kSimWindow), kSetupRepeats);
  return buf;
}

Result RunInlineWorkload(const RunOptions& options) {
  Result result;
  std::vector<double> setup_s;
  Fixture fixture;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fixture = SetUp(options.seed, &result);
    setup_s.push_back(fixture.setup_s);
  }
  result.NoteSetups(setup_s);
  if (!result.correct) {
    return result;
  }

  int64_t chunk = 0;
  SimWindow window;
  Phase untraced;
  RunPhase(fixture, options.seed, options.trace ? options.seconds / 2.0
                                                : options.seconds,
           &chunk, &untraced, &window, &result);
  if (window.iterations > 0) {
    char digest[96];
    std::snprintf(digest, sizeof(digest),
                  "plan_digest %016llx over %lld iterations",
                  static_cast<unsigned long long>(window.digest),
                  static_cast<long long>(window.iterations));
    result.notes.push_back(digest);
  }

  if (!options.trace) {
    result.Add("tokens_per_s", untraced.tokens_per_s(), "tokens/s");
    result.Add("sim_tokens_per_s",
               window.sim_ms > 0.0 ? static_cast<double>(window.real_tokens) /
                                         (window.sim_ms / 1000.0)
                                   : 0.0,
               "tokens/s");
    result.Add("stall_ms_mean", Mean(untraced.stall_ms), "ms");
    result.Add("setup_s", Pct(setup_s, 50.0), "s");
    return result;
  }

  // Traced half: the tracer records every span on the trainer thread, and
  // the allocation and CPU counters cover exactly this phase.
  common::Tracer::Instance().EnableToPath(options.trace_out);
  const common::MetricsSnapshot metrics0 =
      common::MetricsRegistry::Instance().Snapshot();
  const double cpu0 = ProcessCpuMs();
  const int64_t allocs0 = AllocCount();
  ArmAllocCounting(true);
  Phase traced;
  RunPhase(fixture, options.seed, options.seconds / 2.0, &chunk, &traced,
           &window, &result);
  ArmAllocCounting(false);
  const double cpu_ms = ProcessCpuMs() - cpu0;
  const int64_t allocs = AllocCount() - allocs0;
  const common::MetricsSnapshot store_metrics =
      common::MetricsRegistry::Instance().Snapshot().DeltaSince(metrics0);
  const auto store_us = [&](const char* name, double p) {
    const common::MetricsSnapshot::HistogramValue* h =
        store_metrics.histogram(name);
    return h == nullptr ? 0.0 : HistogramQuantileUs(*h, p);
  };
  const std::map<std::string, std::vector<double>> spans = SpanDurationsUs();
  if (!common::Tracer::Instance().WriteMergedTrace()) {
    result.Fail("could not write the trace to " + options.trace_out);
  }
  const auto span = [&](const char* name) -> const std::vector<double>& {
    static const std::vector<double> kNone;
    const auto it = spans.find(name);
    return it == spans.end() ? kNone : it->second;
  };

  const double iterations = static_cast<double>(std::max<int64_t>(1, traced.iterations));
  const double plans = iterations * kDp;
  const auto ratio = [](int64_t num, int64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const double exec_ms = Mean(span("executed")) / 1000.0;
  result.Add("planner.calls", static_cast<double>(traced.plan_ms.size() -
                                                  traced.plan_cache_hits),
             "count");
  result.Add("planner.plan_ms_p50", Pct(traced.plan_ms, 50.0), "ms");
  result.Add("planner.plan_ms_p99", Pct(traced.plan_ms, 99.0), "ms");
  result.Add("mb.partition_ms_p50", Pct(traced.partition_ms, 50.0), "ms");
  result.Add("schedule.schedule_ms_p50", Pct(traced.schedule_ms, 50.0), "ms");
  result.Add("cost.cache_hit_rate",
             ratio(traced.cost_hits, traced.cost_hits + traced.cost_misses),
             "ratio");
  result.Add("mb.prefix_hit_rate",
             ratio(traced.prefix_hits, traced.prefix_hits + traced.prefix_misses),
             "ratio");
  result.Add("mb.padding_efficiency", traced.padding.overall_efficiency(),
             "ratio");
  result.Add("service.next_plan_ms_p50", Pct(traced.stall_ms, 50.0), "ms");
  result.Add("service.next_plan_ms_p99", Pct(traced.stall_ms, 99.0), "ms");
  result.Add("service.plan_cache_hit_rate",
             ratio(traced.plan_cache_hits, traced.iterations), "ratio");
  result.Add("store.push_us_p50", store_us("store_inprocess_push_us", 50.0),
             "us");
  result.Add("store.push_us_p99", store_us("store_inprocess_push_us", 99.0),
             "us");
  result.Add("store.fetch_us_p50", store_us("store_inprocess_fetch_us", 50.0),
             "us");
  result.Add("store.fetch_us_p99", store_us("store_inprocess_fetch_us", 99.0),
             "us");
  result.Add("store.bytes_per_plan",
             static_cast<double>(traced.serialized_bytes) / plans, "bytes");
  result.Add("executor.exec_us_p50", Pct(span("executed"), 50.0), "us");
  result.Add("executor.stall_ms_p99", Pct(traced.stall_ms, 99.0), "ms");
  result.Add("executor.busy_share",
             exec_ms * iterations / (traced.seconds() * 1000.0), "ratio");
  result.Add("executor.cpu_ms_per_iter", exec_ms * kDp, "ms");
  result.Add("executor.reconnects", 0.0, "count");
  result.Add("heartbeat.us_mean", Mean(span("heartbeat")), "us");
  result.Add("heartbeat.delivered_share",
             static_cast<double>(traced.heartbeat_reports) / plans, "ratio");
  result.Add("publisher.allocs_per_plan", static_cast<double>(allocs) / plans,
             "count");
  result.Add("publisher.cpu_ms_per_iter", cpu_ms / iterations, "ms");
  result.Add("trace.overhead_share",
             untraced.tokens_per_s() > 0.0
                 ? 1.0 - traced.tokens_per_s() / untraced.tokens_per_s()
                 : 0.0,
             "ratio");
  return result;
}

}  // namespace dynapipe::bench_e2e
