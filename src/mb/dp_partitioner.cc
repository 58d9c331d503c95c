#include "src/mb/dp_partitioner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/common/timing.h"

namespace dynapipe::mb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Window {
  double time_ms = 0.0;
  double act_mb = 0.0;
};

model::MicroBatchShape WindowShape(const std::vector<data::Sample>& s, size_t start,
                                   size_t width) {
  model::MicroBatchShape shape;
  shape.num_samples = static_cast<int32_t>(width);
  for (size_t i = start; i < start + width; ++i) {
    shape.input_len = std::max(shape.input_len, s[i].input_len);
    shape.target_len = std::max(shape.target_len, s[i].target_len);
  }
  return shape;
}

}  // namespace

DpPartitioner::DpPartitioner(const MicroBatchCostFn& cost, DpPartitionerOptions options)
    : cost_(cost), options_(std::move(options)) {
  DYNAPIPE_CHECK(options_.num_stages >= 1);
  DYNAPIPE_CHECK(options_.num_replicas >= 1);
  DYNAPIPE_CHECK(options_.max_microbatch_size >= 1);
  DYNAPIPE_CHECK(options_.tmax_interval_ms > 0.0);
  DYNAPIPE_CHECK(options_.max_tmax_candidates >= 2);
}

PartitionResult DpPartitioner::Partition(
    const std::vector<data::Sample>& ordered) const {
  PartitionResult result;
  const size_t n = ordered.size();
  if (n == 0) {
    result.feasible = true;
    return result;
  }
  const auto counters_before = cost_.CacheCounters();
  const auto precompute_start = SteadyClock::now();

  // --- Precompute feasible windows, shared by every t_max candidate below.
  // windows[i][w-1] covers ordered[i .. i+w-1]. Window time and activation are
  // monotone non-decreasing in w (the count grows and padded lengths never
  // shrink), so each start index has a contiguous feasible range and we can
  // stop extending at the first violation.
  std::vector<std::vector<Window>> windows(n);
  // Times-only mirror of `windows` for the DP sweep: per start the array is
  // contiguous and monotone in w, so the inner relax loop scans sequentially
  // and stops at the first time over t_max.
  std::vector<std::vector<double>> win_times(n);
  // Start indices are independent, so the precompute — the dominant planning
  // phase once the DPs are vectorized — fans out over the pool. Each index
  // writes only its own slots; the min/max reductions below run serially over
  // the finished table, so the result is bit-identical to the serial loop
  // (min/max need no FP associativity). Racing cost-cache misses on shared
  // shapes derive identical values (see CachedCostOracle). An empty window
  // row means even a single sample breaks the memory limit and the whole
  // partition is infeasible; the flag lets remaining indices bail instead of
  // finishing the O(n*W) table as wasted work (the serial loop's early
  // return).
  std::atomic<bool> infeasible{false};
  ParallelFor(options_.pool, n, [&](size_t i) {
    if (infeasible.load(std::memory_order_relaxed)) {
      return;
    }
    model::MicroBatchShape shape;
    for (size_t w = 1; i + w <= n && w <= static_cast<size_t>(options_.max_microbatch_size);
         ++w) {
      shape.num_samples = static_cast<int32_t>(w);
      shape.input_len = std::max(shape.input_len, ordered[i + w - 1].input_len);
      shape.target_len = std::max(shape.target_len, ordered[i + w - 1].target_len);
      Window win;
      if (!cost_.WindowCosts(shape, options_.activation_limit_mb, &win.time_ms,
                             &win.act_mb)) {
        break;
      }
      windows[i].push_back(win);
      win_times[i].push_back(win.time_ms);
    }
    if (windows[i].empty()) {
      infeasible.store(true, std::memory_order_relaxed);
    }
  });
  if (infeasible.load(std::memory_order_relaxed)) {
    // A single sample exceeds the memory limit: no partition can help (§4 "the
    // training can continue ... as long as the activation of one single
    // micro-batch fits into device memory" — here it does not).
    result.feasible = false;
    return result;
  }
  double min_single_time = kInf;
  double max_single_time = 0.0;
  double max_window_time = 0.0;
  for (size_t i = 0; i < n; ++i) {
    DYNAPIPE_CHECK(!windows[i].empty());
    min_single_time = std::min(min_single_time, windows[i].front().time_ms);
    max_single_time = std::max(max_single_time, windows[i].front().time_ms);
    for (const Window& win : windows[i]) {
      max_window_time = std::max(max_window_time, win.time_ms);
    }
  }

  result.stats.window_precompute_ms = ElapsedMs(precompute_start);
  const auto search_start = SteadyClock::now();

  // --- t_max candidates: quantized distinct window times, at or above the largest
  // single-sample time (smaller values cannot cover that sample).
  std::vector<double> candidates;
  {
    const double interval = options_.tmax_interval_ms;
    // Quantized times are multiples of `interval`, so distinct sorted values
    // come from bucket presence-marking in O(windows + buckets) instead of an
    // O(W log W) sort of every window time — the sort dominated the whole
    // candidate phase on large batches. Degenerate intervals (so fine that the
    // bucket table would dwarf the window count) fall back to sort+unique.
    std::vector<double> quantized;
    const double bucket_span = max_window_time / interval;
    const size_t max_buckets = 16 * (n * static_cast<size_t>(
                                             options_.max_microbatch_size) +
                                     1024);
    if (bucket_span > 0.0 && bucket_span < static_cast<double>(max_buckets)) {
      const size_t num_buckets = static_cast<size_t>(bucket_span) + 2;
      std::vector<uint8_t> present(num_buckets, 0);
      for (const auto& per_start : windows) {
        for (const auto& win : per_start) {
          if (win.time_ms + 1e-12 < max_single_time) {
            continue;
          }
          const size_t q = static_cast<size_t>(std::ceil(win.time_ms / interval));
          DYNAPIPE_CHECK(q < num_buckets);
          present[q] = 1;
        }
      }
      for (size_t q = 0; q < num_buckets; ++q) {
        if (present[q] != 0) {
          quantized.push_back(static_cast<double>(q) * interval);
        }
      }
    } else {
      for (const auto& per_start : windows) {
        for (const auto& win : per_start) {
          if (win.time_ms + 1e-12 < max_single_time) {
            continue;
          }
          quantized.push_back(std::ceil(win.time_ms / interval) * interval);
        }
      }
      std::sort(quantized.begin(), quantized.end());
      quantized.erase(std::unique(quantized.begin(), quantized.end()),
                      quantized.end());
    }
    DYNAPIPE_CHECK(!quantized.empty());
    const size_t cap = static_cast<size_t>(options_.max_tmax_candidates);
    if (quantized.size() <= cap) {
      candidates = std::move(quantized);
    } else {
      // Even subsample of the interior with both extremes pinned explicitly:
      // the smallest candidate anchors the min-max end of the sweep and the
      // largest guarantees at least one feasible candidate, so neither may
      // fall victim to rounding or dedup.
      candidates.reserve(cap);
      candidates.push_back(quantized.front());
      for (size_t k = 1; k + 1 < cap; ++k) {
        const size_t idx = k * (quantized.size() - 1) / (cap - 1);
        if (quantized[idx] > candidates.back()) {
          candidates.push_back(quantized[idx]);
        }
      }
      if (quantized.back() > candidates.back()) {
        candidates.push_back(quantized.back());
      }
    }
  }

  // --- DP per candidate. f[k] = min total time over partitions of the first k
  // samples with every micro-batch time <= tmax; parent[k] = width of the last
  // micro-batch in an optimal partition of the first k. Candidates are
  // independent given the shared window table, so they fan out over the pool;
  // each writes its outcome into its own slot and the merge below is serial.
  struct CandidateOutcome {
    bool feasible = false;
    double objective = kInf;
    std::vector<int32_t> widths;  // back-to-front, as reconstructed
  };
  std::vector<CandidateOutcome> outcomes(candidates.size());

  // Each start's usable-window cutoff under a candidate (times <= candidate +
  // eps) is derived *inside* the per-candidate lambda: per-start times are
  // sorted (monotone in w), so one binary search per (start, candidate) — an
  // O(n log W) sliver next to the O(n*W) DP — replaces what used to be a
  // serial O(n x candidates) merge-walk plus a 4B/cell cutoff table ahead of
  // the fan-out. That walk was the sweep's Amdahl limit at 16k-sample
  // batches; now the only serial work between the precompute and the merge is
  // candidate selection. upper_bound on a sorted array returns exactly the
  // merge-walk's count, so plans are bit-identical (pinned by
  // tests/planning_parallel_test.cpp).
  ParallelFor(options_.pool, candidates.size(), [&](size_t c_idx) {
    const double tmax = candidates[c_idx] + 1e-12;
    // Forward DP, start-major: windows starting at i extend f[i] to f[i+w].
    // No parent array — the relax loop is then a pure contiguous min that the
    // compiler vectorizes, and widths are reconstructed below by exact float
    // equality (f[i] is final when start i is processed, so f[k] is bitwise
    // equal to f[start] + time for some achieving window). Thread-locals avoid
    // per-candidate allocation; a thread runs one candidate at a time
    // (ParallelFor only steals other work between candidates, never inside
    // one), so reuse is safe.
    thread_local std::vector<double> f;
    f.assign(n + 1, kInf);
    f[0] = 0.0;
    bool reachable = true;
    for (size_t i = 0; i < n; ++i) {
      if (f[i] == kInf) {
        // An unreachable prefix dooms the whole candidate: any window crossing
        // sample i-1 contains the sub-window with the same start ending at i,
        // which by cost monotonicity is no more expensive — so if some
        // partition covered sample i-1, f[i] would be finite. (The seed had
        // this guard with `&& k == n` attached, making it dead.)
        reachable = false;
        break;
      }
      const double fi = f[i];
      const std::vector<double>& times = win_times[i];
      const size_t cut = static_cast<size_t>(
          std::upper_bound(times.begin(), times.end(), tmax) - times.begin());
      // restrict lets the compiler vectorize the min: f's tail and this start's
      // time array never alias.
      const double* __restrict tp = times.data();
      double* __restrict fk = f.data() + i + 1;
      for (size_t w = 0; w < cut; ++w) {
        fk[w] = std::min(fk[w], fi + tp[w]);
      }
    }
    if (!reachable || f[n] == kInf) {
      return;
    }
    // Reconstruct and score with the *realized* max (<= tmax), which is the exact
    // Eq. 1 objective rather than the candidate upper bound. The smallest width
    // whose add reproduces f[k] bitwise is a deterministic optimal choice.
    CandidateOutcome& out = outcomes[c_idx];
    double realized_max = 0.0;
    for (size_t k = n; k > 0;) {
      const size_t wmax =
          std::min(k, static_cast<size_t>(options_.max_microbatch_size));
      size_t found = 0;
      for (size_t w = 1; w <= wmax; ++w) {
        const size_t start = k - w;
        if (w > win_times[start].size()) {
          continue;
        }
        const double t = win_times[start][w - 1];
        if (t > tmax) {
          continue;
        }
        if (f[start] + t == f[k]) {
          found = w;
          realized_max = std::max(realized_max, t);
          break;
        }
      }
      DYNAPIPE_CHECK(found >= 1);
      out.widths.push_back(static_cast<int32_t>(found));
      k -= found;
    }
    out.objective =
        (options_.num_stages - 1) * realized_max + f[n] / options_.num_replicas;
    out.feasible = true;
  });

  // Deterministic merge in ascending-t_max order: strict improvement only, so
  // ties keep the earliest (lowest) candidate — exactly the serial loop's pick.
  double best_objective = kInf;
  std::vector<int32_t> best_widths;
  for (auto& out : outcomes) {
    if (out.feasible && out.objective < best_objective) {
      best_objective = out.objective;
      best_widths = std::move(out.widths);
    }
  }
  result.candidates_tried = static_cast<int32_t>(candidates.size());
  result.stats.candidate_search_ms = ElapsedMs(search_start);
  result.stats.parallel_workers =
      options_.pool != nullptr ? std::max(1, options_.pool->num_threads()) : 1;
  const auto counters_after = cost_.CacheCounters();
  result.stats.cost_cache_hits = counters_after.first - counters_before.first;
  result.stats.cost_cache_misses = counters_after.second - counters_before.second;

  if (best_widths.empty()) {
    result.feasible = false;
    return result;
  }

  // Widths were collected back-to-front.
  std::reverse(best_widths.begin(), best_widths.end());
  size_t pos = 0;
  for (const int32_t w : best_widths) {
    std::vector<data::Sample> group(ordered.begin() + static_cast<ptrdiff_t>(pos),
                                    ordered.begin() + static_cast<ptrdiff_t>(pos + w));
    MicroBatch m = MakeMicroBatch(std::move(group));
    const Window& win = windows[pos][static_cast<size_t>(w) - 1];
    m.predicted_time_ms = win.time_ms;
    m.predicted_activation_mb = win.act_mb;
    result.micro_batches.push_back(std::move(m));
    result.max_time_ms = std::max(result.max_time_ms, win.time_ms);
    result.total_time_ms += win.time_ms;
    pos += static_cast<size_t>(w);
  }
  DYNAPIPE_CHECK(pos == n);
  result.objective_ms = (options_.num_stages - 1) * result.max_time_ms +
                        result.total_time_ms / options_.num_replicas;
  result.feasible = true;
  return result;
}

PartitionResult BruteForcePartition(const MicroBatchCostFn& cost,
                                    const DpPartitionerOptions& options,
                                    const std::vector<data::Sample>& ordered) {
  const size_t n = ordered.size();
  PartitionResult best;
  if (n == 0) {
    best.feasible = true;
    return best;
  }
  DYNAPIPE_CHECK_MSG(n <= 20, "brute force is exponential; use small inputs");
  double best_objective = kInf;
  // Bitmask b: bit k set means a split between samples k and k+1.
  for (uint64_t mask = 0; mask < (1ull << (n - 1)); ++mask) {
    double total = 0.0;
    double max_t = 0.0;
    bool ok = true;
    size_t start = 0;
    std::vector<std::pair<size_t, size_t>> ranges;
    for (size_t k = 0; k <= n - 1 && ok; ++k) {
      const bool split_here = k == n - 1 || (mask >> k & 1ull) != 0;
      if (!split_here) {
        continue;
      }
      const size_t width = k + 1 - start;
      if (width > static_cast<size_t>(options.max_microbatch_size)) {
        ok = false;
        break;
      }
      const model::MicroBatchShape shape = WindowShape(ordered, start, width);
      const double act = cost.ActivationMb(shape);
      if (options.activation_limit_mb > 0.0 && act > options.activation_limit_mb) {
        ok = false;
        break;
      }
      const double t = cost.TimeMs(shape);
      total += t;
      max_t = std::max(max_t, t);
      ranges.emplace_back(start, width);
      start = k + 1;
    }
    if (!ok) {
      continue;
    }
    const double objective =
        (options.num_stages - 1) * max_t + total / options.num_replicas;
    if (objective < best_objective) {
      best_objective = objective;
      best.micro_batches.clear();
      for (const auto& [s, w] : ranges) {
        std::vector<data::Sample> group(ordered.begin() + static_cast<ptrdiff_t>(s),
                                        ordered.begin() + static_cast<ptrdiff_t>(s + w));
        best.micro_batches.push_back(MakeMicroBatch(std::move(group)));
      }
      best.max_time_ms = max_t;
      best.total_time_ms = total;
      best.objective_ms = objective;
      best.feasible = true;
    }
  }
  return best;
}

}  // namespace dynapipe::mb
