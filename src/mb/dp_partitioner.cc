#include "src/mb/dp_partitioner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/common/timing.h"

namespace dynapipe::mb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

// Feasible windows of one Partition call, as one n x `width` table: the
// window covering ordered[i .. i+w-1] sits at row i, column w-1, for w in
// [1, len[i]]. Times and activations are separate arrays so the DP's relax
// loop scans one contiguous row of times.
struct WindowTable {
  size_t width = 0;
  std::vector<double> times;
  std::vector<double> acts;
  std::vector<size_t> len;

  // Grows the buffers to n x w; cells past len[i] keep stale values and are
  // never read.
  void Reset(size_t n, size_t w) {
    width = w;
    times.resize(n * w);
    acts.resize(n * w);
    len.assign(n, 0);
  }
  const double* row_times(size_t i) const { return times.data() + i * width; }
  size_t cell(size_t i, size_t w) const { return i * width + w - 1; }
};

// Lends a WindowTable from a per-thread free list for one Partition call, so
// repeat calls on a thread reuse its buffers instead of allocating the table
// row by row. A call nested on the same thread — a ParallelFor waiter running
// another queued planning task — borrows a different table, never the one its
// caller is still using.
class WindowTableLease {
 public:
  WindowTableLease() {
    auto& free = FreeList();
    if (free.empty()) {
      table_ = std::make_unique<WindowTable>();
    } else {
      table_ = std::move(free.back());
      free.pop_back();
    }
  }
  ~WindowTableLease() { FreeList().push_back(std::move(table_)); }
  WindowTableLease(const WindowTableLease&) = delete;
  WindowTableLease& operator=(const WindowTableLease&) = delete;

  WindowTable& operator*() const { return *table_; }

 private:
  static std::vector<std::unique_ptr<WindowTable>>& FreeList() {
    thread_local std::vector<std::unique_ptr<WindowTable>> free;
    return free;
  }

  std::unique_ptr<WindowTable> table_;
};

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
  const auto precompute_start = SteadyClock::now();

  // --- Precompute feasible windows, shared by every t_max candidate below.
  // Window time and activation are monotone non-decreasing in w (the count
  // grows and padded lengths never shrink), so each start index has a
  // contiguous feasible range and we can stop extending at the first
  // violation.
  const WindowTableLease lease;
  WindowTable& windows = *lease;
  const size_t max_width =
      std::min(n, static_cast<size_t>(options_.max_microbatch_size));
  windows.Reset(n, max_width);
  // Start indices are independent, so the precompute fans out over the pool.
  // Each index writes only its own row; the min/max reductions below run
  // serially over the finished table, so the result is bit-identical to the
  // serial loop (min/max need no FP associativity). An empty row means even a
  // single sample breaks the memory limit and the whole partition is
  // infeasible; the flag lets remaining indices bail instead of finishing
  // the O(n*W) table as wasted work (the serial loop's early return).
  std::atomic<bool> infeasible{false};
  ParallelFor(options_.pool, n, [&](size_t i) {
    if (infeasible.load(std::memory_order_relaxed)) {
      return;
    }
    model::MicroBatchShape shape;
    size_t w = 1;
    for (; i + w <= n && w <= max_width; ++w) {
      shape.num_samples = static_cast<int32_t>(w);
      shape.input_len = std::max(shape.input_len, ordered[i + w - 1].input_len);
      shape.target_len = std::max(shape.target_len, ordered[i + w - 1].target_len);
      const size_t cell = windows.cell(i, w);
      if (!cost_.WindowCosts(shape, options_.activation_limit_mb,
                             &windows.times[cell], &windows.acts[cell])) {
        break;
      }
    }
    windows.len[i] = w - 1;
    if (w == 1) {
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
  double max_single_time = 0.0;
  double max_window_time = 0.0;
  for (size_t i = 0; i < n; ++i) {
    DYNAPIPE_CHECK(windows.len[i] >= 1);
    const double* times = windows.row_times(i);
    max_single_time = std::max(max_single_time, times[0]);
    for (size_t w = 0; w < windows.len[i]; ++w) {
      max_window_time = std::max(max_window_time, times[w]);
    }
  }

  result.stats.window_precompute_ms = ElapsedMs(precompute_start);
  const auto search_start = SteadyClock::now();

  // --- t_max candidates: quantized distinct window times, at or above the largest
  // single-sample time (smaller values cannot cover that sample).
  std::vector<double> candidates;
  {
    const double interval = options_.tmax_interval_ms;
    // Calls fn(t) on every window time that can bound a partition.
    auto for_each_candidate_time = [&](auto&& fn) {
      for (size_t i = 0; i < n; ++i) {
        const double* times = windows.row_times(i);
        for (size_t w = 0; w < windows.len[i]; ++w) {
          if (times[w] + 1e-12 >= max_single_time) {
            fn(times[w]);
          }
        }
      }
    };
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
      for_each_candidate_time([&](double t) {
        const size_t q = static_cast<size_t>(std::ceil(t / interval));
        DYNAPIPE_CHECK(q < num_buckets);
        present[q] = 1;
      });
      for (size_t q = 0; q < num_buckets; ++q) {
        if (present[q] != 0) {
          quantized.push_back(static_cast<double>(q) * interval);
        }
      }
    } else {
      for_each_candidate_time([&](double t) {
        quantized.push_back(std::ceil(t / interval) * interval);
      });
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
  // samples with every micro-batch time <= tmax. Returns the candidate's Eq. 1
  // objective (kInf if infeasible) and, when `widths` is non-null, the widths
  // of its micro-batches back-to-front. Deterministic, so the sweep scores
  // every candidate without keeping widths and the winner is re-solved once
  // for them.
  //
  // Each start's usable-window cutoff under a candidate (times <= candidate +
  // eps) is one binary search per (start, candidate) — an O(n log W) sliver
  // next to the O(n*W) DP — on the start's row, which is sorted (monotone in
  // w). That keeps all per-candidate work inside the fan-out (pinned
  // bit-identical to serial by tests/planning_parallel_test.cpp).
  auto solve = [&](size_t c_idx, std::vector<int32_t>* widths) {
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
    for (size_t i = 0; i < n; ++i) {
      if (f[i] == kInf) {
        // An unreachable prefix dooms the whole candidate: any window crossing
        // sample i-1 contains the sub-window with the same start ending at i,
        // which by cost monotonicity is no more expensive — so if some
        // partition covered sample i-1, f[i] would be finite.
        return kInf;
      }
      const double fi = f[i];
      const double* times = windows.row_times(i);
      const size_t cut = static_cast<size_t>(
          std::upper_bound(times, times + windows.len[i], tmax) - times);
      // restrict lets the compiler vectorize the min: f's tail and this start's
      // time row never alias.
      const double* __restrict tp = times;
      double* __restrict fk = f.data() + i + 1;
      for (size_t w = 0; w < cut; ++w) {
        fk[w] = std::min(fk[w], fi + tp[w]);
      }
    }
    if (f[n] == kInf) {
      return kInf;
    }
    // Reconstruct and score with the *realized* max (<= tmax), which is the exact
    // Eq. 1 objective rather than the candidate upper bound. The smallest width
    // whose add reproduces f[k] bitwise is a deterministic optimal choice.
    double realized_max = 0.0;
    for (size_t k = n; k > 0;) {
      const size_t wmax = std::min(k, max_width);
      size_t found = 0;
      for (size_t w = 1; w <= wmax; ++w) {
        const size_t start = k - w;
        if (w > windows.len[start]) {
          continue;
        }
        const double t = windows.times[windows.cell(start, w)];
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
      if (widths != nullptr) {
        widths->push_back(static_cast<int32_t>(found));
      }
      k -= found;
    }
    return (options_.num_stages - 1) * realized_max + f[n] / options_.num_replicas;
  };
  // Candidates are independent given the shared window table, so they fan
  // out over the pool, each scoring into its own slot.
  std::vector<double> objectives(candidates.size());
  ParallelFor(options_.pool, candidates.size(),
              [&](size_t c_idx) { objectives[c_idx] = solve(c_idx, nullptr); });

  // Deterministic merge in ascending-t_max order: strict improvement only, so
  // ties keep the earliest (lowest) candidate — exactly the serial loop's pick.
  double best_objective = kInf;
  size_t best = candidates.size();
  for (size_t c_idx = 0; c_idx < candidates.size(); ++c_idx) {
    if (objectives[c_idx] < best_objective) {
      best_objective = objectives[c_idx];
      best = c_idx;
    }
  }
  std::vector<int32_t> best_widths;
  if (best < candidates.size()) {
    solve(best, &best_widths);
  }
  result.candidates_tried = static_cast<int32_t>(candidates.size());
  result.stats.candidate_search_ms = ElapsedMs(search_start);
  result.stats.parallel_workers =
      options_.pool != nullptr ? std::max(1, options_.pool->num_threads()) : 1;

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
    const size_t cell = windows.cell(pos, static_cast<size_t>(w));
    m.predicted_time_ms = windows.times[cell];
    m.predicted_activation_mb = windows.acts[cell];
    result.micro_batches.push_back(std::move(m));
    result.max_time_ms = std::max(result.max_time_ms, windows.times[cell]);
    result.total_time_ms += windows.times[cell];
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
