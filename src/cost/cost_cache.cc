#include "src/cost/cost_cache.h"

#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace dynapipe::cost {
namespace {

// Probe runs longer than this give up and compute uncached; keeps worst-case
// lookup cost bounded when the table approaches capacity.
constexpr size_t kMaxProbe = 64;

// Claim marker for a slot whose value is being written. Cannot collide with a
// real key: those always have num_samples >= 1 in bits 48..61.
constexpr uint64_t kBusy = 1;

// Hit-rate evaluation window, and how many queries a bypass stays in force
// before a probation window re-samples the rate.
constexpr int64_t kRateWindow = 32'768;
constexpr int64_t kBypassSpan = 8 * kRateWindow;

uint64_t Mix(uint64_t key) {
  // splitmix64 finalizer: shape fields occupy fixed bit ranges, so without
  // mixing, nearby shapes would collide into probe clusters.
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ull;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBull;
  key ^= key >> 31;
  return key;
}

}  // namespace

CachedCostOracle::CachedCostOracle(const PipelineCostModel& cm, size_t capacity)
    : cm_(cm) {
  size_t cap = 16;
  while (cap < capacity) {
    cap <<= 1;
  }
  mask_ = cap - 1;
  insert_cap_ = cap - cap / 4;
  slots_ = std::make_unique<Slot[]>(cap);
}

uint64_t CachedCostOracle::Key(const model::MicroBatchShape& shape,
                               model::RecomputeMode mode) {
  // 2 bits mode | 14 bits num_samples | 24 bits input_len | 24 bits target_len.
  // The bounds comfortably cover profiled ranges (batch <= 16383, lens < 16M);
  // anything larger is a bug upstream, not a cache-capacity concern. A real
  // key is never 0 because num_samples >= 1.
  DYNAPIPE_CHECK(shape.num_samples >= 1 && shape.num_samples < (1 << 14));
  DYNAPIPE_CHECK(shape.input_len >= 0 && shape.input_len < (1 << 24));
  DYNAPIPE_CHECK(shape.target_len >= 0 && shape.target_len < (1 << 24));
  return (static_cast<uint64_t>(mode) << 62) |
         (static_cast<uint64_t>(shape.num_samples) << 48) |
         (static_cast<uint64_t>(shape.input_len) << 24) |
         static_cast<uint64_t>(shape.target_len);
}

CachedCostOracle::Entry CachedCostOracle::Query(
    const model::MicroBatchShape& shape, model::RecomputeMode mode, bool* hit,
    double act_limit) const {
  // Adaptive bypass: probing a cold table only pays off above roughly a 30%
  // hit rate, and some workloads never get there — T5's 2-D length grid
  // across a FLAN-like epoch stays in single digits. The oracle watches its
  // hit rate over windows of kRateWindow queries; a window under 15% switches
  // probing off for kBypassSpan queries, after which a probation window
  // re-samples (reuse is often cross-iteration, so a cold first window must
  // not condemn the cache forever). Cached values are untouched by mode
  // flips, so results stay bit-identical either way; only latency changes.
  {
    const int64_t h = hits_.load(std::memory_order_relaxed);
    const int64_t total = h + misses_.load(std::memory_order_relaxed);
    const int64_t window_total =
        total - window_start_total_.load(std::memory_order_relaxed);
    if (bypassed_.load(std::memory_order_relaxed) != 0) {
      if (window_total >= kBypassSpan) {
        // Probation: resume caching and measure a fresh window. Racing
        // threads may reset concurrently; the window boundaries are
        // heuristics, approximate resets are fine.
        window_start_total_.store(total, std::memory_order_relaxed);
        window_start_hits_.store(h, std::memory_order_relaxed);
        bypassed_.store(0, std::memory_order_relaxed);
      } else {
        misses_.fetch_add(1, std::memory_order_relaxed);
        if (hit != nullptr) {
          *hit = false;
        }
        Entry entry;
        entry.act_mb = cm_.MaxActivationMb(shape, mode);
        entry.time_ms =
            (act_limit == 0.0 || (act_limit > 0.0 && entry.act_mb <= act_limit))
                ? cm_.MicroBatchTimeMs(shape, mode)
                : std::numeric_limits<double>::quiet_NaN();
        return entry;
      }
    } else if (window_total >= kRateWindow) {
      const int64_t window_hits =
          h - window_start_hits_.load(std::memory_order_relaxed);
      if (window_hits * 100 < window_total * 15) {
        bypassed_.store(1, std::memory_order_relaxed);
      }
      window_start_total_.store(total, std::memory_order_relaxed);
      window_start_hits_.store(h, std::memory_order_relaxed);
    }
  }
  const uint64_t key = Key(shape, mode);
  const size_t start = static_cast<size_t>(Mix(key)) & mask_;
  // act_limit > 0: time wanted only for windows within the memory cap (the DP
  // precompute's pattern). act_limit == 0: time unconditionally wanted.
  // act_limit < 0: act-only query, never compute time.
  size_t insert_from = kMaxProbe;
  for (size_t p = 0; p < kMaxProbe; ++p) {
    const size_t idx = (start + p) & mask_;
    const uint64_t seen = slots_[idx].key.load(std::memory_order_acquire);
    if (seen == key) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (hit != nullptr) {
        *hit = true;
      }
      Entry entry;
      entry.act_mb = slots_[idx].act_mb;
      const bool need_time =
          act_limit == 0.0 || (act_limit > 0.0 && entry.act_mb <= act_limit);
      double t = slots_[idx].time_ms.load(std::memory_order_relaxed);
      if (need_time && std::isnan(t)) {
        // Lazy upgrade: the entry was cached by an over-limit probe that never
        // priced it. Racing upgrades store the same deterministic value.
        t = cm_.MicroBatchTimeMs(shape, mode);
        slots_[idx].time_ms.store(t, std::memory_order_relaxed);
      }
      entry.time_ms = t;
      return entry;
    }
    if (seen == 0) {
      // Write-once table: the key cannot live past the first empty slot. (It
      // may be mid-publish in an earlier kBusy slot — then we recompute the
      // same value below, which is benign.)
      insert_from = p;
      break;
    }
    // Other key or kBusy: probe onwards.
  }
  const bool may_insert =
      insert_from < kMaxProbe &&
      entries_.load(std::memory_order_relaxed) < insert_cap_;
  // Miss: compute (no lock held; concurrent misses on the same key all derive
  // the same deterministic value) and try to publish. Claim an empty slot with
  // a CAS to kBusy, write the value fields, then release-store the key —
  // readers that acquire the key therefore always see complete values, and a
  // failed claim never touches another thread's slot.
  Entry entry;
  entry.act_mb = cm_.MaxActivationMb(shape, mode);
  const bool need_time =
      act_limit == 0.0 || (act_limit > 0.0 && entry.act_mb <= act_limit);
  entry.time_ms = need_time ? cm_.MicroBatchTimeMs(shape, mode)
                            : std::numeric_limits<double>::quiet_NaN();
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (hit != nullptr) {
    *hit = false;
  }
  if (!may_insert) {
    return entry;  // probe run exhausted or table at load cap: serve uncached
  }
  for (size_t p = insert_from; p < kMaxProbe; ++p) {
    const size_t idx = (start + p) & mask_;
    const uint64_t seen = slots_[idx].key.load(std::memory_order_acquire);
    if (seen == key) {
      return entry;  // racing miss on the same key already published it
    }
    if (seen != 0) {
      continue;  // taken (or being taken) by another key
    }
    uint64_t expected = 0;
    if (slots_[idx].key.compare_exchange_strong(expected, kBusy,
                                                std::memory_order_acquire,
                                                std::memory_order_acquire)) {
      slots_[idx].act_mb = entry.act_mb;
      slots_[idx].time_ms.store(entry.time_ms, std::memory_order_relaxed);
      slots_[idx].key.store(key, std::memory_order_release);
      entries_.fetch_add(1, std::memory_order_relaxed);
      return entry;
    }
    if (expected == key) {
      return entry;
    }
  }
  return entry;
}

double CachedCostOracle::TimeMs(const model::MicroBatchShape& shape,
                                model::RecomputeMode mode) const {
  return Query(shape, mode).time_ms;
}

double CachedCostOracle::ActivationMb(const model::MicroBatchShape& shape,
                                      model::RecomputeMode mode) const {
  return Query(shape, mode, nullptr, /*act_limit=*/-1.0).act_mb;
}

CostCacheCounters CachedCostOracle::counters() const {
  CostCacheCounters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace dynapipe::cost
