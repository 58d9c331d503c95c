// Process-wide metrics: lock-free counters, gauges, and exponential-bucket
// latency histograms behind one registry, with point-in-time snapshots and
// Prometheus-style text export.
//
// Cost discipline mirrors FaultInjector: the *disarmed* hot path is one
// relaxed atomic load and a predictable branch — no clock read, no lock, no
// allocation. Armed (the default), a counter increment is one relaxed
// fetch_add and a histogram record is three. Registration (name lookup) takes
// the registry mutex, so call sites resolve their instruments once — a
// function-local `static Counter&` or a cached member reference — and never
// touch the registry on the hot path.
//
// The registry never deletes an instrument; returned references stay valid
// for the life of the process, which is what makes the cached-reference
// pattern safe.
#ifndef DYNAPIPE_SRC_COMMON_METRICS_H_
#define DYNAPIPE_SRC_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dynapipe::common {

// Global arm switch. Metrics are armed by default (they are cheap enough to
// leave on); `set_enabled(false)` turns every instrument into the one-load
// no-op — the state the bench's "disarmed" rows and the ≤5% shm-publish
// budget are measured in.
class Metrics {
 public:
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

 private:
  static std::atomic<bool> enabled_;
};

class Counter {
 public:
  void Add(int64_t n = 1) {
    if (!Metrics::enabled()) {
      return;
    }
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) {
    if (!Metrics::enabled()) {
      return;
    }
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (!Metrics::enabled()) {
      return;
    }
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Latency histogram with exponential (power-of-two) microsecond buckets:
// bucket 0 holds samples <= 1us, bucket i holds (2^(i-1), 2^i] us. 40 buckets
// reach ~2^39 us (~6 days); larger samples clamp into the last bucket — the
// exponential range makes genuine overflow impossible for any latency this
// system produces, so no overflow counter is kept here (the fixed-range
// `dynapipe::Histogram` is the one that needed it).
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 40;

  void RecordUs(int64_t us) {
    if (!Metrics::enabled()) {
      return;
    }
    if (us < 0) {
      us = 0;
    }
    buckets_[BucketFor(us)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
  }
  void RecordMs(double ms) {
    RecordUs(ms <= 0 ? 0 : static_cast<int64_t>(ms * 1000.0));
  }

  static int BucketFor(int64_t us) {
    // bit_width(0)=0, bit_width(1)=1 -> bucket 0; bit_width(2)=2 -> bucket 1.
    int w = 0;
    for (uint64_t v = static_cast<uint64_t>(us); v != 0; v >>= 1) {
      ++w;
    }
    const int idx = w <= 1 ? 0 : w - 1;
    return idx >= kNumBuckets ? kNumBuckets - 1 : idx;
  }
  // Inclusive upper bound of bucket i, in microseconds.
  static int64_t BucketUpperUs(int i) { return int64_t{1} << i; }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum_us() const { return sum_us_.load(std::memory_order_relaxed); }
  int64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_us_{0};
};

// Starts the clock only when metrics are armed, so a disarmed timed section
// costs one relaxed load at construction and one at observation — no
// steady_clock reads.
class LatencyTimer {
 public:
  LatencyTimer() : armed_(Metrics::enabled()) {
    if (armed_) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  void ObserveInto(LatencyHistogram& hist) const {
    if (!armed_ || !Metrics::enabled()) {
      return;
    }
    hist.RecordUs(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
  }

 private:
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

// Point-in-time copy of every registered instrument, name-sorted.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    int64_t count = 0;
    int64_t sum_us = 0;
    // Trailing zero buckets trimmed; at most kNumBuckets entries.
    std::vector<int64_t> buckets;
  };

  std::vector<CounterValue> counters;
  std::vector<CounterValue> gauges;
  std::vector<HistogramValue> histograms;

  // 0 / nullptr when the name is absent.
  int64_t counter(std::string_view name) const;
  int64_t gauge(std::string_view name) const;
  const HistogramValue* histogram(std::string_view name) const;

  // This snapshot minus `earlier`, matched by name — the mid-epoch delta.
  // Instruments absent from `earlier` keep their full value; gauges are not
  // differenced (a gauge is a level, not a rate).
  MetricsSnapshot DeltaSince(const MetricsSnapshot& earlier) const;

  std::string ToPrometheusText(std::string_view prefix = "dynapipe_") const;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  // Registration: O(log n) under a mutex, idempotent per name. Call once and
  // cache the reference.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  LatencyHistogram& GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;
  std::string PrometheusText() const { return Snapshot().ToPrometheusText(); }

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

// The per-backend instrument bundle every InstructionStoreInterface
// implementation records into. `For` interns by backend name — callers cache
// the returned reference.
struct StoreMetrics {
  Counter& push_total;
  Counter& fetch_total;
  Counter& bytes_pushed;
  LatencyHistogram& push_us;
  LatencyHistogram& fetch_us;
  // Time spent parked on capacity backpressure inside a push.
  LatencyHistogram& park_us;

  static StoreMetrics& For(const char* backend);
};

}  // namespace dynapipe::common

#endif  // DYNAPIPE_SRC_COMMON_METRICS_H_
