// Cross-process span tracing: per-thread ring buffers of fixed-size events,
// dumped as Chrome/Perfetto trace-event JSON.
//
// Enablement: `DYNAPIPE_TRACE=/path/trace.json` in the environment (read at
// first use — forked children inherit it), or TrainerOptions::trace_path /
// Tracer::EnableToPath programmatically. Disabled, a span costs one relaxed
// atomic load and no clock read.
//
// Timeline alignment: every process stamps events on its own steady clock,
// anchored to wall-clock microseconds at tracer init so independently started
// processes land on roughly the same axis, plus an adjustable offset refined
// by a wire exchange at executor attach (a kClockRequest round trip: offset
// += peer_now − midpoint(send, recv) — see docs/OBSERVABILITY.md). Offsets
// make timestamps comparable across processes, which is what lets one merged
// trace interleave the trainer and its forked executors.
//
// Merge protocol: worker processes write `<path>.<pid>.part` (one JSON event
// object per line); the process that owns `<path>` — the trainer or the demo
// parent, after reaping children — calls WriteMergedTrace, which folds its
// own events plus every sibling part file into a single JSON array that
// chrome://tracing and ui.perfetto.dev open directly, then removes the parts.
//
// Plan-lifecycle spans are keyed by (iteration, replica) args:
// planned (replica −1, it covers all) → published → fetched → decoded →
// executed → heartbeat.
#ifndef DYNAPIPE_SRC_COMMON_TRACE_H_
#define DYNAPIPE_SRC_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace dynapipe::common {

// Sentinel for "no arg" — the args block omits the field.
inline constexpr int64_t kTraceNoIteration = INT64_MIN;
inline constexpr int32_t kTraceNoReplica = INT32_MIN;

class Tracer {
 public:
  // Events one thread can hold before the ring wraps (oldest overwritten).
  static constexpr size_t kRingCapacity = 4096;

  static Tracer& Instance();
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  // Programmatic enable; also sets the merged-output path.
  void EnableToPath(const std::string& path);
  const std::string& path() const { return path_; }

  // Microseconds on the aligned timeline (wall anchor + steady delta +
  // offset). Valid whether or not tracing is enabled.
  int64_t NowUs() const;

  // Clock-alignment refinement from one request/reply exchange: `peer_now_us`
  // is the peer's aligned NowUs sampled while serving, `local_send_us` /
  // `local_recv_us` are this process's NowUs around the exchange.
  void AlignToPeer(int64_t peer_now_us, int64_t local_send_us,
                   int64_t local_recv_us);
  int64_t clock_offset_us() const {
    return offset_us_.load(std::memory_order_relaxed);
  }

  // `name`/`cat` must be string literals (stored by pointer, never copied).
  void RecordComplete(const char* name, const char* cat, int64_t start_us,
                      int64_t dur_us, int64_t iteration = kTraceNoIteration,
                      int32_t replica = kTraceNoReplica);
  void RecordInstant(const char* name, const char* cat,
                     int64_t iteration = kTraceNoIteration,
                     int32_t replica = kTraceNoReplica);

  // Drains every thread's ring (oldest first per thread) as one JSON event
  // object per line, appended to `out`.
  void DumpJsonl(std::string* out) const;

  // Worker-process exit path: events -> `path().<pid>.part`. False when
  // disabled, pathless, or the write fails.
  bool WritePartFile() const;
  // Owner-process path: own events + every `path().*.part` sibling -> one
  // JSON array at `path()`; consumed part files are removed.
  bool WriteMergedTrace() const;

 private:
  Tracer();
  struct Impl;
  Impl& impl() const;

  static std::atomic<bool> enabled_;
  std::string path_;
  std::atomic<int64_t> offset_us_{0};
};

// RAII complete-event span. Cheap when disabled: the constructor is one
// relaxed load; no clock is read.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat,
            int64_t iteration = kTraceNoIteration,
            int32_t replica = kTraceNoReplica)
      : name_(name), cat_(cat), iteration_(iteration), replica_(replica) {
    armed_ = Tracer::enabled();
    if (armed_) {
      start_us_ = Tracer::Instance().NowUs();
    }
  }
  ~TraceSpan() {
    if (armed_) {
      Tracer& t = Tracer::Instance();
      t.RecordComplete(name_, cat_, start_us_, t.NowUs() - start_us_,
                       iteration_, replica_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  int64_t iteration_;
  int32_t replica_;
  bool armed_;
  int64_t start_us_ = 0;
};

}  // namespace dynapipe::common

#endif  // DYNAPIPE_SRC_COMMON_TRACE_H_
