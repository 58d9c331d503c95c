// bench_e2e harness: shared pieces of the end-to-end benchmark.
//
// The benchmark drives the real plan path (sample -> plan -> serialize ->
// publish -> fetch -> decode -> execute -> heartbeat) on four named
// workloads and prints one JSON result line (README.md has the metric
// catalog). Everything here is bench-side: the instruments wrap calls into
// the library's public functions from this directory, so the library itself
// is measured unmodified.
#ifndef DYNAPIPE_BENCH_E2E_HARNESS_H_
#define DYNAPIPE_BENCH_E2E_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dynapipe::bench_e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: per-layer instruments and the Tracer are on for the second
  // half of the timed phase; the first half runs untraced so the gap between
  // the two halves is the tracing overhead.
  bool trace = false;
  // Merged Perfetto JSON of the traced half (traced runs only).
  std::string trace_out;
  // Directory for Unix-socket endpoints (keep the path short: sun_path).
  std::string run_dir = ".";
};

// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports. `attempted` counts (iteration, replica) plans of the
// timed phase; a plan `failed` if it was not executed exactly once, its
// completion report was not delivered, its plan was infeasible, or (traced
// runs) its executed bytes differ from the published ones.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines printed before the JSON line (digests, notes).
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  // The run's outputs are not correct: plans failed or a fixture-level
  // invariant broke.
  void Fail(const std::string& why);
  // Notes each fixture's set-up time, in order (the timed fixture is last).
  void NoteSetups(const std::vector<double>& setup_s);
};

// Prints the metric table and, as the last line, the JSON object
// {"correct", "attempted", "failed", "metrics"}.
void PrintResult(const RunOptions& options, const Result& result);

// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// Workload entry points: t5-inline (inline_workload.cc) and the forked
// executor fleets (fleet_workload.cc). Callers check the name against
// WorkloadNames() first.
Result RunInlineWorkload(const RunOptions& options);
Result RunFleetWorkload(const RunOptions& options);
// One JSON object describing a workload's full configuration.
std::string DescribeInlineWorkload();
std::string DescribeFleetWorkload(const std::string& name);

// Planner, profiling and dataset knobs are the figure benches' own
// (bench/bench_util.h). The FLAN-like corpus is fixed, like a real training
// set: its generator seed also draws the task mixture, so seeding it from
// --seed would make each seed a different workload. --seed picks the
// shuffles and noise streams.
inline constexpr uint64_t kCorpusSeed = 42;
inline constexpr int64_t kDatasetSamples = 160'000;
// Every workload trains on 65,536-token mini-batches, inputs cut at 2048.
inline constexpr int64_t kBatchTokens = 65'536;
inline constexpr int32_t kMaxInputLen = 2048;
// Independent seed for one input stream (a shuffle, a noise stream) of the
// run seeded `seed` (splitmix64).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);
// Number of fixtures a run sets up; setup_s is their median and the last one
// runs the timed phase.
inline constexpr int kSetupRepeats = 3;
// sim_tokens_per_s and the plan digest cover the first this-many timed
// iterations, so they are a pure function of the seed.
inline constexpr int64_t kSimWindow = 256;

// --- clocks, CPU, allocations ---

using Clock = std::chrono::steady_clock;
// CLOCK_MONOTONIC nanoseconds: comparable across the forked processes.
int64_t NowNs();
// User + system CPU of this process (all threads), in ms.
double ProcessCpuMs();
// Heap allocations counted by the operator-new interposition
// (alloc_count.cc) while armed.
void ArmAllocCounting(bool armed);
int64_t AllocCount();
// Excludes the calling thread's allocations from the count while alive, so
// the harness's own instruments do not show up in the publisher's numbers.
class ScopedAllocPause {
 public:
  ScopedAllocPause();
  ~ScopedAllocPause();
  ScopedAllocPause(const ScopedAllocPause&) = delete;
  ScopedAllocPause& operator=(const ScopedAllocPause&) = delete;
};

// --- statistics ---

// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double Pct(const std::vector<double>& values, double p);
double Mean(const std::vector<double>& values);

// FNV-1a over bytes.
uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 1469598103934665603ull);

// Complete-span durations (us) by name from this process's tracer rings.
std::map<std::string, std::vector<double>> SpanDurationsUs();

}  // namespace dynapipe::bench_e2e

#endif  // DYNAPIPE_BENCH_E2E_HARNESS_H_
