// Tests for the cross-process observability stack (src/common/metrics.h,
// src/common/trace.h, and the wire clock exchange): lock-free instrument
// correctness under thread hammering (the TSan job runs this suite), snapshot
// deltas, clock-payload codec bounds, a live store server that shrugs off
// hostile bytes and still serves the clock exchange, ring-buffer wraparound
// JSON well-formedness, and the acceptance run: a fork()ed three-executor
// mux epoch whose merged
// trace must contain a complete, clock-aligned
// planned → published → fetched → decoded → executed chain for every
// iteration across all four processes.
//
// Ordering note: Tracer enablement is process-global and sticky, so every
// test that enables tracing lives at the BOTTOM of this file (gtest runs
// same-file tests in registration order). Metrics arming is toggled and
// always restored.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/executor/executor.h"
#include "src/executor/publisher.h"
#include "src/runtime/instruction_store.h"
#include "src/service/plan_serde.h"
#include "src/sim/cluster_sim.h"
#include "src/transport/frame.h"
#include "src/transport/mux.h"
#include "src/transport/store_server.h"
#include "src/transport/transport.h"

namespace dynapipe {
namespace {

std::string UniqueSocketPath(const char* tag) {
  static std::atomic<uint64_t> counter{0};
  return std::string("/tmp/dynapipe-obs-") + tag + "-" +
         std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// A one-device, one-micro-batch plan an executor runs; the marker rides in
// the shape, so each marker encodes to distinct bytes.
sim::ExecutionPlan MarkerPlan(int32_t marker) {
  sim::ExecutionPlan plan;
  plan.num_microbatches = 1;
  sim::DevicePlan dev;
  sim::Instruction instr;
  instr.shape = {marker, 256, 64};
  dev.instructions.push_back(instr);  // the forward of micro-batch 0
  instr.type = sim::InstrType::kBackwardPass;
  dev.instructions.push_back(instr);
  plan.devices.push_back(std::move(dev));
  return plan;
}

// ---------- metrics: lock-free instruments ----------

TEST(MetricsTest, ConcurrentHammerIsLossless) {
  common::MetricsRegistry& reg = common::MetricsRegistry::Instance();
  common::Counter& counter = reg.GetCounter("obs_test_hammer_total");
  common::Gauge& gauge = reg.GetGauge("obs_test_hammer_gauge");
  common::LatencyHistogram& hist = reg.GetHistogram("obs_test_hammer_us");

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20'000;
  const int64_t counter_before = counter.value();
  const int64_t hist_count_before = hist.count();
  const int64_t hist_sum_before = hist.sum_us();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter.Add();
        gauge.Set(t);
        gauge.Add(0);
        hist.RecordUs(i % 128);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  EXPECT_EQ(counter.value() - counter_before,
            int64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(hist.count() - hist_count_before, int64_t{kThreads} * kOpsPerThread);
  int64_t per_thread_sum = 0;
  for (int i = 0; i < kOpsPerThread; ++i) {
    per_thread_sum += i % 128;
  }
  EXPECT_EQ(hist.sum_us() - hist_sum_before, int64_t{kThreads} * per_thread_sum);
  // Buckets account for every sample.
  int64_t bucket_total = 0;
  for (int b = 0; b < common::LatencyHistogram::kNumBuckets; ++b) {
    bucket_total += hist.bucket(b);
  }
  EXPECT_EQ(bucket_total, hist.count());
  // The gauge holds some thread's last write, not garbage.
  EXPECT_GE(gauge.value(), 0);
  EXPECT_LT(gauge.value(), kThreads);
}

TEST(MetricsTest, DisarmedInstrumentsAreInert) {
  common::MetricsRegistry& reg = common::MetricsRegistry::Instance();
  common::Counter& counter = reg.GetCounter("obs_test_disarm_total");
  common::LatencyHistogram& hist = reg.GetHistogram("obs_test_disarm_us");
  common::Gauge& gauge = reg.GetGauge("obs_test_disarm_gauge");

  counter.Add(5);
  gauge.Set(7);
  hist.RecordUs(100);
  common::Metrics::set_enabled(false);
  counter.Add(100);
  gauge.Set(999);
  hist.RecordUs(1'000'000);
  {
    // A timer constructed disarmed observes nothing even if re-armed later.
    const common::LatencyTimer timer;
    common::Metrics::set_enabled(true);
    timer.ObserveInto(hist);
  }
  EXPECT_EQ(counter.value(), 5);
  EXPECT_EQ(gauge.value(), 7);
  EXPECT_EQ(hist.count(), 1);
  EXPECT_EQ(hist.sum_us(), 100);
}

TEST(MetricsTest, SnapshotDeltaMatchesActivity) {
  common::MetricsRegistry& reg = common::MetricsRegistry::Instance();
  common::Counter& counter = reg.GetCounter("obs_test_delta_total");
  common::Gauge& gauge = reg.GetGauge("obs_test_delta_gauge");
  common::LatencyHistogram& hist = reg.GetHistogram("obs_test_delta_us");

  counter.Add(3);
  gauge.Set(10);
  hist.RecordUs(8);
  const common::MetricsSnapshot before = reg.Snapshot();

  counter.Add(4);
  gauge.Set(42);
  hist.RecordUs(16);
  hist.RecordUs(16);
  const common::MetricsSnapshot after = reg.Snapshot();

  const common::MetricsSnapshot delta = after.DeltaSince(before);
  EXPECT_EQ(delta.counter("obs_test_delta_total"), 4);
  // Gauges are levels, not rates: the delta keeps the later level.
  EXPECT_EQ(delta.gauge("obs_test_delta_gauge"), 42);
  const common::MetricsSnapshot::HistogramValue* h =
      delta.histogram("obs_test_delta_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_EQ(h->sum_us, 32);
}

TEST(MetricsTest, PrometheusTextExportsRegisteredInstruments) {
  common::MetricsRegistry& reg = common::MetricsRegistry::Instance();
  reg.GetCounter("obs_test_prom_total").Add(11);
  reg.GetGauge("obs_test_prom_gauge").Set(-3);
  reg.GetHistogram("obs_test_prom_us").RecordUs(5);
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("dynapipe_obs_test_prom_total 11"), std::string::npos);
  EXPECT_NE(text.find("dynapipe_obs_test_prom_gauge -3"), std::string::npos);
  EXPECT_NE(text.find("dynapipe_obs_test_prom_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("dynapipe_obs_test_prom_us_sum"), std::string::npos);
}

// ---------- clock payload codec ----------

TEST(ClockPayloadTest, RoundTripAndClamp) {
  for (const int64_t now_us : {int64_t{0}, int64_t{123'456'789}, INT64_MAX}) {
    std::string payload;
    transport::AppendClockPayload(now_us, &payload);
    int64_t parsed = -1;
    ASSERT_TRUE(transport::TryParseClockPayload(payload, &parsed));
    EXPECT_EQ(parsed, now_us);
  }
  // A negative clock encodes as 0.
  std::string payload;
  transport::AppendClockPayload(-42, &payload);
  int64_t parsed = -1;
  ASSERT_TRUE(transport::TryParseClockPayload(payload, &parsed));
  EXPECT_EQ(parsed, 0);
}

TEST(ClockPayloadTest, RejectsTruncationTrailingBytesAndOverflow) {
  std::string payload;
  transport::AppendClockPayload(INT64_MAX, &payload);
  int64_t parsed = 0;
  // Every proper prefix (the empty payload included) is rejected.
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(transport::TryParseClockPayload(
        std::string_view(payload.data(), len), &parsed))
        << "truncated payload of " << len << " bytes accepted";
  }
  // Trailing bytes are malformed.
  EXPECT_FALSE(transport::TryParseClockPayload(payload + '\0', &parsed));
  // A well-formed varint over INT64_MAX is not a clock.
  std::string overflow;
  service::AppendVarint(uint64_t{INT64_MAX} + 1, &overflow);
  EXPECT_FALSE(transport::TryParseClockPayload(overflow, &parsed));
  overflow.clear();
  service::AppendVarint(UINT64_MAX, &overflow);
  EXPECT_FALSE(transport::TryParseClockPayload(overflow, &parsed));
}

// ---------- clock exchange against a live server ----------

TEST(ClockChannelTest, ServerSurvivesHostileBytesAndStillServesClock) {
  const std::string socket_path = UniqueSocketPath("hostile");
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  transport::UnixSocketTransport transport(socket_path);
  transport::InstructionStoreServer server(&transport, &store);

  // A few hostile connections: raw garbage, attach payloads of 16 bytes and
  // of one byte (kAttach carries none), and a kClockReply sent as a request.
  // The server must shrug every one of them off. The framed ones are
  // complete, so the server judges them at once: it drops the connection and
  // the peer reads EOF, never a reply.
  const auto expect_dropped = [](transport::Stream& s, const char* what) {
    EXPECT_FALSE(ReadFrame(s).has_value()) << what << " was answered";
  };
  {
    std::unique_ptr<transport::Stream> s = transport.Connect();
    ASSERT_NE(s, nullptr);
    const std::string garbage = "\xff\xfe\xfd not a frame at all";
    s->WriteAll(garbage.data(), garbage.size());
  }
  for (const size_t payload_bytes : {size_t{16}, size_t{1}}) {
    std::unique_ptr<transport::Stream> s = transport.Connect();
    ASSERT_NE(s, nullptr);
    transport::Frame attach;
    attach.type = transport::FrameType::kAttach;
    attach.replica = 0;
    attach.payload = std::string(payload_bytes, '\x01');
    ASSERT_TRUE(WriteFrame(*s, attach));
    expect_dropped(*s, payload_bytes == 1 ? "1-byte attach payload"
                                          : "16-byte attach payload");
  }
  {
    std::unique_ptr<transport::Stream> s = transport.Connect();
    ASSERT_NE(s, nullptr);
    transport::Frame reply;
    reply.type = transport::FrameType::kClockReply;
    transport::AppendClockPayload(424242, &reply.payload);
    ASSERT_TRUE(WriteFrame(*s, reply));
    expect_dropped(*s, "unsolicited kClockReply");
  }

  // A well-behaved client still gets full service: attach, the clock
  // exchange, and plan traffic.
  std::shared_ptr<transport::MuxInstructionStore> client =
      transport::MuxInstructionStore::OverUnixSocket(socket_path);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->connection_ok());
  bool evicted = true;
  ASSERT_TRUE(client->Attach(0, &evicted, /*timeout_ms=*/2000));
  EXPECT_FALSE(evicted);
  ASSERT_TRUE(client->TrySyncClock(/*timeout_ms=*/2000));

  store.Push(7, 0, MarkerPlan(3));
  bool lost = false;
  std::optional<sim::ExecutionPlan> plan = client->TryFetch(7, 0, &lost);
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(lost);
  EXPECT_TRUE(client->connection_ok());

  EXPECT_TRUE(client->Detach(0));
  server.Stop();
}

// ---------- trace JSON helpers (shared by the tracing tests below) ----------

// Minimal well-formedness scan for the JSON this tracer emits: every quote
// closed (no escapes in our output except none — names are literals), every
// brace/bracket balanced, and nothing outside a string that isn't structural
// or a number. Not a general JSON parser; strict enough to catch a torn
// write or interleaved dump.
bool JsonWellFormed(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) {
          return false;
        }
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string;
}

struct ParsedEvent {
  std::string name;
  int64_t ts_us = 0;
  int64_t dur_us = 0;
  int pid = 0;
  int64_t iteration = common::kTraceNoIteration;
  int32_t replica = common::kTraceNoReplica;
};

// Field extraction by string search — sound because this test controls the
// writer and every event object lives on one line.
std::optional<int64_t> FindIntField(const std::string& line,
                                    const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return std::nullopt;
  }
  return std::stoll(line.substr(pos + needle.size()));
}

std::vector<ParsedEvent> ParseTraceLines(const std::string& text) {
  std::vector<ParsedEvent> events;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t name_pos = line.find("\"name\":\"");
    if (name_pos == std::string::npos) {
      continue;  // array brackets
    }
    ParsedEvent e;
    const size_t name_start = name_pos + 8;
    e.name = line.substr(name_start, line.find('"', name_start) - name_start);
    e.ts_us = FindIntField(line, "ts").value_or(0);
    e.dur_us = FindIntField(line, "dur").value_or(0);
    e.pid = static_cast<int>(FindIntField(line, "pid").value_or(0));
    e.iteration =
        FindIntField(line, "iteration").value_or(common::kTraceNoIteration);
    e.replica = static_cast<int32_t>(
        FindIntField(line, "replica").value_or(common::kTraceNoReplica));
    events.push_back(std::move(e));
  }
  return events;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------- tracing (enablement is sticky: these stay last) ----------

TEST(TraceTest, RingWraparoundKeepsRecentEventsAndWellFormedJson) {
  const std::string path =
      "/tmp/dynapipe-obs-wrap-" + std::to_string(::getpid()) + ".json";
  common::Tracer& tracer = common::Tracer::Instance();
  tracer.EnableToPath(path);
  ASSERT_TRUE(common::Tracer::enabled());

  // Overfill this thread's ring; the ring must keep exactly the newest
  // kRingCapacity events, oldest first, and also flush any events earlier
  // tests happened to record on other threads — hence the >= bounds on the
  // full dump and exact bounds on this thread's window.
  constexpr size_t kOverfill = 128;
  const size_t total = common::Tracer::kRingCapacity + kOverfill;
  for (size_t i = 0; i < total; ++i) {
    tracer.RecordComplete("wrap", "test", static_cast<int64_t>(i), 1,
                          static_cast<int64_t>(i));
  }
  std::string jsonl;
  tracer.DumpJsonl(&jsonl);

  const std::vector<ParsedEvent> events = ParseTraceLines(jsonl);
  std::vector<int64_t> wrap_iters;
  for (const ParsedEvent& e : events) {
    EXPECT_TRUE(JsonWellFormed(
        std::string("{") + e.name + "}"));  // name extracted cleanly
    if (e.name == "wrap") {
      wrap_iters.push_back(e.iteration);
    }
  }
  ASSERT_EQ(wrap_iters.size(), common::Tracer::kRingCapacity);
  // Oldest surviving event first, newest last, contiguous.
  EXPECT_EQ(wrap_iters.front(), static_cast<int64_t>(kOverfill));
  EXPECT_EQ(wrap_iters.back(), static_cast<int64_t>(total - 1));
  EXPECT_TRUE(std::is_sorted(wrap_iters.begin(), wrap_iters.end()));

  // The merged file is one well-formed JSON array.
  ASSERT_TRUE(tracer.WriteMergedTrace());
  const std::string merged = ReadFileOrEmpty(path);
  ASSERT_FALSE(merged.empty());
  EXPECT_EQ(merged.front(), '[');
  EXPECT_TRUE(JsonWellFormed(merged));
  std::remove(path.c_str());
}

// The acceptance run: three fork()ed mux executors under tracing, one merged
// trace, complete clock-aligned lifecycle chains for every (iteration,
// replica), and — the fork-inheritance regression — each parent-side
// "planned" span appears exactly once, not once per process.
TEST(TraceAcceptanceTest, ForkedMuxEpochProducesCompleteAlignedChains) {
  constexpr int kIterations = 3;
  constexpr int32_t kReplicas = 3;
  const std::string trace_path =
      "/tmp/dynapipe-obs-accept-" + std::to_string(::getpid()) + ".json";
  const std::string socket_path = UniqueSocketPath("accept");

  // Enable BEFORE fork so children inherit the tracer state, like they
  // inherit DYNAPIPE_TRACE in the daemon flow.
  common::Tracer::Instance().EnableToPath(trace_path);

  std::vector<pid_t> children;
  for (int32_t replica = 0; replica < kReplicas; ++replica) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      executor::ExecutorOptions opts;
      opts.attach = socket_path;
      opts.endpoint = executor::AttachEndpoint::kUnixSocketMux;
      opts.replica = replica;
      opts.iterations = kIterations;
      opts.slow_ms = 10.0;  // keep executed spans visibly wide
      const executor::ExecutorReport report = executor::RunExecutor(opts);
      const bool wrote = common::Tracer::Instance().WritePartFile();
      ::_exit(report.ok ? (wrote ? 0 : 5) : 2);
    }
    children.push_back(child);
  }

  executor::PublisherOptions options;
  options.attach = socket_path;
  options.fleet.replicas = {0, 1, 2};
  executor::Publisher publisher(options);
  runtime::RecoverableStore& store = *publisher.store();
  for (int i = 0; i < kIterations; ++i) {
    // The "planned" span a PlanAheadService iteration would emit; replica −1
    // because one planning pass covers every replica.
    common::TraceSpan planned("planned", "plan", i, /*replica=*/-1);
    for (int32_t replica = 0; replica < kReplicas; ++replica) {
      store.Push(i, replica, MarkerPlan(i * kReplicas + replica + 1));
    }
  }

  for (const pid_t child : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "executor exited with status " << status;
  }
  publisher.Stop();
  ASSERT_TRUE(common::Tracer::Instance().WriteMergedTrace());

  const std::string merged = ReadFileOrEmpty(trace_path);
  ASSERT_FALSE(merged.empty());
  EXPECT_TRUE(JsonWellFormed(merged));
  const std::vector<ParsedEvent> events = ParseTraceLines(merged);

  // All four processes contributed.
  std::set<int> pids;
  for (const ParsedEvent& e : events) {
    pids.insert(e.pid);
  }
  EXPECT_EQ(pids.size(), static_cast<size_t>(kReplicas + 1));

  // Fork-inheritance regression: children must NOT replay the parent's
  // pre-fork ring. "planned" spans are parent-only, one per iteration.
  const int parent_pid = static_cast<int>(::getpid());
  int planned_count = 0;
  for (const ParsedEvent& e : events) {
    if (e.name == "planned") {
      ++planned_count;
      EXPECT_EQ(e.pid, parent_pid) << "child replayed a parent-side span";
    }
  }
  EXPECT_EQ(planned_count, kIterations);

  // Index the chain per (iteration, replica): first event of each name wins.
  std::map<std::pair<int64_t, int32_t>, std::map<std::string, ParsedEvent>>
      chains;
  std::map<int64_t, ParsedEvent> planned_by_iter;
  for (const ParsedEvent& e : events) {
    if (e.iteration == common::kTraceNoIteration) {
      continue;
    }
    if (e.name == "planned") {
      planned_by_iter.emplace(e.iteration, e);
      continue;
    }
    auto& chain = chains[{e.iteration, e.replica}];
    chain.emplace(e.name, e);
  }

  // Clock alignment across processes is RTT-midpoint on a local socket plus
  // a shared wall anchor; allow a small slack on the one cross-process edge.
  constexpr int64_t kCrossProcessSlackUs = 2000;
  for (int i = 0; i < kIterations; ++i) {
    ASSERT_TRUE(planned_by_iter.count(i)) << "iteration " << i;
    const ParsedEvent& planned = planned_by_iter[i];
    for (int32_t replica = 0; replica < kReplicas; ++replica) {
      SCOPED_TRACE("iteration " + std::to_string(i) + " replica " +
                   std::to_string(replica));
      auto it = chains.find({i, replica});
      ASSERT_NE(it, chains.end());
      const std::map<std::string, ParsedEvent>& chain = it->second;
      for (const char* stage :
           {"published", "fetched", "decoded", "executed", "heartbeat"}) {
        ASSERT_TRUE(chain.count(stage)) << "missing span: " << stage;
      }
      const ParsedEvent& published = chain.at("published");
      const ParsedEvent& fetched = chain.at("fetched");
      const ParsedEvent& decoded = chain.at("decoded");
      const ParsedEvent& executed = chain.at("executed");
      const ParsedEvent& heartbeat = chain.at("heartbeat");
      // Parent-side, same clock: planning starts before its publish.
      EXPECT_EQ(published.pid, parent_pid);
      EXPECT_LE(planned.ts_us, published.ts_us);
      // The one cross-process edge: the child cannot fetch before the
      // parent published (modulo alignment error).
      EXPECT_NE(fetched.pid, parent_pid);
      EXPECT_LE(published.ts_us, fetched.ts_us + kCrossProcessSlackUs);
      // Child-side, same clock, strictly sequential code.
      EXPECT_EQ(decoded.pid, fetched.pid);
      EXPECT_EQ(executed.pid, fetched.pid);
      EXPECT_EQ(heartbeat.pid, fetched.pid);
      EXPECT_LE(fetched.ts_us, decoded.ts_us);
      EXPECT_LE(decoded.ts_us, executed.ts_us);
      EXPECT_LE(executed.ts_us, heartbeat.ts_us);
      // The slowed executor span is visibly wide.
      EXPECT_GE(executed.dur_us, 5'000);
    }
  }
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace dynapipe
