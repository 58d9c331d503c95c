// Tests for the plan-ahead service subsystem (src/service): the binary plan
// serde (round-trip on every instruction kind), the serialized /
// capacity-bounded instruction store (publish-before-fetch contract,
// double-publish death, backpressure), the cross-iteration plan cache
// (signatures, LRU, byte cap, rebinding), and PlanAheadService — whose
// plans must be bit-identical to inline serial planning at any lookahead,
// cache on/off, serde on/off, and whose cache hits must skip partition and
// schedule work entirely.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fault_injection.h"
#include "src/common/thread_pool.h"
#include "src/data/flan_generator.h"
#include "src/data/minibatch_sampler.h"
#include "src/runtime/instruction_store.h"
#include "src/runtime/planner.h"
#include "src/runtime/trainer.h"
#include "src/service/fleet.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/plan_ahead_service.h"
#include "src/service/plan_cache.h"
#include "src/service/plan_serde.h"
#include "src/transport/frame.h"
#include "src/transport/mux.h"
#include "src/transport/shm_store.h"
#include "src/transport/store_server.h"
#include "src/transport/transport.h"

namespace dynapipe {
namespace {

// TSan intercepts the fork/re-exec machinery death tests rely on; the
// sanitizer job covers the concurrency tests instead.
#if defined(__SANITIZE_THREAD__)
#define DYNAPIPE_DEATH_TESTS 0
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DYNAPIPE_DEATH_TESTS 0
#else
#define DYNAPIPE_DEATH_TESTS 1
#endif
#else
#define DYNAPIPE_DEATH_TESTS 1
#endif

// ---------- plan serde ----------

sim::ExecutionPlan SamplePlan() {
  // Every instruction kind, every recompute mode, sentinel peers/fusion
  // groups, and multi-byte varint values.
  sim::ExecutionPlan plan;
  plan.num_microbatches = 300;  // forces a 2-byte varint
  const model::RecomputeMode modes[] = {model::RecomputeMode::kNone,
                                        model::RecomputeMode::kSelective,
                                        model::RecomputeMode::kFull};
  for (int32_t d = 0; d < 3; ++d) {
    sim::DevicePlan dev;
    dev.device = d;
    for (int32_t t = 0; t < sim::kNumInstrTypes; ++t) {
      sim::Instruction instr;
      instr.type = static_cast<sim::InstrType>(t);
      instr.microbatch = 17 * t + d;
      instr.peer = sim::IsCompute(instr.type) ? -1 : (d + 1) % 3;
      instr.bytes = sim::IsCompute(instr.type) ? 0 : (int64_t{1} << 33) + t;
      instr.shape = {8, 2048, t % 2 == 0 ? 0 : 512};
      instr.recompute = modes[t % 3];
      instr.fusion_group = t % 4 == 0 ? -1 : t;
      dev.instructions.push_back(instr);
    }
    plan.devices.push_back(std::move(dev));
  }
  return plan;
}

TEST(PlanSerdeTest, VarintRoundTrip) {
  for (const uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                           ~0ull, ~0ull >> 1}) {
    std::string buf;
    service::AppendVarint(v, &buf);
    size_t pos = 0;
    EXPECT_EQ(service::ParseVarint(buf, &pos), v);
    EXPECT_EQ(pos, buf.size());
  }
  for (const int64_t v : std::vector<int64_t>{0, -1, 1, -64, 64, INT64_MIN,
                                              INT64_MAX}) {
    std::string buf;
    service::AppendZigzag(v, &buf);
    size_t pos = 0;
    EXPECT_EQ(service::ParseZigzag(buf, &pos), v);
    EXPECT_EQ(pos, buf.size());
  }
  // The -1 sentinels must stay single-byte.
  std::string buf;
  service::AppendZigzag(-1, &buf);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(PlanSerdeTest, RoundTripEveryInstructionKind) {
  const sim::ExecutionPlan plan = SamplePlan();
  const std::string bytes = service::EncodeExecutionPlan(plan);
  EXPECT_GT(bytes.size(), 0u);
  const sim::ExecutionPlan decoded = service::DecodeExecutionPlan(bytes);
  EXPECT_EQ(decoded, plan);
}

TEST(PlanSerdeTest, RoundTripEmptyPlan) {
  sim::ExecutionPlan plan;
  plan.num_microbatches = 0;
  const sim::ExecutionPlan decoded =
      service::DecodeExecutionPlan(service::EncodeExecutionPlan(plan));
  EXPECT_EQ(decoded, plan);
}

TEST(PlanSerdeTest, SingleInstructionHookRoundTrip) {
  const sim::ExecutionPlan plan = SamplePlan();
  for (const auto& dev : plan.devices) {
    for (const auto& instr : dev.instructions) {
      std::string buf;
      service::AppendInstruction(instr, &buf);
      size_t pos = 0;
      EXPECT_EQ(service::ParseInstruction(buf, &pos), instr);
      EXPECT_EQ(pos, buf.size());
    }
  }
}

#if DYNAPIPE_DEATH_TESTS
TEST(PlanSerdeDeathTest, RejectsCorruptBuffers) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string bytes = service::EncodeExecutionPlan(SamplePlan());
  EXPECT_DEATH(service::DecodeExecutionPlan(bytes.substr(0, bytes.size() - 1)),
               "truncated");
  EXPECT_DEATH(service::DecodeExecutionPlan("XXXX" + bytes.substr(4)),
               "bad magic");
  EXPECT_DEATH(service::DecodeExecutionPlan(bytes + std::string(1, '\0')),
               "trailing");
}
#endif

// ---------- instruction store ----------

TEST(InstructionStoreTest, SerializedModeRoundTrips) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  const sim::ExecutionPlan plan = SamplePlan();
  store.Push(3, 1, plan);
  EXPECT_TRUE(store.Contains(3, 1));
  EXPECT_GT(store.serialized_bytes_total(), 0);
  const sim::ExecutionPlan fetched = store.Fetch(3, 1);
  EXPECT_EQ(fetched, plan);
  EXPECT_FALSE(store.Contains(3, 1));
}

#if DYNAPIPE_DEATH_TESTS
TEST(InstructionStoreDeathTest, DoublePublishDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  runtime::InstructionStore store;
  store.Push(0, 0, SamplePlan());
  EXPECT_DEATH(store.Push(0, 0, SamplePlan()), "already published");
}

TEST(InstructionStoreDeathTest, FetchBeforePublishDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  runtime::InstructionStore store;
  store.Push(1, 0, SamplePlan());
  EXPECT_DEATH(store.Fetch(1, 1), "unpublished");
}
#endif

TEST(InstructionStoreTest, CapacityBackpressuresPush) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/false, /*capacity=*/2});
  store.Push(0, 0, {});
  store.Push(1, 0, {});
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    store.Push(2, 0, {});
    third_pushed.store(true);
  });
  // The third Push must block while two plans are resident.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(store.size(), 2u);
  // A Fetch frees a slot and unblocks it.
  store.Fetch(0, 0);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Contains(2, 0));
}

TEST(InstructionStoreTest, ShutdownUnblocksBlockedPush) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/false, /*capacity=*/1});
  store.Push(0, 0, {});
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    store.Push(1, 0, {});  // blocks at capacity, then dropped by Shutdown
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  store.Shutdown();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(store.Contains(1, 0));
  // Plans published before shutdown stay fetchable.
  EXPECT_TRUE(store.Contains(0, 0));
}

// ---------- plan cache ----------

std::vector<data::Sample> MakeBatch(std::vector<std::pair<int32_t, int32_t>> lens,
                                    uint64_t id_base) {
  std::vector<data::Sample> out;
  for (size_t i = 0; i < lens.size(); ++i) {
    data::Sample s;
    s.id = id_base + i;
    s.input_len = lens[i].first;
    s.target_len = lens[i].second;
    out.push_back(s);
  }
  return out;
}

TEST(PlanCacheTest, SignatureIgnoresSampleOrderAndIds) {
  const auto a = MakeBatch({{100, 20}, {50, 10}, {100, 20}}, 0);
  const auto b = MakeBatch({{50, 10}, {100, 20}, {100, 20}}, 1000);
  const auto sig_a = service::PlanCache::Signature(a, false, 42);
  const auto sig_b = service::PlanCache::Signature(b, false, 42);
  EXPECT_EQ(sig_a, sig_b);
  // Different lengths, config hash, or fold all split the key.
  EXPECT_NE(sig_a, service::PlanCache::Signature(
                       MakeBatch({{100, 20}, {50, 10}, {100, 21}}, 0), false, 42));
  EXPECT_NE(sig_a.hash, service::PlanCache::Signature(a, false, 43).hash);
  EXPECT_NE(sig_a.hash, service::PlanCache::Signature(a, true, 42).hash);
}

TEST(PlanCacheTest, FoldedSignatureMatchesDecoderOnlyCanonicalization) {
  // For GPT, (90, 10) and (100, 0) are the same planned sample.
  const auto a = MakeBatch({{90, 10}}, 0);
  const auto b = MakeBatch({{100, 0}}, 50);
  EXPECT_EQ(service::PlanCache::Signature(a, true, 7),
            service::PlanCache::Signature(b, true, 7));
  EXPECT_NE(service::PlanCache::Signature(a, false, 7),
            service::PlanCache::Signature(b, false, 7));
}

runtime::IterationPlan TinyFeasiblePlan(const std::vector<data::Sample>& mb) {
  // A structurally minimal feasible plan whose micro-batch holds `mb`.
  runtime::IterationPlan plan;
  plan.feasible = true;
  runtime::ReplicaPlan replica;
  replica.micro_batches.push_back(mb::MakeMicroBatch(mb));
  plan.replicas.push_back(std::move(replica));
  return plan;
}

TEST(PlanCacheTest, LruEvictionAtCapacity) {
  service::PlanCache cache(service::PlanCacheOptions{2});
  const auto b0 = MakeBatch({{10, 0}}, 0);
  const auto b1 = MakeBatch({{20, 0}}, 0);
  const auto b2 = MakeBatch({{30, 0}}, 0);
  const auto s0 = service::PlanCache::Signature(b0, true, 1);
  const auto s1 = service::PlanCache::Signature(b1, true, 1);
  const auto s2 = service::PlanCache::Signature(b2, true, 1);
  cache.Insert(s0, TinyFeasiblePlan(b0));
  cache.Insert(s1, TinyFeasiblePlan(b1));
  // Touch s0 so s1 is least recently used, then insert s2.
  EXPECT_TRUE(cache.Lookup(s0, b0, true).has_value());
  cache.Insert(s2, TinyFeasiblePlan(b2));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(s0, b0, true).has_value());
  EXPECT_TRUE(cache.Lookup(s2, b2, true).has_value());
  EXPECT_FALSE(cache.Lookup(s1, b1, true).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 1);
}

TEST(PlanCacheTest, InfeasiblePlansAreNotCached) {
  service::PlanCache cache;
  const auto b = MakeBatch({{10, 0}}, 0);
  const auto sig = service::PlanCache::Signature(b, true, 1);
  cache.Insert(sig, runtime::IterationPlan{});  // infeasible default
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(sig, b, true).has_value());
}

std::vector<data::Sample> LengthRun(int n, int32_t input, int32_t target) {
  return MakeBatch(std::vector<std::pair<int32_t, int32_t>>(
                       static_cast<size_t>(n), {input, target}),
                   0);
}

TEST(PlanCacheBytesTest, ByteCapEvictsButKeepsMostRecent) {
  service::PlanCacheOptions opts;
  opts.capacity = 100;
  opts.max_bytes = 1;  // every entry exceeds it
  service::PlanCache cache(opts);
  for (int i = 0; i < 4; ++i) {
    const auto batch = LengthRun(8, 100 + i, 10);
    cache.Insert(service::PlanCache::Signature(batch, false, 0),
                 TinyFeasiblePlan(batch));
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GT(cache.stats().evictions, 0);
  EXPECT_GT(cache.bytes(), 0u);
  // The survivor is the most recent signature.
  const auto last = LengthRun(8, 103, 10);
  EXPECT_TRUE(cache.Lookup(service::PlanCache::Signature(last, false, 0), last, false)
                  .has_value());
}

TEST(PlanCacheBytesTest, EstimateTracksInsertAndEvict) {
  service::PlanCache cache(service::PlanCacheOptions{});
  const auto batch = LengthRun(16, 200, 20);
  const runtime::IterationPlan plan = TinyFeasiblePlan(batch);
  const size_t estimate = service::PlanCache::EstimatePlanBytes(plan);
  EXPECT_GT(estimate, sizeof(runtime::IterationPlan));
  cache.Insert(service::PlanCache::Signature(batch, false, 0), plan);
  EXPECT_GE(cache.bytes(), estimate);
}

TEST(PlanCacheTest, RebindSwapsSamplesByLength) {
  const auto original = MakeBatch({{100, 0}, {100, 0}, {40, 0}}, 0);
  const auto replay = MakeBatch({{40, 0}, {100, 0}, {100, 0}}, 500);
  runtime::IterationPlan rebound = service::PlanCache::Rebind(
      TinyFeasiblePlan(original), replay, true);
  int64_t seen = 0;
  for (const auto& s : rebound.replicas[0].micro_batches[0].samples) {
    EXPECT_GE(s.id, 500u);  // every slot now holds a replay sample
    seen += s.total_tokens();
  }
  EXPECT_EQ(seen, 240);
  EXPECT_EQ(rebound.replicas[0].micro_batches[0].shape,
            (model::MicroBatchShape{3, 100, 0}));
}

// ---------- PlanAheadService ----------

cost::ProfileOptions SmallProfile() {
  cost::ProfileOptions opts;
  opts.max_microbatch_size = 32;
  opts.max_seq_len = 4096;
  return opts;
}

runtime::PlannerOptions FastPlanner() {
  runtime::PlannerOptions opts;
  opts.max_tmax_candidates = 48;
  opts.tmax_interval_ms = 0.5;
  opts.max_microbatch_size = 32;
  opts.reorder_clusters = 2;
  opts.dynamic_recompute = false;
  return opts;
}

struct EpochPlans {
  std::vector<runtime::IterationPlan> plans;  // exec plans fetched back in
  std::vector<bool> cache_hits;
  std::vector<double> stalls_ms;
  int64_t real_tokens = 0;
  service::PlanAheadServiceStats stats;
};

class PlanAheadServiceTest : public ::testing::Test {
 protected:
  PlanAheadServiceTest()
      : cm_(cost::PipelineCostModel::Profile(model::ModelConfig::Gpt3_35B(),
                                             model::HardwareSpec{}, {1, 1, 4},
                                             SmallProfile())) {}

  static data::Dataset SmallDataset() {
    data::FlanGeneratorOptions gen;
    gen.num_samples = 300;
    gen.length_cap = 1024;
    return data::GenerateFlanLikeDataset(gen);
  }

  // Runs one 4-iteration epoch through the service and fetches every exec
  // plan back out of the store.
  EpochPlans Collect(service::PlanAheadOptions sopts,
                     const data::Dataset& dataset) {
    runtime::IterationPlanner planner(cm_, FastPlanner());
    data::MiniBatchSamplerOptions so;
    so.global_batch_tokens = 6144;
    so.max_input_len = 1024;
    so.seed = 7;
    data::MiniBatchSampler sampler(dataset, so);
    int32_t submitted = 0;
    auto source = [&]() -> std::vector<data::Sample> {
      if (submitted >= 4 || !sampler.HasNext()) {
        return {};
      }
      ++submitted;
      return sampler.Next();
    };
    sopts.fold_target_lengths = true;  // GPT
    service::PlanAheadService svc(
        [&](const std::vector<data::Sample>& mb) {
          return planner.PlanIteration(mb);
        },
        source, sopts);
    EpochPlans out;
    int64_t expected_iteration = 0;
    while (std::optional<service::ServicedPlan> sp = svc.NextPlan()) {
      EXPECT_EQ(sp->iteration, expected_iteration++);
      EXPECT_TRUE(sp->plan.feasible) << sp->plan.infeasible_reason;
      for (size_t d = 0; d < sp->plan.replicas.size(); ++d) {
        sp->plan.replicas[d].exec_plan =
            svc.FetchExecPlan(sp->iteration, static_cast<int32_t>(d));
        for (const auto& m : sp->plan.replicas[d].micro_batches) {
          out.real_tokens += m.real_tokens();
        }
      }
      out.cache_hits.push_back(sp->plan_cache_hit);
      out.stalls_ms.push_back(sp->stall_ms);
      out.plans.push_back(std::move(sp->plan));
    }
    out.stats = svc.stats();
    return out;
  }

  static void ExpectPlansBitIdentical(const EpochPlans& a, const EpochPlans& b) {
    ASSERT_EQ(a.plans.size(), b.plans.size());
    EXPECT_EQ(a.real_tokens, b.real_tokens);
    for (size_t i = 0; i < a.plans.size(); ++i) {
      const auto& pa = a.plans[i];
      const auto& pb = b.plans[i];
      EXPECT_EQ(pa.recompute, pb.recompute);
      EXPECT_EQ(pa.predicted_iteration_ms, pb.predicted_iteration_ms);
      EXPECT_EQ(pa.padding.real_input_tokens, pb.padding.real_input_tokens);
      EXPECT_EQ(pa.padding.padded_input_tokens, pb.padding.padded_input_tokens);
      EXPECT_EQ(pa.padding.real_target_tokens, pb.padding.real_target_tokens);
      EXPECT_EQ(pa.padding.padded_target_tokens, pb.padding.padded_target_tokens);
      ASSERT_EQ(pa.replicas.size(), pb.replicas.size());
      for (size_t d = 0; d < pa.replicas.size(); ++d) {
        ASSERT_EQ(pa.replicas[d].micro_batches.size(),
                  pb.replicas[d].micro_batches.size());
        for (size_t k = 0; k < pa.replicas[d].micro_batches.size(); ++k) {
          const mb::MicroBatch& lhs = pa.replicas[d].micro_batches[k];
          const mb::MicroBatch& rhs = pb.replicas[d].micro_batches[k];
          ASSERT_EQ(lhs.samples.size(), rhs.samples.size());
          for (size_t j = 0; j < lhs.samples.size(); ++j) {
            EXPECT_EQ(lhs.samples[j].input_len, rhs.samples[j].input_len);
            EXPECT_EQ(lhs.samples[j].target_len, rhs.samples[j].target_len);
          }
          EXPECT_EQ(lhs.shape, rhs.shape);
          EXPECT_EQ(lhs.predicted_time_ms, rhs.predicted_time_ms);
        }
        // The serialized instruction stream is shape-only, so it must be
        // byte-for-byte identical across lookahead/cache/serde modes.
        EXPECT_EQ(pa.replicas[d].exec_plan, pb.replicas[d].exec_plan);
      }
    }
  }

  cost::PipelineCostModel cm_;
};

TEST_F(PlanAheadServiceTest, AnyLookaheadCacheSerdeBitIdenticalToInline) {
  const data::Dataset dataset = SmallDataset();
  service::PlanAheadOptions inline_opts;  // lookahead 0, no cache, no serde
  const EpochPlans base = Collect(inline_opts, dataset);
  ASSERT_EQ(base.plans.size(), 4u);

  ThreadPool pool(2);
  for (const int32_t lookahead : {0, 2, 4}) {
    for (const bool cache : {false, true}) {
      for (const bool serde : {false, true}) {
        if (lookahead == 0 && !cache && !serde) {
          continue;  // that is `base`
        }
        service::PlanAheadOptions sopts;
        sopts.lookahead = lookahead;
        sopts.pool = lookahead > 0 ? &pool : nullptr;
        if (cache) {
          sopts.plan_cache = std::make_shared<service::PlanCache>();
          sopts.config_hash = 99;
        }
        sopts.serialize_plans = serde;
        sopts.store_capacity = serde ? 3 : 0;  // exercise the bound too
        const EpochPlans got = Collect(sopts, dataset);
        SCOPED_TRACE("lookahead=" + std::to_string(lookahead) +
                     " cache=" + std::to_string(cache) +
                     " serde=" + std::to_string(serde));
        ExpectPlansBitIdentical(base, got);
      }
    }
  }
}

// The server half of a wire-backed store: storage, transport, server, and the
// mux client the service publishes through. Declaration order is teardown
// order in reverse — the client must close before the server tears down.
struct WireBackend {
  WireBackend(std::unique_ptr<transport::Transport> t, size_t capacity)
      : store(runtime::InstructionStoreOptions{/*serialized=*/true, capacity}),
        transport(std::move(t)), server(transport.get(), &store),
        client(transport::MuxInstructionStore::OverTransport(transport.get())) {}

  runtime::InstructionStore store;
  std::unique_ptr<transport::Transport> transport;
  transport::InstructionStoreServer server;
  std::shared_ptr<transport::MuxInstructionStore> client;
};

TEST_F(PlanAheadServiceTest, TransportBackendsBitIdenticalToInline) {
  // The transport axis of the bit-identity matrix: publishing through the
  // mux client over the loopback or Unix-socket wire or through the
  // shared-memory segment must
  // deliver exactly the plans the in-process inline path does, at any
  // lookahead, cache on or off.
  const data::Dataset dataset = SmallDataset();
  const EpochPlans base = Collect({}, dataset);
  ASSERT_EQ(base.plans.size(), 4u);

  ThreadPool pool(2);
  int backend_id = 0;
  enum class Kind { kLoopback, kSocket, kShm };
  for (const Kind kind : {Kind::kLoopback, Kind::kSocket, Kind::kShm}) {
    for (const int32_t lookahead : {0, 2}) {
      for (const bool cache : {false, true}) {
        const std::string id = std::to_string(::getpid()) + "-" +
                               std::to_string(backend_id++);
        // The server half (when the backend has one) plus the client the
        // service publishes through, and how to read the server-side byte
        // counter the client volume must match.
        std::unique_ptr<WireBackend> wire;
        std::shared_ptr<runtime::InstructionStoreInterface> client;
        std::function<int64_t()> server_bytes;
        switch (kind) {
          case Kind::kLoopback:
          case Kind::kSocket: {
            std::unique_ptr<transport::Transport> t;
            if (kind == Kind::kSocket) {
              t = std::make_unique<transport::UnixSocketTransport>(
                  "/tmp/dynapipe-svc-" + id + ".sock");
            } else {
              t = std::make_unique<transport::LoopbackTransport>();
            }
            wire = std::make_unique<WireBackend>(std::move(t), /*capacity=*/3);
            client = wire->client;
            server_bytes = [&w = wire->store] {
              return w.serialized_bytes_total();
            };
            break;
          }
          case Kind::kShm: {
            auto shm = transport::ShmInstructionStore::Create(
                "/dynapipe-svc-" + id,
                transport::ShmStoreOptions{/*capacity=*/3, /*num_slots=*/64,
                                           /*arena_bytes=*/size_t{1} << 20});
            client = shm;
            server_bytes = [shm] { return shm->serialized_bytes_total(); };
            break;
          }
        }
        service::PlanAheadOptions sopts;
        sopts.lookahead = lookahead;
        sopts.pool = lookahead > 0 ? &pool : nullptr;
        if (cache) {
          sopts.plan_cache = std::make_shared<service::PlanCache>();
          sopts.config_hash = 99;
        }
        sopts.store = client;
        sopts.store_capacity = 3;  // mirrors the backend store's bound
        const EpochPlans got = Collect(sopts, dataset);
        SCOPED_TRACE("backend=" + std::to_string(static_cast<int>(kind)) +
                     " lookahead=" + std::to_string(lookahead) +
                     " cache=" + std::to_string(cache));
        ExpectPlansBitIdentical(base, got);
        // The wire volume is real and matches what the backend store holds
        // accounted (every plan crossed an encode boundary).
        EXPECT_GT(got.stats.published_bytes, 0);
        EXPECT_EQ(got.stats.published_bytes, server_bytes());
      }
    }
  }
}

TEST_F(PlanAheadServiceTest, CacheHitSkipsPartitionAndScheduleWork) {
  // The same length multiset twice (fresh sample ids the second time): the
  // second iteration must be served from the plan cache with zero planning
  // phase work.
  std::vector<std::vector<data::Sample>> batches = {
      MakeBatch({{200, 0}, {200, 0}, {150, 0}, {90, 0}, {90, 0}, {64, 0}}, 0),
      MakeBatch({{90, 0}, {200, 0}, {64, 0}, {150, 0}, {90, 0}, {200, 0}}, 100),
  };
  size_t next = 0;
  auto source = [&]() -> std::vector<data::Sample> {
    return next < batches.size() ? batches[next++] : std::vector<data::Sample>{};
  };
  runtime::IterationPlanner planner(cm_, FastPlanner());
  service::PlanAheadOptions sopts;
  sopts.plan_cache = std::make_shared<service::PlanCache>();
  sopts.fold_target_lengths = true;
  service::PlanAheadService svc(
      [&](const std::vector<data::Sample>& mb) {
        return planner.PlanIteration(mb);
      },
      source, sopts);

  std::optional<service::ServicedPlan> first = svc.NextPlan();
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->plan_cache_hit);
  EXPECT_GT(first->plan.stats.partition_ms, 0.0);
  const sim::ExecutionPlan exec0 = svc.FetchExecPlan(0, 0);

  std::optional<service::ServicedPlan> second = svc.NextPlan();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->plan_cache_hit);
  // The hit skipped partitioning and scheduling entirely.
  EXPECT_EQ(second->plan.stats.partition_ms, 0.0);
  EXPECT_EQ(second->plan.stats.schedule_ms, 0.0);
  EXPECT_EQ(second->plan.stats.cost_cache_hits +
                second->plan.stats.cost_cache_misses,
            0);
  EXPECT_EQ(second->plan.stats.recompute_modes_tried, 0);
  // ...but produced the identical plan, rebound to the new samples.
  EXPECT_EQ(second->plan.predicted_iteration_ms,
            first->plan.predicted_iteration_ms);
  EXPECT_EQ(svc.FetchExecPlan(1, 0), exec0);
  int64_t tokens = 0;
  for (const auto& m : second->plan.replicas[0].micro_batches) {
    for (const auto& s : m.samples) {
      EXPECT_GE(s.id, 100u);
      tokens += s.total_tokens();
    }
  }
  EXPECT_EQ(tokens, 794);

  EXPECT_FALSE(svc.NextPlan().has_value());
  const auto stats = svc.stats();
  EXPECT_EQ(stats.plan_cache_hits, 1);
  EXPECT_EQ(stats.plan_cache_misses, 1);
  EXPECT_EQ(stats.plans_delivered, 2);
}

TEST_F(PlanAheadServiceTest, DecoderOnlyCacheHitEqualsFreshPlan) {
  // GPT samples with response tokens, replayed under fresh ids: the hit must
  // carry the folded samples and padding stats a fresh plan of the replayed
  // batch has, not the raw (input, target) pairs.
  std::vector<std::vector<data::Sample>> batches = {
      MakeBatch({{180, 20}, {120, 30}, {60, 4}, {50, 14}, {40, 0}}, 0),
      MakeBatch({{50, 14}, {40, 0}, {180, 20}, {60, 4}, {120, 30}}, 100),
  };
  size_t next = 0;
  auto source = [&]() -> std::vector<data::Sample> {
    return next < batches.size() ? batches[next++] : std::vector<data::Sample>{};
  };
  runtime::IterationPlanner planner(cm_, FastPlanner());
  service::PlanAheadOptions sopts;
  sopts.plan_cache = std::make_shared<service::PlanCache>();
  sopts.fold_target_lengths = true;
  service::PlanAheadService svc(
      [&](const std::vector<data::Sample>& mb) {
        return planner.PlanIteration(mb);
      },
      source, sopts);

  EpochPlans served;
  EpochPlans fresh;
  while (std::optional<service::ServicedPlan> sp = svc.NextPlan()) {
    for (size_t d = 0; d < sp->plan.replicas.size(); ++d) {
      sp->plan.replicas[d].exec_plan =
          svc.FetchExecPlan(sp->iteration, static_cast<int32_t>(d));
    }
    served.cache_hits.push_back(sp->plan_cache_hit);
    served.plans.push_back(std::move(sp->plan));
  }
  for (const auto& batch : batches) {
    fresh.plans.push_back(planner.PlanIteration(batch));
  }
  ASSERT_EQ(served.cache_hits, (std::vector<bool>{false, true}));
  ExpectPlansBitIdentical(fresh, served);
  const mb::PaddingStats& hit = served.plans[1].padding;
  EXPECT_EQ(hit.real_target_tokens, 0);
  EXPECT_EQ(hit.real_input_tokens, 518);
}

TEST_F(PlanAheadServiceTest, TeardownWithUnfetchedPlansDoesNotHang) {
  // Consume one plan, never fetch its exec plans, and destroy the service
  // with the store full, publishes deferred, and tasks still in flight:
  // Shutdown must drain them all without delivering anything.
  const data::Dataset dataset = SmallDataset();
  runtime::IterationPlanner planner(cm_, FastPlanner());
  data::MiniBatchSamplerOptions so;
  so.global_batch_tokens = 4096;
  so.max_input_len = 1024;
  data::MiniBatchSampler sampler(dataset, so);
  auto source = [&]() -> std::vector<data::Sample> {
    return sampler.HasNext() ? sampler.Next() : std::vector<data::Sample>{};
  };
  ThreadPool pool(2);
  service::PlanAheadOptions sopts;
  sopts.lookahead = 3;
  sopts.pool = &pool;
  sopts.store_capacity = 1;
  {
    service::PlanAheadService svc(
        [&](const std::vector<data::Sample>& mb) {
          return planner.PlanIteration(mb);
        },
        source, sopts);
    std::optional<service::ServicedPlan> sp = svc.NextPlan();
    ASSERT_TRUE(sp.has_value());
  }  // destructor: shutdown, drain in-flight tasks
  SUCCEED();
}

TEST_F(PlanAheadServiceTest, PlanningExceptionSurfacesAsInfeasiblePlan) {
  // A throwing planner must not wedge the pipeline (the slot would otherwise
  // never be planned); it surfaces as an infeasible plan instead.
  for (const int32_t lookahead : {0, 2}) {
    ThreadPool pool(2);
    size_t next = 0;
    auto source = [&]() -> std::vector<data::Sample> {
      return next++ == 0 ? MakeBatch({{64, 0}}, 0) : std::vector<data::Sample>{};
    };
    service::PlanAheadOptions sopts;
    sopts.lookahead = lookahead;
    sopts.pool = lookahead > 0 ? &pool : nullptr;
    service::PlanAheadService svc(
        [](const std::vector<data::Sample>&) -> runtime::IterationPlan {
          throw std::runtime_error("cost model exploded");
        },
        source, sopts);
    std::optional<service::ServicedPlan> sp = svc.NextPlan();
    ASSERT_TRUE(sp.has_value());
    EXPECT_FALSE(sp->plan.feasible);
    EXPECT_NE(sp->plan.infeasible_reason.find("cost model exploded"),
              std::string::npos);
    EXPECT_FALSE(svc.NextPlan().has_value());
  }
}

TEST_F(PlanAheadServiceTest, EmptySourceYieldsNoPlans) {
  runtime::IterationPlanner planner(cm_, FastPlanner());
  service::PlanAheadService svc(
      [&](const std::vector<data::Sample>& mb) {
        return planner.PlanIteration(mb);
      },
      []() { return std::vector<data::Sample>{}; }, {});
  EXPECT_FALSE(svc.NextPlan().has_value());
  EXPECT_FALSE(svc.NextPlan().has_value());  // idempotent after drain
}

// ---------- trainer integration ----------

TEST(TrainerServiceTest, LookaheadCacheSerdeEpochIdenticalToInline) {
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  runtime::Trainer trainer(config, hw, {1, 1, 4}, SmallProfile());
  data::FlanGeneratorOptions gen;
  gen.num_samples = 300;
  gen.length_cap = 1024;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);

  runtime::TrainerOptions inline_opts;
  inline_opts.global_batch_tokens = 6144;
  inline_opts.max_input_len = 1024;
  inline_opts.max_iterations = 3;
  const runtime::EpochResult base =
      trainer.RunEpoch(dataset, FastPlanner(), inline_opts);
  ASSERT_TRUE(base.feasible) << base.failure;

  runtime::TrainerOptions piped = inline_opts;
  piped.planning_threads = 2;
  piped.plan_lookahead = 3;
  piped.serialize_plans = true;
  piped.instruction_store_capacity = 4;
  const runtime::EpochResult got = trainer.RunEpoch(dataset, FastPlanner(), piped);
  ASSERT_TRUE(got.feasible) << got.failure;
  ASSERT_EQ(base.iterations, got.iterations);
  EXPECT_EQ(base.real_tokens, got.real_tokens);
  EXPECT_GT(got.serialized_plan_bytes, 0);
  EXPECT_EQ(base.serialized_plan_bytes, 0);
  for (size_t i = 0; i < base.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(base.records[i].predicted_ms, got.records[i].predicted_ms);
    EXPECT_DOUBLE_EQ(base.records[i].measured_ms, got.records[i].measured_ms);
    EXPECT_EQ(base.records[i].num_microbatches, got.records[i].num_microbatches);
  }
}

TEST(TrainerServiceTest, ReplayedEpochHitsPlanCache) {
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  runtime::Trainer trainer(config, hw, {1, 1, 4}, SmallProfile());
  data::FlanGeneratorOptions gen;
  gen.num_samples = 300;
  gen.length_cap = 1024;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);

  runtime::TrainerOptions opts;
  opts.global_batch_tokens = 6144;
  opts.max_input_len = 1024;
  opts.max_iterations = 3;
  opts.plan_cache = true;
  const runtime::EpochResult first = trainer.RunEpoch(dataset, FastPlanner(), opts);
  ASSERT_TRUE(first.feasible) << first.failure;
  EXPECT_EQ(first.plan_cache_hits, 0);
  EXPECT_EQ(first.plan_cache_misses, first.iterations);

  // Same sampler seed -> the epoch replays the same mini-batches; every
  // iteration must now come from the plan cache with identical results.
  const runtime::EpochResult second = trainer.RunEpoch(dataset, FastPlanner(), opts);
  ASSERT_TRUE(second.feasible) << second.failure;
  EXPECT_EQ(second.plan_cache_hits, second.iterations);
  EXPECT_EQ(second.plan_cache_misses, 0);
  EXPECT_EQ(first.real_tokens, second.real_tokens);
  ASSERT_EQ(first.records.size(), second.records.size());
  for (size_t i = 0; i < first.records.size(); ++i) {
    EXPECT_TRUE(second.records[i].plan_cache_hit);
    EXPECT_EQ(second.records[i].partition_ms, 0.0);
    EXPECT_EQ(second.records[i].schedule_ms, 0.0);
    EXPECT_DOUBLE_EQ(first.records[i].predicted_ms, second.records[i].predicted_ms);
    EXPECT_DOUBLE_EQ(first.records[i].measured_ms, second.records[i].measured_ms);
  }
  // Cached planning must be far cheaper than the planned epoch.
  EXPECT_LT(second.planning_time_ms, first.planning_time_ms);
}

TEST(TrainerServiceTest, WireBackendsEpochIdenticalAndReplayHitsPlanCache) {
  // Every non-in-process TrainerOptions::plan_store_backend — the
  // multiplexed persistent socket connection and the shared-memory
  // segment — routes every plan through its real distribution
  // path and must change nothing about the results: the epoch is
  // bit-identical to the in-process backend, and a replayed epoch still hits
  // the plan cache on every iteration — cached plans republish through the
  // backend like any other.
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  data::FlanGeneratorOptions gen;
  gen.num_samples = 300;
  gen.length_cap = 1024;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);

  runtime::TrainerOptions opts;
  opts.global_batch_tokens = 6144;
  opts.max_input_len = 1024;
  opts.max_iterations = 3;
  opts.plan_cache = true;

  runtime::Trainer inproc_trainer(config, hw, {1, 1, 4}, SmallProfile());
  const runtime::EpochResult base =
      inproc_trainer.RunEpoch(dataset, FastPlanner(), opts);
  ASSERT_TRUE(base.feasible) << base.failure;

  for (const auto backend :
       {runtime::TrainerOptions::PlanStoreBackend::kUnixSocketMux,
        runtime::TrainerOptions::PlanStoreBackend::kSharedMemory}) {
    SCOPED_TRACE("backend=" + std::to_string(static_cast<int>(backend)));
    runtime::TrainerOptions wire = opts;
    wire.plan_store_backend = backend;
    wire.planning_threads = 2;
    wire.plan_lookahead = 3;
    wire.instruction_store_capacity = 4;
    runtime::Trainer wire_trainer(config, hw, {1, 1, 4}, SmallProfile());
    const runtime::EpochResult first =
        wire_trainer.RunEpoch(dataset, FastPlanner(), wire);
    ASSERT_TRUE(first.feasible) << first.failure;
    ASSERT_EQ(first.iterations, base.iterations);
    EXPECT_EQ(first.real_tokens, base.real_tokens);
    EXPECT_GT(first.serialized_plan_bytes, 0);
    EXPECT_EQ(first.plan_cache_misses, first.iterations);
    for (size_t i = 0; i < base.records.size(); ++i) {
      EXPECT_DOUBLE_EQ(base.records[i].predicted_ms,
                       first.records[i].predicted_ms);
      EXPECT_DOUBLE_EQ(base.records[i].measured_ms,
                       first.records[i].measured_ms);
      EXPECT_EQ(base.records[i].num_microbatches,
                first.records[i].num_microbatches);
    }

    // Same sampler seed -> the epoch replays; every iteration must come from
    // the plan cache and still round-trip the backend bit-identically.
    const runtime::EpochResult second =
        wire_trainer.RunEpoch(dataset, FastPlanner(), wire);
    ASSERT_TRUE(second.feasible) << second.failure;
    EXPECT_EQ(second.plan_cache_hits, second.iterations);
    EXPECT_EQ(second.plan_cache_misses, 0);
    EXPECT_GT(second.serialized_plan_bytes, 0);
    ASSERT_EQ(second.records.size(), first.records.size());
    for (size_t i = 0; i < first.records.size(); ++i) {
      EXPECT_TRUE(second.records[i].plan_cache_hit);
      EXPECT_DOUBLE_EQ(first.records[i].predicted_ms,
                       second.records[i].predicted_ms);
      EXPECT_DOUBLE_EQ(first.records[i].measured_ms,
                       second.records[i].measured_ms);
    }
  }
}

TEST(TrainerServiceTest, BaselineEpochStillRunsThroughService) {
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  runtime::Trainer trainer(config, hw, {1, 1, 4}, SmallProfile());
  data::FlanGeneratorOptions gen;
  gen.num_samples = 200;
  gen.length_cap = 1024;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  runtime::TrainerOptions opts;
  opts.global_batch_tokens = 8192;
  opts.max_input_len = 1024;
  opts.max_iterations = 2;
  opts.planning_threads = 2;  // plan-ahead applies to baselines too
  opts.plan_cache = true;     // silently ignored: baseline plans cannot rebind
  opts.serialize_plans = true;
  runtime::BaselineOptions base;
  base.batching = runtime::BaselineBatching::kPacking;
  base.microbatch_size = 2;
  const runtime::EpochResult res = trainer.RunEpochBaseline(dataset, base, opts);
  ASSERT_TRUE(res.feasible) << res.failure;
  EXPECT_GT(res.tokens_per_second(), 0.0);
  EXPECT_GT(res.serialized_plan_bytes, 0);
  EXPECT_EQ(res.plan_cache_hits + res.plan_cache_misses, 0);
}

// ---------- heartbeat monitor ----------

TEST(HeartbeatMonitorTest, MedianThresholdFlagsOnlyTheStraggler) {
  service::HeartbeatMonitor monitor(service::HeartbeatMonitorOptions{
      /*straggler_multiple=*/2.0, /*min_straggler_gap_ms=*/1.0});
  // Iteration 0: replicas at 10/11/12 ms — jitter, nobody straggles.
  monitor.OnHeartbeat(0, 0, 10.0);
  monitor.OnHeartbeat(1, 0, 11.0);
  monitor.OnHeartbeat(2, 0, 12.0);
  service::IterationHeartbeatStats stats = monitor.ForIteration(0);
  EXPECT_EQ(stats.replicas_reported, 3);
  EXPECT_DOUBLE_EQ(stats.median_wall_ms, 11.0);
  EXPECT_DOUBLE_EQ(stats.max_wall_ms, 12.0);
  EXPECT_TRUE(stats.stragglers.empty());
  // Iteration 1: replica 1 takes 4x the others' time — flagged, alone.
  monitor.OnHeartbeat(0, 1, 10.0);
  monitor.OnHeartbeat(1, 1, 40.0);
  monitor.OnHeartbeat(2, 1, 9.0);
  stats = monitor.ForIteration(1);
  EXPECT_EQ(stats.stragglers, std::vector<int32_t>{1});
  EXPECT_DOUBLE_EQ(stats.median_wall_ms, 10.0);
  // With only two replicas the relative criterion cannot fire (nothing
  // exceeds twice the pair's mean): by design, not an accident.
  monitor.OnHeartbeat(0, 2, 1.0);
  monitor.OnHeartbeat(1, 2, 100.0);
  EXPECT_TRUE(monitor.ForIteration(2).stragglers.empty());
  // Unreported iterations answer with zeros, not a crash.
  EXPECT_EQ(monitor.ForIteration(99).replicas_reported, 0);
}

TEST(HeartbeatMonitorTest, ProgressFrontiersAndLaggingReplicas) {
  service::HeartbeatMonitor monitor;
  EXPECT_EQ(monitor.LastIteration(0), -1);  // nothing heard yet
  monitor.OnHeartbeat(0, 0, 1.0);
  monitor.OnHeartbeat(1, 0, 1.0);
  monitor.OnHeartbeat(0, 1, 1.0);
  monitor.OnHeartbeat(0, 2, 1.0);
  EXPECT_EQ(monitor.LastIteration(0), 2);
  EXPECT_EQ(monitor.LastIteration(1), 0);
  // Replica 1 is 2 iterations behind the frontier: lagging under max_lag 1,
  // within tolerance under max_lag 2.
  EXPECT_EQ(monitor.LaggingReplicas(1), std::vector<int32_t>{1});
  EXPECT_TRUE(monitor.LaggingReplicas(2).empty());
  // A late heartbeat for an old iteration never regresses the frontier.
  monitor.OnHeartbeat(0, 0, 2.0);
  EXPECT_EQ(monitor.LastIteration(0), 2);
  EXPECT_EQ(monitor.total_heartbeats(), 5);
}

TEST(TrainerServiceTest, IterationRecordsCarryReplicaCompletionStats) {
  // dp = 2: two in-process replicas report their simulated makespans, so
  // every record carries the completion stats surface (median == one of the
  // two, straggler list empty — the two-replica criterion cannot fire).
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  runtime::Trainer trainer(config, hw, {2, 1, 2}, SmallProfile());
  data::FlanGeneratorOptions gen;
  gen.num_samples = 300;
  gen.length_cap = 1024;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  runtime::TrainerOptions opts;
  opts.global_batch_tokens = 6144;
  opts.max_input_len = 1024;
  opts.max_iterations = 2;
  const runtime::EpochResult res = trainer.RunEpoch(dataset, FastPlanner(), opts);
  ASSERT_TRUE(res.feasible) << res.failure;
  EXPECT_EQ(res.straggler_flags, 0);
  for (const runtime::IterationRecord& record : res.records) {
    EXPECT_EQ(record.heartbeat_replicas, 2);
    EXPECT_GT(record.replica_median_ms, 0.0);
    EXPECT_GE(record.replica_max_ms, record.replica_median_ms);
    EXPECT_LE(record.replica_max_ms, record.measured_ms);
    EXPECT_TRUE(record.straggler_replicas.empty());
  }
}

// ---------- fault injection ----------

TEST(FaultInjectionTest, SpecGrammarParses) {
  common::FaultSpec spec;
  std::string error;
  ASSERT_TRUE(common::ParseFaultSpec("crash@2", &spec, &error)) << error;
  EXPECT_EQ(spec.kind, common::FaultKind::kCrash);
  EXPECT_EQ(spec.at, 2);
  EXPECT_EQ(spec.site, "executor.heartbeat");  // kind's default site
  ASSERT_TRUE(common::ParseFaultSpec("stall:250@1#my.site", &spec, &error))
      << error;
  EXPECT_EQ(spec.kind, common::FaultKind::kStall);
  EXPECT_DOUBLE_EQ(spec.stall_ms, 250.0);
  EXPECT_EQ(spec.at, 1);
  EXPECT_EQ(spec.site, "my.site");
  ASSERT_TRUE(common::ParseFaultSpec("drop@0", &spec, &error)) << error;
  EXPECT_EQ(spec.kind, common::FaultKind::kDropConnection);
  EXPECT_EQ(spec.site, "transport.write");
  ASSERT_TRUE(common::ParseFaultSpec("corrupt@3", &spec, &error)) << error;
  EXPECT_EQ(spec.kind, common::FaultKind::kCorruptFrame);

  EXPECT_FALSE(common::ParseFaultSpec("", &spec, &error));
  EXPECT_FALSE(common::ParseFaultSpec("crash", &spec, &error));  // no @index
  EXPECT_FALSE(common::ParseFaultSpec("stall@1", &spec, &error));  // no :ms
  EXPECT_FALSE(common::ParseFaultSpec("crash:5@1", &spec, &error));
  EXPECT_FALSE(common::ParseFaultSpec("frobnicate@1", &spec, &error));
  EXPECT_FALSE(common::ParseFaultSpec("crash@x", &spec, &error));
  EXPECT_FALSE(common::ParseFaultSpec("crash@-1", &spec, &error));
  EXPECT_FALSE(common::ParseFaultSpec("crash@1#", &spec, &error));
}

TEST(FaultInjectionTest, DisarmedIsInertAndFiringIsOneShot) {
  common::FaultInjector& injector = common::FaultInjector::Instance();
  injector.Disarm();
  EXPECT_FALSE(injector.armed());
  EXPECT_EQ(common::FaultPoint("anywhere"), common::FaultKind::kNone);

  // Counted site: the N-th visit to the site fires, exactly once.
  common::FaultSpec spec;
  std::string error;
  ASSERT_TRUE(common::ParseFaultSpec("drop@1#wire", &spec, &error)) << error;
  injector.Arm(spec);
  EXPECT_TRUE(injector.armed());
  EXPECT_EQ(common::FaultPoint("elsewhere"), common::FaultKind::kNone);
  EXPECT_EQ(common::FaultPoint("wire"), common::FaultKind::kNone);  // visit 0
  EXPECT_EQ(common::FaultPoint("wire"),
            common::FaultKind::kDropConnection);  // visit 1: fires
  EXPECT_EQ(common::FaultPoint("wire"), common::FaultKind::kNone);  // latched

  // Indexed site: fires when the caller-supplied index matches, once.
  ASSERT_TRUE(common::ParseFaultSpec("corrupt@5#iter", &spec, &error)) << error;
  injector.Arm(spec);
  EXPECT_EQ(common::FaultPoint("iter", 4), common::FaultKind::kNone);
  EXPECT_EQ(common::FaultPoint("iter", 5), common::FaultKind::kCorruptFrame);
  EXPECT_EQ(common::FaultPoint("iter", 5), common::FaultKind::kNone);
  injector.Disarm();  // singleton: leave nothing armed for other tests
}

// ---------- liveness state machine ----------

TEST(HeartbeatMonitorTest, LivenessDeadlinesSuspectThenDeadAndDeathIsSticky) {
  service::HeartbeatMonitorOptions opts;
  opts.suspect_after_ms = 50.0;
  opts.dead_after_ms = 500.0;
  opts.watchdog = false;  // deterministic: the test ticks PollLiveness itself
  service::HeartbeatMonitor monitor(opts);

  EXPECT_EQ(monitor.Liveness(0), service::ReplicaLiveness::kUnknown);
  monitor.OnReplicaAttached(0);
  EXPECT_EQ(monitor.Liveness(0), service::ReplicaLiveness::kAlive);
  EXPECT_EQ(monitor.PollLiveness(), 0);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_GE(monitor.PollLiveness(), 1);
  EXPECT_EQ(monitor.Liveness(0), service::ReplicaLiveness::kSuspect);
  EXPECT_FALSE(monitor.IsReplicaDead(0));

  monitor.OnHeartbeat(0, 0, 1.0);  // a suspect that reports revives
  EXPECT_EQ(monitor.Liveness(0), service::ReplicaLiveness::kAlive);

  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_GE(monitor.PollLiveness(), 1);
  EXPECT_EQ(monitor.Liveness(0), service::ReplicaLiveness::kDead);
  EXPECT_TRUE(monitor.IsReplicaDead(0));
  EXPECT_EQ(monitor.DeadReplicas(), std::vector<int32_t>{0});

  // Sticky: a zombie's heartbeat or re-attach never revives it — its plans
  // may already have been re-published.
  monitor.OnHeartbeat(0, 1, 1.0);
  monitor.OnReplicaAttached(0);
  EXPECT_EQ(monitor.Liveness(0), service::ReplicaLiveness::kDead);
}

TEST(HeartbeatMonitorTest, ConnectionDropGraceAndCleanDetach) {
  // Grace 0: an unclean drop is immediate death (the SIGKILL shape).
  {
    service::HeartbeatMonitorOptions opts;
    opts.watchdog = false;
    service::HeartbeatMonitor monitor(opts);
    monitor.OnReplicaAttached(1);
    monitor.OnReplicaDisconnected(1, /*clean=*/false);
    EXPECT_EQ(monitor.Liveness(1), service::ReplicaLiveness::kDead);
    // Clean detach is expected absence: no death, deadlines off.
    monitor.OnReplicaAttached(2);
    monitor.OnReplicaDisconnected(2, /*clean=*/true);
    EXPECT_EQ(monitor.Liveness(2), service::ReplicaLiveness::kDetached);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(monitor.PollLiveness(), 0);
    EXPECT_EQ(monitor.Liveness(2), service::ReplicaLiveness::kDetached);
  }
  // Grace > 0: the drop is suspicion; reconnecting inside the grace
  // survives, failing to blows the deadline.
  {
    service::HeartbeatMonitorOptions opts;
    opts.connection_grace_ms = 50.0;
    opts.watchdog = false;
    service::HeartbeatMonitor monitor(opts);
    monitor.OnReplicaAttached(3);
    monitor.OnReplicaDisconnected(3, /*clean=*/false);
    EXPECT_EQ(monitor.Liveness(3), service::ReplicaLiveness::kSuspect);
    monitor.OnReplicaAttached(3);  // reconnected in time
    EXPECT_EQ(monitor.Liveness(3), service::ReplicaLiveness::kAlive);
    monitor.OnReplicaDisconnected(3, /*clean=*/false);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_GE(monitor.PollLiveness(), 1);
    EXPECT_EQ(monitor.Liveness(3), service::ReplicaLiveness::kDead);
  }
}

TEST(HeartbeatMonitorTest, EventCallbackStreamsEveryTransition) {
  service::HeartbeatMonitorOptions opts;
  opts.watchdog = false;
  service::HeartbeatMonitor monitor(opts);
  std::vector<service::ReplicaEvent> events;  // no watchdog: single-threaded
  monitor.set_event_callback(
      [&](const service::ReplicaEvent& event) { events.push_back(event); });
  monitor.OnReplicaAttached(0);
  monitor.OnReplicaDisconnected(0, /*clean=*/false);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].replica, 0);
  EXPECT_EQ(events[0].from, service::ReplicaLiveness::kUnknown);
  EXPECT_EQ(events[0].to, service::ReplicaLiveness::kAlive);
  EXPECT_EQ(events[1].from, service::ReplicaLiveness::kAlive);
  EXPECT_EQ(events[1].to, service::ReplicaLiveness::kDead);
  EXPECT_FALSE(events[1].reason.empty());
  monitor.set_event_callback(nullptr);
}

// ---------- heartbeat monitor: expected-replica gating ----------

// Straggler math over a partial report set is meaningless: with one replica
// still running, the reported walls skew the median and the missing replica
// can't be compared at all. With expected_replicas set, flagging waits for
// the full set.
TEST(HeartbeatMonitorTest, PartialReportSetsNeverFlagStragglers) {
  service::HeartbeatMonitorOptions opts;
  opts.straggler_multiple = 2.0;
  opts.min_straggler_gap_ms = 1.0;
  opts.expected_replicas = 3;
  opts.watchdog = false;
  service::HeartbeatMonitor monitor(opts);
  monitor.OnHeartbeat(0, 0, 10.0);
  monitor.OnHeartbeat(1, 0, 500.0);  // looks like a straggler, but 2/3
  service::IterationHeartbeatStats stats = monitor.ForIteration(0);
  EXPECT_EQ(stats.replicas_reported, 2);
  EXPECT_EQ(stats.replicas_expected, 3);
  EXPECT_TRUE(stats.stragglers.empty());
  // The last replica completes the set; now the flag lands.
  monitor.OnHeartbeat(2, 0, 9.0);
  stats = monitor.ForIteration(0);
  EXPECT_EQ(stats.replicas_reported, 3);
  EXPECT_EQ(stats.stragglers, std::vector<int32_t>{1});
}

// The straggler callback is the rebalancer's trigger: it must fire exactly
// once per iteration, on the heartbeat that completes the report set, and a
// duplicate beat must not re-fire it.
TEST(HeartbeatMonitorTest, StragglerCallbackFiresOncePerCompleteIteration) {
  service::HeartbeatMonitorOptions opts;
  opts.straggler_multiple = 2.0;
  opts.min_straggler_gap_ms = 1.0;
  opts.expected_replicas = 2;
  opts.watchdog = false;
  service::HeartbeatMonitor monitor(opts);
  std::vector<service::IterationHeartbeatStats> fired;  // single-threaded
  monitor.set_straggler_callback(
      [&](const service::IterationHeartbeatStats& stats) {
        fired.push_back(stats);
      });
  monitor.OnHeartbeat(0, 7, 10.0);
  EXPECT_TRUE(fired.empty());  // 1/2: incomplete
  monitor.OnHeartbeat(1, 7, 11.0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].iteration, 7);
  EXPECT_EQ(fired[0].replicas_reported, 2);
  monitor.OnHeartbeat(1, 7, 12.0);  // duplicate: overwrites, no re-fire
  EXPECT_EQ(fired.size(), 1u);
  monitor.set_straggler_callback(nullptr);
  monitor.OnHeartbeat(0, 8, 1.0);
  monitor.OnHeartbeat(1, 8, 1.0);
  EXPECT_EQ(fired.size(), 1u);  // unhooked
}

// ---------- heartbeat monitor: dynamic expected replicas ----------

// A drain shrinks the fleet mid-epoch. Iterations stuck at N-1 of N reports
// become complete the moment the expectation drops — the callback must fire
// for them retroactively, exactly once, and a late beat from the departed
// replica must not re-fire it.
TEST(HeartbeatMonitorTest, ShrinkingExpectedRetroactivelyCompletesReportSets) {
  service::HeartbeatMonitorOptions opts;
  opts.straggler_multiple = 2.0;
  opts.min_straggler_gap_ms = 1.0;
  opts.expected_replicas = 3;
  opts.watchdog = false;
  service::HeartbeatMonitor monitor(opts);
  std::vector<service::IterationHeartbeatStats> fired;  // single-threaded
  monitor.set_straggler_callback(
      [&](const service::IterationHeartbeatStats& stats) {
        fired.push_back(stats);
      });
  monitor.OnHeartbeat(0, 0, 10.0);
  monitor.OnHeartbeat(1, 0, 11.0);
  EXPECT_TRUE(fired.empty());  // 2/3: the third never comes — it drained
  monitor.set_expected_replicas(2);
  ASSERT_EQ(fired.size(), 1u);  // retroactively complete
  EXPECT_EQ(fired[0].iteration, 0);
  EXPECT_EQ(fired[0].replicas_reported, 2);
  EXPECT_EQ(fired[0].replicas_expected, 2);
  // A straggling beat from the drained replica lands in the stats but must
  // not fire the already-fired iteration again.
  monitor.OnHeartbeat(2, 0, 99.0);
  EXPECT_EQ(fired.size(), 1u);
  // Later iterations complete at the new size.
  monitor.OnHeartbeat(0, 1, 10.0);
  monitor.OnHeartbeat(1, 1, 10.0);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1].iteration, 1);
}

// A join grows the fleet. Iterations that already completed (and fired) at
// the old size stay fired — growth must neither re-fire nor "un-complete"
// them — and new iterations gate on the larger set.
TEST(HeartbeatMonitorTest, GrowingExpectedNeverDoubleFiresACompletedIteration) {
  service::HeartbeatMonitorOptions opts;
  opts.straggler_multiple = 2.0;
  opts.min_straggler_gap_ms = 1.0;
  opts.expected_replicas = 2;
  opts.watchdog = false;
  service::HeartbeatMonitor monitor(opts);
  std::vector<service::IterationHeartbeatStats> fired;  // single-threaded
  monitor.set_straggler_callback(
      [&](const service::IterationHeartbeatStats& stats) {
        fired.push_back(stats);
      });
  monitor.OnHeartbeat(0, 0, 10.0);
  monitor.OnHeartbeat(1, 0, 10.0);
  ASSERT_EQ(fired.size(), 1u);  // complete at the old size
  monitor.set_expected_replicas(3);  // a joiner was admitted
  EXPECT_EQ(fired.size(), 1u);
  monitor.OnHeartbeat(2, 0, 10.0);  // joiner's beat on the fired iteration
  EXPECT_EQ(fired.size(), 1u);
  // The next iteration needs all three.
  monitor.OnHeartbeat(0, 1, 10.0);
  monitor.OnHeartbeat(1, 1, 10.0);
  EXPECT_EQ(fired.size(), 1u);  // 2/3 now incomplete
  monitor.OnHeartbeat(2, 1, 10.0);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1].iteration, 1);
  EXPECT_EQ(fired[1].replicas_expected, 3);
}

// ---------- fleet coordinator ----------

namespace {
// Feeds one complete iteration's heartbeats from replicas 0..replicas-1:
// `slow` reports 40 ms, everyone else 10 ms — over the 2*median+1 bar, so
// `slow` is flagged (or nobody, with slow < 0).
void FeedIteration(service::HeartbeatMonitor& monitor, int64_t iteration,
                   int32_t slow, int32_t replicas = 3) {
  for (int32_t replica = 0; replica < replicas; ++replica) {
    monitor.OnHeartbeat(replica, iteration, replica == slow ? 40.0 : 10.0);
  }
}

service::HeartbeatMonitorOptions FleetMonitorOptions() {
  service::HeartbeatMonitorOptions opts;
  opts.straggler_multiple = 2.0;
  opts.min_straggler_gap_ms = 1.0;
  opts.expected_replicas = 3;
  opts.watchdog = false;
  return opts;
}

service::FleetOptions Fleet(std::vector<int32_t> replicas) {
  service::FleetOptions opts;
  opts.replicas = std::move(replicas);
  opts.spare_iteration_base = 10;
  return opts;
}

// Straggler rebalance on, with the thresholds the tests below exercise.
service::FleetOptions RebalancingFleet(std::vector<int32_t> replicas,
                                       int32_t consecutive_flags) {
  service::FleetOptions opts = Fleet(std::move(replicas));
  opts.rebalance = true;
  opts.rebalance_consecutive_flags = consecutive_flags;
  opts.rebalance_max_moves = 2;
  opts.rebalance_hysteresis_iterations = 4;
  return opts;
}
}  // namespace

// --- deaths ---

TEST(FleetCoordinatorTest, MovesDeadReplicasBacklogToSurvivorsByteStable) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitorOptions mopts;
  mopts.watchdog = false;
  service::HeartbeatMonitor monitor(mopts);
  service::FleetCoordinator fleet(&store, &monitor, Fleet({0, 1, 2}));

  // Replica 1 dies with three unfetched plans; 0 and 2 are survivors.
  store.PushBytes(0, 1, "plan-a");
  store.PushBytes(1, 1, "plan-b");
  store.PushBytes(2, 1, "plan-c");
  monitor.OnReplicaAttached(1);
  monitor.OnReplicaDisconnected(1, /*clean=*/false);  // grace 0 -> kDead

  EXPECT_TRUE(store.PendingIterations(1).empty());
  // Round-robin over the survivors, spare numbers per survivor from the
  // base — and the bytes are exactly what the dead replica would have run.
  EXPECT_EQ(store.FetchBytes(10, 0), "plan-a");
  EXPECT_EQ(store.FetchBytes(10, 2), "plan-b");
  EXPECT_EQ(store.FetchBytes(11, 0), "plan-c");

  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.dead_replicas, std::vector<int32_t>{1});
  EXPECT_EQ(report.replanned_iterations, 3);
  EXPECT_EQ(report.dropped_iterations, 0);
  EXPECT_FALSE(report.fail_fast_triggered);
  EXPECT_GE(report.recovery_ms, 0.0);
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 2}));
}

TEST(FleetCoordinatorTest, FailFastShutsTheStoreAndMovesNothing) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitorOptions mopts;
  mopts.watchdog = false;
  service::HeartbeatMonitor monitor(mopts);
  service::FleetOptions opts = Fleet({0, 1});
  opts.policy = service::FailurePolicy::kFailFast;
  service::FleetCoordinator fleet(&store, &monitor, opts);

  store.PushBytes(0, 1, "plan-a");
  monitor.OnReplicaAttached(1);
  monitor.OnReplicaDisconnected(1, /*clean=*/false);

  const service::FleetReport report = fleet.report();
  EXPECT_TRUE(report.fail_fast_triggered);
  EXPECT_EQ(report.dead_replicas, std::vector<int32_t>{1});
  EXPECT_EQ(report.replanned_iterations, 0);
  // Nothing moved, and the store is shut down: the parked publisher's next
  // Push is dropped instead of blocking forever.
  EXPECT_EQ(store.PendingIterations(1), std::vector<int64_t>{0});
  EXPECT_FALSE(store.PushBytes(5, 0, "plan-b"));
}

TEST(FleetCoordinatorTest, DropsBacklogWhenNoSurvivorRemains) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitorOptions mopts;
  mopts.watchdog = false;
  service::HeartbeatMonitor monitor(mopts);
  service::FleetCoordinator fleet(&store, &monitor, Fleet({1}));

  store.PushBytes(0, 1, "plan-a");
  store.PushBytes(1, 1, "plan-b");
  monitor.OnReplicaAttached(1);
  monitor.OnReplicaDisconnected(1, /*clean=*/false);

  EXPECT_TRUE(store.PendingIterations(1).empty());
  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.replanned_iterations, 0);
  EXPECT_EQ(report.dropped_iterations, 2);
}

// A spare destination key that turns out taken is burned and skipped, not
// retried: a collision used to wedge the survivor's counter on the taken key
// and silently lose every later repost to it.
TEST(FleetCoordinatorTest, TakenSpareKeyAdvancesInsteadOfWedging) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitorOptions mopts;
  mopts.watchdog = false;
  service::HeartbeatMonitor monitor(mopts);
  service::FleetCoordinator fleet(&store, &monitor, Fleet({0, 1}));

  // Someone already published at the survivor's first spare key.
  store.PushBytes(10, 0, "squatter");
  store.PushBytes(0, 1, "plan-a");
  store.PushBytes(1, 1, "plan-b");
  monitor.OnReplicaAttached(1);
  monitor.OnReplicaDisconnected(1, /*clean=*/false);

  // Key 10 was tried, found taken, burned; both plans landed on later keys.
  EXPECT_EQ(fleet.report().replanned_iterations, 2);
  EXPECT_EQ(store.FetchBytes(10, 0), "squatter");
  EXPECT_EQ(store.FetchBytes(11, 0), "plan-a");
  EXPECT_EQ(store.FetchBytes(12, 0), "plan-b");
}

// The double-death case: replica 2 inherits part of replica 1's backlog,
// then dies itself before fetching it. The per-survivor key counters must
// keep advancing across deaths — reissuing an already-used spare key would
// collide with the first recovery's repost and drop the plan.
TEST(FleetCoordinatorTest, SpareKeysSurviveASecondDeath) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitorOptions mopts;
  mopts.watchdog = false;
  service::HeartbeatMonitor monitor(mopts);
  service::FleetCoordinator fleet(&store, &monitor, Fleet({0, 1, 2}));

  store.PushBytes(0, 1, "plan-a");
  store.PushBytes(1, 1, "plan-b");
  monitor.OnReplicaAttached(1);
  monitor.OnReplicaAttached(2);
  monitor.OnReplicaDisconnected(1, /*clean=*/false);
  // First death: round-robin lands plan-a at (10, 0) and plan-b at (10, 2).
  // Neither survivor fetches anything before the second death.
  monitor.OnReplicaDisconnected(2, /*clean=*/false);

  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.dead_replicas, (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(report.replanned_iterations, 3);  // 2 from death one, 1 moved on
  EXPECT_EQ(report.dropped_iterations, 0);
  EXPECT_TRUE(store.PendingIterations(2).empty());
  // (10, 0) still holds the first repost; the inherited plan-b moved to the
  // last survivor's *next* spare key, not back onto a used one.
  EXPECT_EQ(store.FetchBytes(10, 0), "plan-a");
  EXPECT_EQ(store.FetchBytes(11, 0), "plan-b");
}

// --- stragglers ---

TEST(FleetCoordinatorTest, PersistentStragglerShedsTailOfItsBacklog) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitor monitor(FleetMonitorOptions());
  service::FleetCoordinator fleet(&store, &monitor,
                                  RebalancingFleet({0, 1, 2}, 2));

  for (int64_t i = 0; i < 6; ++i) {
    store.PushBytes(i, 1, "p" + std::to_string(i));
  }
  FeedIteration(monitor, 0, /*slow=*/1);  // streak 1: under threshold
  EXPECT_EQ(fleet.report().shed_events, 0);
  EXPECT_EQ(store.PendingIterations(1).size(), 6u);
  FeedIteration(monitor, 1, /*slow=*/1);  // streak 2: trigger
  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.shed_events, 1);
  EXPECT_EQ(report.shed_iterations, 2);
  EXPECT_EQ(report.shed_replicas, std::vector<int32_t>{1});
  // The *tail* moved (the slow replica keeps the work it reaches next),
  // round-robin over the fast replicas at their spare keys.
  EXPECT_EQ(store.PendingIterations(1),
            (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(store.FetchBytes(10, 0), "p5");
  EXPECT_EQ(store.FetchBytes(10, 2), "p4");
}

TEST(FleetCoordinatorTest, HysteresisAndStreakResetPreventThrash) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitor monitor(FleetMonitorOptions());
  service::FleetCoordinator fleet(&store, &monitor,
                                  RebalancingFleet({0, 1, 2}, 2));

  for (int64_t i = 0; i < 8; ++i) {
    store.PushBytes(i, 1, "p" + std::to_string(i));
  }
  FeedIteration(monitor, 0, 1);
  FeedIteration(monitor, 1, 1);  // event at iteration 1; cooldown until 5
  ASSERT_EQ(fleet.report().shed_events, 1);
  // Still slow every iteration — but a fresh streak has to build AND the
  // cooldown has to pass before anything moves again.
  FeedIteration(monitor, 2, 1);
  FeedIteration(monitor, 3, 1);
  FeedIteration(monitor, 4, 1);
  EXPECT_EQ(fleet.report().shed_events, 1);  // iterations < 5: immune
  FeedIteration(monitor, 5, 1);  // past cooldown, streak long since rebuilt
  EXPECT_EQ(fleet.report().shed_events, 2);
  EXPECT_EQ(fleet.report().shed_iterations, 4);
  // An intervening fast iteration resets the streak: no third event until
  // two more consecutive flags accumulate.
  FeedIteration(monitor, 9, /*slow=*/-1);  // everyone keeps pace
  FeedIteration(monitor, 10, 1);
  EXPECT_EQ(fleet.report().shed_events, 2);  // streak 1 of 2
}

// A replica the monitor has declared dead belongs to the death handler: the
// rebalance must not race it for the backlog, even on late beats.
TEST(FleetCoordinatorTest, DeadReplicaPinsItsBacklog) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitor monitor(FleetMonitorOptions());
  service::FleetCoordinator fleet(&store, &monitor,
                                  RebalancingFleet({0, 1, 2}, 1));

  monitor.OnReplicaAttached(2);
  monitor.OnReplicaDisconnected(2, /*clean=*/false);  // grace 0 -> kDead
  store.PushBytes(0, 2, "dead-backlog");
  FeedIteration(monitor, 1, /*slow=*/2);  // late beats from the dead replica
  EXPECT_EQ(fleet.report().shed_events, 0);
  EXPECT_EQ(store.PendingIterations(2), std::vector<int64_t>{0});
}

TEST(FleetCoordinatorTest, NoFastDestinationMeansNoMove) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitor monitor(FleetMonitorOptions());
  // Nobody else is a member to take work.
  service::FleetCoordinator fleet(&store, &monitor, RebalancingFleet({1}, 1));

  store.PushBytes(0, 1, "stuck");
  FeedIteration(monitor, 0, /*slow=*/1);
  EXPECT_EQ(fleet.report().shed_events, 0);
  EXPECT_EQ(store.PendingIterations(1), std::vector<int64_t>{0});
}

// A rebalance and a later death repost share one set of spare keys, so they
// can never hand out the same destination key — and the still-polling
// straggler gets the key its tail steal vacated back first, keeping its key
// sequence gap-free.
TEST(FleetCoordinatorTest, DeathRepostFillsTheGapARebalanceVacated) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitor monitor(FleetMonitorOptions());
  service::FleetOptions opts = RebalancingFleet({0, 1, 2}, 1);
  opts.rebalance_max_moves = 1;
  service::FleetCoordinator fleet(&store, &monitor, opts);

  // Rebalance moves one plan to a fast replica's first spare key...
  store.PushBytes(0, 1, "slow-tail");
  FeedIteration(monitor, 0, /*slow=*/1);
  ASSERT_EQ(fleet.report().shed_iterations, 1);
  // ...then that fast replica's peer dies and the backlog round-robins over
  // the survivors: keys continue after the rebalance's on the fast replica,
  // and the straggler's repost reuses the key the steal vacated.
  store.PushBytes(1, 2, "dead-a");
  store.PushBytes(2, 2, "dead-b");
  monitor.OnReplicaAttached(2);
  monitor.OnReplicaDisconnected(2, /*clean=*/false);
  EXPECT_EQ(fleet.report().replanned_iterations, 2);
  EXPECT_EQ(store.FetchBytes(10, 0), "slow-tail");
  EXPECT_EQ(store.FetchBytes(11, 0), "dead-a");
  EXPECT_EQ(store.FetchBytes(0, 1), "dead-b");
}

// --- membership ---

// A replica outside the configured fleet turning alive is a joiner: the
// coordinator admits it, grows the expected fleet, and steals a fair share
// of the deepest member's *tail* backlog to the joiner's spare keys — where
// an open-ended executor polls first.
TEST(FleetCoordinatorTest, JoinerStealsAFairShareOfTheDeepestTail) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitor monitor(FleetMonitorOptions());
  service::FleetOptions opts = Fleet({0, 1, 2});
  opts.membership = true;
  service::FleetCoordinator fleet(&store, &monitor, opts);

  for (int64_t i = 0; i < 8; ++i) {
    store.PushBytes(i, 1, "p" + std::to_string(i));
  }
  store.PushBytes(0, 0, "shallow");
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 1, 2}));

  // A bare shm announce or a kAttach carrying kAttachCapJoin both surface
  // here: an unknown replica turning alive.
  monitor.OnReplicaAttached(3);
  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.joined, std::vector<int32_t>{3});
  EXPECT_EQ(report.join_stolen, 2);  // floor(8 / new fleet of 4)
  EXPECT_EQ(monitor.expected_replicas(), 4);
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 1, 2, 3}));
  // Tail first, at the joiner's spare keys; the donor keeps its head and
  // replica 0's shallow backlog was never the donor.
  EXPECT_EQ(store.FetchBytes(10, 3), "p7");
  EXPECT_EQ(store.FetchBytes(11, 3), "p6");
  EXPECT_EQ(store.PendingIterations(1),
            (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(store.PendingIterations(0), std::vector<int64_t>{0});
}

// A drain request fences the leaver, hands its unfetched backlog round-robin
// to the surviving members at spare keys, shrinks the expected fleet *after*
// the handoff, and acknowledges through the backend hook. A duplicate
// request must not repost or ack twice.
TEST(FleetCoordinatorTest, DrainHandsOffBacklogAndAcknowledgesOnce) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitor monitor(FleetMonitorOptions());
  service::FleetOptions opts = Fleet({0, 1, 2});
  opts.membership = true;
  std::vector<int32_t> acked;  // event chain is synchronous here
  opts.drain_ack = [&](int32_t replica) { acked.push_back(replica); };
  service::FleetCoordinator fleet(&store, &monitor, opts);

  monitor.OnReplicaAttached(0);
  monitor.OnReplicaAttached(1);
  monitor.OnReplicaAttached(2);
  store.PushBytes(0, 2, "d0");
  store.PushBytes(1, 2, "d1");
  store.PushBytes(2, 2, "d2");

  monitor.OnReplicaDrainRequested(2);
  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.drained, std::vector<int32_t>{2});
  EXPECT_EQ(report.drain_reposted, 3);
  EXPECT_EQ(acked, std::vector<int32_t>{2});
  EXPECT_EQ(monitor.expected_replicas(), 2);
  EXPECT_TRUE(store.IsReplicaFenced(2));
  EXPECT_TRUE(store.PendingIterations(2).empty());
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 1}));
  // Round-robin over the survivors at their spare keys.
  EXPECT_EQ(store.FetchBytes(10, 0), "d0");
  EXPECT_EQ(store.FetchBytes(10, 1), "d1");
  EXPECT_EQ(store.FetchBytes(11, 0), "d2");

  monitor.OnReplicaDrainRequested(2);  // duplicate
  EXPECT_EQ(fleet.report().drained, std::vector<int32_t>{2});
  EXPECT_EQ(fleet.report().drain_reposted, 3);
  EXPECT_EQ(acked.size(), 1u);
}

// The store-level fence is what closes the drain-vs-rebalance race: a mover
// that snapshotted the leaver as a destination before the fence landed gets
// kDestinationTaken back — key burned, plan intact — and its key chain
// advances to an open peer. Unfencing restores the replica as a destination.
TEST(InstructionStoreTest, FencedReplicaRefusesIncomingReposts) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  store.PushBytes(0, 0, "race");
  store.FenceReplica(1);
  EXPECT_EQ(store.Repost(0, 0, 10, 1),
            runtime::RepostOutcome::kDestinationTaken);
  // The plan neither moved nor vanished.
  EXPECT_EQ(store.PendingIterations(0), std::vector<int64_t>{0});
  // The mover retries elsewhere and the plan lands whole.
  EXPECT_EQ(store.Repost(0, 0, 10, 2), runtime::RepostOutcome::kMoved);
  EXPECT_EQ(store.FetchBytes(10, 2), "race");
  store.UnfenceReplica(1);
  store.PushBytes(1, 0, "after");
  EXPECT_EQ(store.Repost(1, 0, 11, 1), runtime::RepostOutcome::kMoved);
  EXPECT_EQ(store.FetchBytes(11, 1), "after");
}

// Drain -> clean detach -> re-join, the full elastic round trip: the detach
// retires the drainer without shrinking the expectation a second time, the
// fence persists while it is gone, and a re-join of the same id lifts the
// fence and re-admits it like any other joiner.
TEST(FleetCoordinatorTest, DetachRetiresADrainerAndRejoinLiftsTheFence) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitor monitor(FleetMonitorOptions());
  service::FleetOptions opts = Fleet({0, 1, 2});
  opts.membership = true;
  service::FleetCoordinator fleet(&store, &monitor, opts);

  monitor.OnReplicaAttached(0);
  monitor.OnReplicaAttached(1);
  monitor.OnReplicaAttached(2);
  monitor.OnReplicaDrainRequested(2);
  ASSERT_EQ(monitor.expected_replicas(), 2);
  ASSERT_TRUE(store.IsReplicaFenced(2));

  monitor.OnReplicaDisconnected(2, /*clean=*/true);
  EXPECT_EQ(monitor.expected_replicas(), 2);  // shrank at the drain, not here
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 1}));
  EXPECT_TRUE(store.IsReplicaFenced(2));  // no destination while gone
  EXPECT_TRUE(monitor.DeadReplicas().empty());  // a goodbye, not a death

  monitor.OnReplicaAttached(2);  // comes back: a joiner like any other
  EXPECT_FALSE(store.IsReplicaFenced(2));
  EXPECT_EQ(monitor.expected_replicas(), 3);
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 1, 2}));
  EXPECT_EQ(fleet.report().joined, std::vector<int32_t>{2});
}

// --- one member set for every policy ---

// A joiner is a survivor like any original member. With the only other
// original member draining, a death's backlog has exactly one home: the
// joiner's spare keys — not the drop path.
TEST(FleetCoordinatorTest, JoinerInheritsADeadMembersBacklog) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitorOptions mopts;
  mopts.watchdog = false;
  service::HeartbeatMonitor monitor(mopts);
  service::FleetOptions opts = Fleet({0, 1});
  opts.membership = true;
  service::FleetCoordinator fleet(&store, &monitor, opts);

  store.PushBytes(0, 0, "plan-a");
  store.PushBytes(1, 0, "plan-b");
  monitor.OnReplicaAttached(0);
  monitor.OnReplicaAttached(1);
  monitor.OnReplicaAttached(2);  // joins; fair share floor(2 / 3) = 0
  monitor.OnReplicaDrainRequested(1);
  monitor.OnReplicaDisconnected(0, /*clean=*/false);  // dies holding both

  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.joined, std::vector<int32_t>{2});
  EXPECT_EQ(report.dropped_iterations, 0);
  EXPECT_EQ(report.replanned_iterations, 2);
  EXPECT_EQ(store.FetchBytes(10, 2), "plan-a");
  EXPECT_EQ(store.FetchBytes(11, 2), "plan-b");
  EXPECT_EQ(fleet.ActiveMembers(), std::vector<int32_t>{2});
}

// A joiner is a rebalance member like any original one: when it straggles
// persistently, the tail of its backlog moves to a fast member. The steal
// that seeded it vacated the donor's keys 7 and 6, so the plan routed back
// to the donor fills key 6 instead of landing beyond the gap.
TEST(FleetCoordinatorTest, PersistentlySlowJoinerShedsItsTail) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitor monitor(FleetMonitorOptions());
  service::FleetOptions opts = RebalancingFleet({0, 1, 2}, 2);
  opts.membership = true;
  service::FleetCoordinator fleet(&store, &monitor, opts);

  for (int64_t i = 0; i < 8; ++i) {
    store.PushBytes(i, 1, "p" + std::to_string(i));
  }
  monitor.OnReplicaAttached(3);  // steals p7, p6 to (10, 3), (11, 3)
  ASSERT_EQ(fleet.report().join_stolen, 2);
  ASSERT_EQ(monitor.expected_replicas(), 4);
  FeedIteration(monitor, 0, /*slow=*/3, /*replicas=*/4);
  EXPECT_EQ(fleet.report().shed_events, 0);  // streak 1 of 2
  FeedIteration(monitor, 1, /*slow=*/3, /*replicas=*/4);

  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.shed_events, 1);
  EXPECT_EQ(report.shed_iterations, 2);
  EXPECT_EQ(report.shed_replicas, std::vector<int32_t>{3});
  EXPECT_TRUE(store.PendingIterations(3).empty());
  EXPECT_EQ(store.FetchBytes(10, 0), "p6");
  EXPECT_EQ(store.FetchBytes(6, 1), "p7");
}

// A drain that shrinks the expected fleet completes a report set parked at
// N-1 of N, and the monitor fires the straggler callback for it from inside
// the drain's own event chain. That fire re-enters the same coordinator; it
// must reach the rebalance handler (the coordinator's mutex is not held
// across set_expected_replicas) and act on a member set without the leaver.
TEST(FleetCoordinatorTest, DrainCompletingAParkedIterationRebalances) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitorOptions mopts = FleetMonitorOptions();
  mopts.expected_replicas = 4;
  service::HeartbeatMonitor monitor(mopts);
  service::FleetOptions opts = RebalancingFleet({0, 1, 2, 3}, 1);
  opts.membership = true;
  std::vector<int32_t> acked;
  opts.drain_ack = [&](int32_t replica) { acked.push_back(replica); };
  service::FleetCoordinator fleet(&store, &monitor, opts);

  for (int64_t i = 0; i < 4; ++i) {
    store.PushBytes(i, 2, "p" + std::to_string(i));
  }
  monitor.OnReplicaAttached(3);
  FeedIteration(monitor, 0, /*slow=*/2);  // 3 of 4 reported: parked
  EXPECT_EQ(monitor.ForIteration(0).stragglers, std::vector<int32_t>{});
  EXPECT_EQ(fleet.report().shed_events, 0);

  monitor.OnReplicaDrainRequested(3);  // 3 of 3: complete, 2 flagged

  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.drained, std::vector<int32_t>{3});
  EXPECT_EQ(acked, std::vector<int32_t>{3});
  EXPECT_EQ(monitor.expected_replicas(), 3);
  EXPECT_EQ(report.shed_events, 1);
  EXPECT_EQ(report.shed_replicas, std::vector<int32_t>{2});
  // The tail went to the fast members that stay, never to the leaver.
  EXPECT_EQ(store.PendingIterations(2), (std::vector<int64_t>{0, 1}));
  EXPECT_TRUE(store.PendingIterations(3).empty());
  EXPECT_EQ(store.FetchBytes(10, 0), "p3");
  EXPECT_EQ(store.FetchBytes(10, 1), "p2");
}

// ---------- trainer: degraded epochs ----------

// Attaches `replica` to the trainer's store server over a raw socket and
// drops the connection uncleanly (no kDetach) — a vanished executor as seen
// from the wire. The trainer binds the server inside RunEpoch, so the whole
// exchange retries until an ack lands (a half-done attempt that lost the
// startup race just reconnects).
void AttachThenVanish(const std::string& socket_path, int32_t replica) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    std::unique_ptr<transport::Stream> conn =
        transport::ConnectUnixSocket(socket_path, /*timeout_ms=*/100);
    if (conn == nullptr) {
      continue;
    }
    transport::Frame attach;
    attach.type = transport::FrameType::kAttach;
    attach.replica = replica;
    if (!WriteFrame(*conn, attach)) {
      continue;
    }
    const std::optional<transport::Frame> reply = ReadFrame(*conn);
    if (!reply.has_value() || reply->type != transport::FrameType::kOk) {
      continue;
    }
    conn->Close();  // unclean: attached, never detached
    return;
  }
  ADD_FAILURE() << "intruder never managed to attach to " << socket_path;
}

TEST(TrainerServiceTest, EpochContinuesDegradedWhenAttachedReplicaVanishes) {
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  runtime::Trainer trainer(config, hw, {1, 1, 4}, SmallProfile());
  data::FlanGeneratorOptions gen;
  gen.num_samples = 300;
  gen.length_cap = 1024;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  runtime::TrainerOptions opts;
  opts.global_batch_tokens = 6144;
  opts.max_input_len = 1024;
  opts.max_iterations = 6;
  opts.serialize_plans = true;
  opts.plan_store_backend =
      runtime::TrainerOptions::PlanStoreBackend::kUnixSocketMux;
  opts.plan_store_socket_path = "/tmp/dynapipe-st-degraded-" +
                                std::to_string(::getpid()) + ".sock";
  // The fleet barrier holds the epoch until the intruder has attached, so
  // the attach-then-vanish always lands inside the epoch, never in the
  // teardown window. Default policy (degrade-and-continue), grace 0: the
  // drop is death.
  opts.liveness_await_replicas = 1;
  std::thread intruder(AttachThenVanish, opts.plan_store_socket_path, 7);
  const runtime::EpochResult res = trainer.RunEpoch(dataset, FastPlanner(), opts);
  intruder.join();
  ASSERT_TRUE(res.feasible) << res.failure;
  EXPECT_EQ(res.iterations, 6);
  EXPECT_EQ(res.dead_replicas, std::vector<int32_t>{7});
  // The intruder published nothing, so death moves no plans.
  EXPECT_EQ(res.replanned_iterations, 0);
  ASSERT_FALSE(res.records.empty());
  EXPECT_EQ(res.records.back().dead_replicas, std::vector<int32_t>{7});
}

TEST(TrainerServiceTest, FailFastPolicyAbortsTheEpochOnReplicaDeath) {
  const auto config = model::ModelConfig::Gpt3_35B();
  const model::HardwareSpec hw;
  runtime::Trainer trainer(config, hw, {1, 1, 4}, SmallProfile());
  data::FlanGeneratorOptions gen;
  gen.num_samples = 300;
  gen.length_cap = 1024;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  runtime::TrainerOptions opts;
  opts.global_batch_tokens = 6144;
  opts.max_input_len = 1024;
  opts.max_iterations = 8;
  opts.serialize_plans = true;
  opts.plan_store_backend =
      runtime::TrainerOptions::PlanStoreBackend::kUnixSocketMux;
  opts.plan_store_socket_path = "/tmp/dynapipe-st-failfast-" +
                                std::to_string(::getpid()) + ".sock";
  opts.liveness_await_replicas = 1;  // barrier: death lands inside the epoch
  opts.failure_policy = service::FailurePolicy::kFailFast;
  std::thread intruder(AttachThenVanish, opts.plan_store_socket_path, 7);
  const runtime::EpochResult res = trainer.RunEpoch(dataset, FastPlanner(), opts);
  intruder.join();
  EXPECT_FALSE(res.feasible);
  EXPECT_NE(res.failure.find("declared dead"), std::string::npos)
      << res.failure;
  EXPECT_EQ(res.dead_replicas, std::vector<int32_t>{7});
}

}  // namespace
}  // namespace dynapipe
