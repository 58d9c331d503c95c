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
#include "src/transport/shm_store.h"

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

TEST_F(PlanAheadServiceTest, TransportBackendsBitIdenticalToInline) {
  // The transport axis of the bit-identity matrix: publishing through the
  // shared-memory segment must deliver exactly the plans the in-process
  // inline path does, at any lookahead, cache on or off — and a replayed
  // epoch served entirely from the plan cache must republish through a
  // fresh segment just as bit-identically.
  const data::Dataset dataset = SmallDataset();
  const EpochPlans base = Collect({}, dataset);
  ASSERT_EQ(base.plans.size(), 4u);

  ThreadPool pool(2);
  int backend_id = 0;
  auto make_segment = [&] {
    return transport::ShmInstructionStore::Create(
        "/dynapipe-svc-" + std::to_string(::getpid()) + "-" +
            std::to_string(backend_id++),
        transport::ShmStoreOptions{/*capacity=*/3, /*num_slots=*/64,
                                   /*arena_bytes=*/size_t{1} << 20});
  };
  for (const int32_t lookahead : {0, 2}) {
    for (const bool cache : {false, true}) {
      SCOPED_TRACE("lookahead=" + std::to_string(lookahead) +
                   " cache=" + std::to_string(cache));
      service::PlanAheadOptions sopts;
      sopts.lookahead = lookahead;
      sopts.pool = lookahead > 0 ? &pool : nullptr;
      if (cache) {
        sopts.plan_cache = std::make_shared<service::PlanCache>();
        sopts.config_hash = 99;
      }
      sopts.store_capacity = 3;  // mirrors the segment's bound
      {
        const auto segment = make_segment();
        sopts.store = segment;
        const EpochPlans got = Collect(sopts, dataset);
        ExpectPlansBitIdentical(base, got);
        // The published volume is real and matches what the segment holds
        // accounted (every plan crossed an encode boundary).
        EXPECT_GT(got.stats.published_bytes, 0);
        EXPECT_EQ(got.stats.published_bytes, segment->serialized_bytes_total());
      }
      if (cache) {
        // Replay the same shuffle with the same cache into a fresh segment:
        // every iteration is a hit, and cached plans republish like any
        // other.
        const auto segment = make_segment();
        sopts.store = segment;
        const EpochPlans replay = Collect(sopts, dataset);
        ASSERT_EQ(replay.cache_hits.size(), base.plans.size());
        for (const bool hit : replay.cache_hits) {
          EXPECT_TRUE(hit);
        }
        ExpectPlansBitIdentical(base, replay);
        EXPECT_EQ(replay.stats.published_bytes,
                  segment->serialized_bytes_total());
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

TEST(HeartbeatMonitorTest, ProgressFrontiers) {
  service::HeartbeatMonitor monitor;
  EXPECT_EQ(monitor.LastIteration(0), -1);  // nothing heard yet
  monitor.OnHeartbeat(0, 0, 1.0);
  monitor.OnHeartbeat(1, 0, 1.0);
  monitor.OnHeartbeat(0, 1, 1.0);
  monitor.OnHeartbeat(0, 2, 1.0);
  // Each replica keeps its own frontier: replica 1 is 2 iterations behind.
  EXPECT_EQ(monitor.LastIteration(0), 2);
  EXPECT_EQ(monitor.LastIteration(1), 0);
  EXPECT_EQ(monitor.LastIteration(2), -1);
  // A late heartbeat for an old iteration never regresses the frontier.
  monitor.OnHeartbeat(0, 0, 2.0);
  EXPECT_EQ(monitor.LastIteration(0), 2);
  EXPECT_EQ(monitor.total_heartbeats(), 5);
}

TEST(TrainerServiceTest, IterationRecordsCountEveryReplicasHeartbeat) {
  // dp = 2: both in-process replicas report their simulated makespan, so
  // every record counts two heartbeats (bench/e2e's delivery check).
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
  ASSERT_EQ(res.records.size(), 2u);
  for (const runtime::IterationRecord& record : res.records) {
    EXPECT_EQ(record.heartbeat_replicas, 2);
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

// The heartbeat deadline on virtual time: every input takes the caller's
// `now`, so the test steps past dead_after_ms instead of sleeping through it.
TEST(HeartbeatMonitorTest, HeartbeatDeadlineOnCallerClockAndDeathIsSticky) {
  using namespace std::chrono_literals;
  service::HeartbeatMonitorOptions opts;
  opts.dead_after_ms = 60'000.0;
  service::HeartbeatMonitor monitor(opts);
  const service::HeartbeatMonitor::Clock::time_point t0{24h};

  EXPECT_EQ(monitor.Liveness(0), service::ReplicaLiveness::kUnknown);
  monitor.Attach(0, t0);
  EXPECT_EQ(monitor.Liveness(0), service::ReplicaLiveness::kAlive);
  // Exactly dead_after_ms of silence is still alive; 1 ms more is not.
  EXPECT_TRUE(monitor.PollLiveness(t0 + 60s).transitions.empty());
  EXPECT_EQ(monitor.Liveness(0), service::ReplicaLiveness::kAlive);
  const service::MonitorUpdate died = monitor.PollLiveness(t0 + 60s + 1ms);
  ASSERT_EQ(died.transitions.size(), 1u);
  EXPECT_EQ(died.transitions[0].replica, 0);
  EXPECT_EQ(died.transitions[0].to, service::ReplicaLiveness::kDead);
  EXPECT_TRUE(monitor.IsReplicaDead(0));
  EXPECT_EQ(monitor.DeadReplicas(), std::vector<int32_t>{0});

  // Sticky: a zombie's heartbeat or re-attach changes nothing — its plans
  // may already have been re-published.
  EXPECT_TRUE(monitor.Beat(0, 1, 1.0, t0 + 61s).transitions.empty());
  EXPECT_TRUE(monitor.Attach(0, t0 + 61s).transitions.empty());
  EXPECT_EQ(monitor.Liveness(0), service::ReplicaLiveness::kDead);
  EXPECT_EQ(monitor.LastIteration(0), -1);
  EXPECT_EQ(monitor.ForIteration(1).replicas_reported, 0);
  EXPECT_EQ(monitor.total_heartbeats(), 0);
}

// The drain and detach rules under the deadline, on virtual time. A
// drainer's in-flight heartbeat refreshes its deadline but never revives it
// to kAlive; a silent drainer still dies; detached and dead replicas are out
// of the deadline's reach at any `now`.
TEST(HeartbeatMonitorTest, DrainersKeepTheDeadlineAndDetachedOrDeadNeverMove) {
  using namespace std::chrono_literals;
  service::HeartbeatMonitorOptions opts;
  opts.dead_after_ms = 60'000.0;
  service::HeartbeatMonitor monitor(opts);
  const service::HeartbeatMonitor::Clock::time_point t0{24h};
  std::vector<service::ReplicaEvent> deaths;
  const auto died = [&](const service::MonitorUpdate& update) {
    size_t n = 0;
    for (const service::ReplicaEvent& event : update.transitions) {
      if (event.to == service::ReplicaLiveness::kDead) {
        deaths.push_back(event);
        ++n;
      }
    }
    return n;
  };

  monitor.Attach(0, t0);  // alive, then silent
  monitor.Attach(1, t0);
  monitor.Drain(1, t0);  // draining, still reporting
  monitor.Attach(2, t0);
  monitor.Drain(2, t0);  // draining, then silent
  monitor.Attach(3, t0);
  EXPECT_EQ(died(monitor.Drop(3, /*clean=*/true)), 0u);
  monitor.Attach(4, t0);
  EXPECT_EQ(died(monitor.Drop(4, /*clean=*/false)), 1u);
  EXPECT_EQ(died(monitor.PollLiveness(t0 + 59s)), 0u);

  EXPECT_TRUE(monitor.Beat(1, 0, 1.0, t0 + 30s).transitions.empty());
  EXPECT_EQ(monitor.Liveness(1), service::ReplicaLiveness::kDraining);

  EXPECT_EQ(died(monitor.PollLiveness(t0 + 60s)), 0u);
  EXPECT_EQ(died(monitor.PollLiveness(t0 + 60s + 1ms)), 2u);
  EXPECT_EQ(monitor.Liveness(0), service::ReplicaLiveness::kDead);
  EXPECT_EQ(monitor.Liveness(1), service::ReplicaLiveness::kDraining);
  EXPECT_EQ(monitor.Liveness(2), service::ReplicaLiveness::kDead);

  EXPECT_EQ(died(monitor.PollLiveness(t0 + 90s)), 0u);
  EXPECT_EQ(died(monitor.PollLiveness(t0 + 90s + 1ms)), 1u);
  EXPECT_EQ(monitor.Liveness(1), service::ReplicaLiveness::kDead);

  for (const auto now : {t0, t0 + 91s, t0 + 48h}) {
    EXPECT_EQ(died(monitor.PollLiveness(now)), 0u);
  }
  EXPECT_EQ(monitor.Liveness(3), service::ReplicaLiveness::kDetached);
  EXPECT_EQ(monitor.Liveness(4), service::ReplicaLiveness::kDead);

  ASSERT_EQ(deaths.size(), 4u);
  EXPECT_EQ(deaths[0].replica, 4);
  EXPECT_EQ(deaths[0].reason, "connection dropped");
  const std::vector<int32_t> by_deadline = {0, 2, 1};
  for (size_t i = 0; i < by_deadline.size(); ++i) {
    EXPECT_EQ(deaths[i + 1].replica, by_deadline[i]);
    EXPECT_EQ(deaths[i + 1].reason, "heartbeat deadline");
  }
  EXPECT_EQ(deaths[2].from, service::ReplicaLiveness::kDraining);
}

// An unclean drop is death at once (a vanished process, or a peer the server
// dropped for a malformed frame); a clean detach is expected absence.
TEST(HeartbeatMonitorTest, UncleanDropIsDeathAndCleanDetachIsNot) {
  service::HeartbeatMonitor monitor;
  monitor.OnReplicaAttached(1);
  monitor.OnReplicaDisconnected(1, /*clean=*/false);
  EXPECT_EQ(monitor.Liveness(1), service::ReplicaLiveness::kDead);
  monitor.OnReplicaAttached(1);  // the reconnect is a zombie's
  EXPECT_EQ(monitor.Liveness(1), service::ReplicaLiveness::kDead);
  monitor.OnReplicaAttached(2);
  monitor.OnReplicaDisconnected(2, /*clean=*/true);
  EXPECT_EQ(monitor.Liveness(2), service::ReplicaLiveness::kDetached);
  EXPECT_EQ(monitor.DeadReplicas(), std::vector<int32_t>{1});
}

TEST(HeartbeatMonitorTest, UpdatesStreamEveryTransition) {
  service::HeartbeatMonitor monitor;
  const auto now = service::HeartbeatMonitor::Clock::now();
  std::vector<service::ReplicaEvent> events;
  for (const service::MonitorUpdate& update :
       {monitor.Attach(0, now), monitor.Drop(0, /*clean=*/false)}) {
    events.insert(events.end(), update.transitions.begin(),
                  update.transitions.end());
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].replica, 0);
  EXPECT_EQ(events[0].from, service::ReplicaLiveness::kUnknown);
  EXPECT_EQ(events[0].to, service::ReplicaLiveness::kAlive);
  EXPECT_EQ(events[1].from, service::ReplicaLiveness::kAlive);
  EXPECT_EQ(events[1].to, service::ReplicaLiveness::kDead);
  EXPECT_FALSE(events[1].reason.empty());
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

// ---------- fleet coordinator ----------

namespace {
service::HeartbeatMonitorOptions FleetMonitorOptions() {
  service::HeartbeatMonitorOptions opts;
  opts.straggler_multiple = 2.0;
  opts.min_straggler_gap_ms = 1.0;
  return opts;
}

service::FleetOptions Fleet(std::vector<int32_t> replicas) {
  service::FleetOptions opts;
  opts.replicas = std::move(replicas);
  opts.spare_iteration_base = 10;
  return opts;
}

}  // namespace

// --- deaths ---

TEST(FleetCoordinatorTest, MovesDeadReplicasBacklogToSurvivorsByteStable) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::FleetCoordinator fleet(&store, {}, Fleet({0, 1, 2}));

  // Replica 1 dies with three unfetched plans; 0 and 2 are survivors.
  store.PushBytes(0, 1, "plan-a");
  store.PushBytes(1, 1, "plan-b");
  store.PushBytes(2, 1, "plan-c");
  fleet.OnReplicaAttached(1);
  fleet.OnReplicaDisconnected(1, /*clean=*/false);  // -> kDead

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
  EXPECT_GE(report.recovery_ms, 0.0);
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 2}));
}

TEST(FleetCoordinatorTest, DropsBacklogWhenNoSurvivorRemains) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::FleetCoordinator fleet(&store, {}, Fleet({1}));

  store.PushBytes(0, 1, "plan-a");
  store.PushBytes(1, 1, "plan-b");
  fleet.OnReplicaAttached(1);
  fleet.OnReplicaDisconnected(1, /*clean=*/false);

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
  service::FleetCoordinator fleet(&store, {}, Fleet({0, 1}));

  // Someone already published at the survivor's first spare key.
  store.PushBytes(10, 0, "squatter");
  store.PushBytes(0, 1, "plan-a");
  store.PushBytes(1, 1, "plan-b");
  fleet.OnReplicaAttached(1);
  fleet.OnReplicaDisconnected(1, /*clean=*/false);

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
  service::FleetCoordinator fleet(&store, {}, Fleet({0, 1, 2}));

  store.PushBytes(0, 1, "plan-a");
  store.PushBytes(1, 1, "plan-b");
  fleet.OnReplicaAttached(1);
  fleet.OnReplicaAttached(2);
  fleet.OnReplicaDisconnected(1, /*clean=*/false);
  // First death: round-robin lands plan-a at (10, 0) and plan-b at (10, 2).
  // Neither survivor fetches anything before the second death.
  fleet.OnReplicaDisconnected(2, /*clean=*/false);

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

// The coordinator owns no clock: with a deadline armed and real time
// passing, nothing happens until the caller polls.
TEST(FleetCoordinatorTest, IdleCoordinatorDeclaresNobodyDeadUntilPolled) {
  using namespace std::chrono_literals;
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitorOptions mopts;
  mopts.dead_after_ms = 1.0;
  service::FleetCoordinator fleet(&store, mopts, Fleet({0}));

  const auto now = service::FleetCoordinator::Clock::now();
  fleet.Attach(0, now);
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(fleet.IsReplicaDead(0));
  EXPECT_TRUE(fleet.report().dead_replicas.empty());

  fleet.PollLiveness(now + 2ms);
  EXPECT_TRUE(fleet.IsReplicaDead(0));
  EXPECT_EQ(fleet.report().dead_replicas, std::vector<int32_t>{0});
}

// The deadline's reaction on the caller's clock: no sleep, no fork.
TEST(FleetCoordinatorTest, DeadlineDeathOnVirtualClockRepostsBacklog) {
  using namespace std::chrono_literals;
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::HeartbeatMonitorOptions mopts;
  mopts.dead_after_ms = 60'000.0;
  service::FleetCoordinator fleet(&store, mopts, Fleet({0, 1, 2}));

  const service::FleetCoordinator::Clock::time_point t0{24h};
  for (const int32_t replica : {0, 1, 2}) {
    fleet.Attach(replica, t0);
  }
  store.PushBytes(0, 1, "b0");
  store.PushBytes(1, 1, "b1");
  store.PushBytes(2, 1, "b2");
  fleet.Beat(0, 0, 1.0, t0 + 50s);
  fleet.Beat(2, 0, 1.0, t0 + 50s);

  fleet.PollLiveness(t0 + 60s);  // exactly the deadline: still alive
  EXPECT_EQ(fleet.monitor().Liveness(1), service::ReplicaLiveness::kAlive);
  EXPECT_EQ(store.PendingIterations(1), (std::vector<int64_t>{0, 1, 2}));
  EXPECT_TRUE(fleet.report().dead_replicas.empty());

  fleet.PollLiveness(t0 + 60s + 1ms);
  EXPECT_TRUE(fleet.IsReplicaDead(1));
  EXPECT_EQ(fleet.report().dead_replicas, std::vector<int32_t>{1});
  EXPECT_EQ(fleet.report().replanned_iterations, 3);
  EXPECT_TRUE(store.PendingIterations(1).empty());

  // The zombie comes back: still dead, nothing moves back.
  fleet.Beat(1, 0, 1.0, t0 + 61s);
  fleet.Attach(1, t0 + 61s);
  EXPECT_TRUE(fleet.IsReplicaDead(1));
  EXPECT_TRUE(store.PendingIterations(1).empty());
  EXPECT_EQ(fleet.report().replanned_iterations, 3);
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 2}));
  // Round-robin over the survivors at their spare keys.
  EXPECT_EQ(store.FetchBytes(10, 0), "b0");
  EXPECT_EQ(store.FetchBytes(10, 2), "b1");
  EXPECT_EQ(store.FetchBytes(11, 0), "b2");
}

// A publisher that has not heard of a death keeps pushing to the dead
// replica, whose executor will never poll again. The coordinator's next
// input moves the late plan as the death moved the backlog, so the store
// still drains; with nobody left to take it, the plan is dropped and
// counted.
TEST(FleetCoordinatorTest, LatePushToADeadReplicaMovesOnTheNextInput) {
  using namespace std::chrono_literals;
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::FleetCoordinator fleet(&store, {}, Fleet({0, 1, 2}));

  const auto t0 = service::FleetCoordinator::Clock::now();
  fleet.Drop(1, /*clean=*/false);  // -> kDead, with nothing to move yet
  ASSERT_TRUE(fleet.IsReplicaDead(1));
  store.PushBytes(5, 1, "late");
  fleet.Beat(0, 0, 1.0, t0 + 1ms);  // a survivor's input
  EXPECT_TRUE(store.PendingIterations(1).empty());
  EXPECT_EQ(store.FetchBytes(10, 0), "late");
  EXPECT_EQ(fleet.report().replanned_iterations, 1);

  fleet.Drop(0, /*clean=*/false);
  fleet.Drop(2, /*clean=*/false);
  store.PushBytes(6, 1, "orphan");
  fleet.PollLiveness(t0 + 2ms);
  EXPECT_EQ(store.size(), 0u);
  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.replanned_iterations, 1);
  EXPECT_EQ(report.dropped_iterations, 1);
}

// An unlisted fleet is learned from whoever attaches: both attachers are
// members, so a death hands its backlog to the live peer instead of dropping
// it for want of a survivor.
TEST(FleetCoordinatorTest, UnlistedFleetRepostsADeadReplicasBacklog) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::FleetCoordinator fleet(&store, {}, Fleet({}));

  fleet.OnReplicaAttached(0);
  fleet.OnReplicaAttached(1);
  store.PushBytes(0, 1, "plan-a");
  store.PushBytes(1, 1, "plan-b");
  store.PushBytes(2, 1, "plan-c");
  fleet.Drop(1, /*clean=*/false);

  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.replanned_iterations, 3);
  EXPECT_EQ(report.dropped_iterations, 0);
  EXPECT_EQ(store.FetchBytes(10, 0), "plan-a");
  EXPECT_EQ(store.FetchBytes(11, 0), "plan-b");
  EXPECT_EQ(store.FetchBytes(12, 0), "plan-c");
}

// A death shrinks the expected fleet like a drain does: the survivors' report
// sets are full without the dead replica's beat, so a straggler among them
// is still flagged.
TEST(FleetCoordinatorTest, DeathShrinksTheExpectedFleet) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::FleetCoordinator fleet(&store, FleetMonitorOptions(),
                                  Fleet({0, 1, 2, 3}));

  fleet.OnReplicaAttached(3);
  fleet.OnReplicaDisconnected(3, /*clean=*/false);  // -> kDead
  fleet.OnHeartbeat(0, 0, 10.0);
  fleet.OnHeartbeat(1, 0, 40.0);  // over the 2 * median + 1 bar
  fleet.OnHeartbeat(2, 0, 10.0);

  const service::IterationHeartbeatStats stats =
      fleet.monitor().ForIteration(0);
  EXPECT_EQ(stats.replicas_expected, 3);
  EXPECT_EQ(stats.stragglers, std::vector<int32_t>{1});
}

#if DYNAPIPE_DEATH_TESTS
// The coordinator owns the expected fleet size; a second statement of it on
// the monitor options is a contract violation.
TEST(FleetCoordinatorDeathTest, MonitorExpectedReplicasDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  runtime::InstructionStore store;
  service::HeartbeatMonitorOptions mopts;
  mopts.expected_replicas = 2;
  EXPECT_DEATH(service::FleetCoordinator(&store, mopts, Fleet({0, 1})),
               "FleetOptions::replicas");
}
#endif

// A zombie's late beat must not count toward a report set. Once replica 3's
// death has shrunk the expected fleet to 3, its beat for iteration 5 would
// fill the set together with 0 and 2 — before replica 1 reported — and flag
// against a median that never saw replica 1.
TEST(FleetCoordinatorTest, ZombieBeatNeverCountsTowardAReportSet) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::FleetCoordinator fleet(&store, FleetMonitorOptions(),
                                  Fleet({0, 1, 2, 3}));

  fleet.OnReplicaAttached(3);
  fleet.OnReplicaDisconnected(3, /*clean=*/false);  // -> kDead
  ASSERT_EQ(fleet.monitor().expected_replicas(), 3);

  fleet.OnHeartbeat(3, 5, 10.0);  // the zombie
  fleet.OnHeartbeat(0, 5, 10.0);
  fleet.OnHeartbeat(2, 5, 10.0);
  service::IterationHeartbeatStats stats = fleet.monitor().ForIteration(5);
  EXPECT_EQ(stats.replicas_reported, 2);  // 2 of 3: still partial
  EXPECT_TRUE(stats.stragglers.empty());

  fleet.OnHeartbeat(1, 5, 40.0);  // fills the set, flagged
  stats = fleet.monitor().ForIteration(5);
  EXPECT_EQ(stats.replicas_reported, 3);
  EXPECT_EQ(stats.stragglers, std::vector<int32_t>{1});
}

// --- membership ---

// A replica outside the configured fleet turning alive is a joiner: the
// coordinator admits it, grows the expected fleet, and steals a fair share
// of the deepest member's *tail* backlog to the joiner's spare keys — where
// an open-ended executor polls first.
TEST(FleetCoordinatorTest, JoinerStealsAFairShareOfTheDeepestTail) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::FleetOptions opts = Fleet({0, 1, 2});
  service::FleetCoordinator fleet(&store, FleetMonitorOptions(), opts);

  for (int64_t i = 0; i < 8; ++i) {
    store.PushBytes(i, 1, "p" + std::to_string(i));
  }
  store.PushBytes(0, 0, "shallow");
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 1, 2}));

  // A bare shm announce or a plain wire kAttach both surface
  // here: an unknown replica turning alive.
  fleet.OnReplicaAttached(3);
  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.joined, std::vector<int32_t>{3});
  EXPECT_EQ(report.join_stolen, 2);  // floor(8 / new fleet of 4)
  EXPECT_EQ(fleet.monitor().expected_replicas(), 4);
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 1, 2, 3}));
  // Tail first, at the joiner's spare keys; the donor keeps its head and
  // replica 0's shallow backlog was never the donor.
  EXPECT_EQ(store.FetchBytes(10, 3), "p7");
  EXPECT_EQ(store.FetchBytes(11, 3), "p6");
  EXPECT_EQ(store.PendingIterations(1),
            (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(store.PendingIterations(0), std::vector<int64_t>{0});
}

// A drain request takes the leaver out of the member set, shrinks the
// expected fleet and hands its unfetched backlog round-robin to the
// surviving members at spare keys, all inside the sink call the feeder
// acknowledges after. A duplicate request must not repost twice, and the
// drainer receives nothing from a later death.
TEST(FleetCoordinatorTest, DrainHandsOffBacklogAndAcknowledgesOnce) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::FleetOptions opts = Fleet({0, 1, 2});
  service::FleetCoordinator fleet(&store, FleetMonitorOptions(), opts);

  fleet.OnReplicaAttached(0);
  fleet.OnReplicaAttached(1);
  fleet.OnReplicaAttached(2);
  store.PushBytes(0, 2, "d0");
  store.PushBytes(1, 2, "d1");
  store.PushBytes(2, 2, "d2");

  fleet.OnReplicaDrainRequested(2);
  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.drained, std::vector<int32_t>{2});
  EXPECT_EQ(report.drain_reposted, 3);
  EXPECT_EQ(fleet.monitor().expected_replicas(), 2);
  EXPECT_TRUE(store.PendingIterations(2).empty());
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 1}));
  // Round-robin over the survivors at their spare keys.
  EXPECT_EQ(store.FetchBytes(10, 0), "d0");
  EXPECT_EQ(store.FetchBytes(10, 1), "d1");
  EXPECT_EQ(store.FetchBytes(11, 0), "d2");

  fleet.OnReplicaDrainRequested(2);  // duplicate
  EXPECT_EQ(fleet.report().drained, std::vector<int32_t>{2});
  EXPECT_EQ(fleet.report().drain_reposted, 3);

  store.PushBytes(0, 1, "x");
  store.PushBytes(1, 1, "y");
  fleet.OnReplicaDisconnected(1, /*clean=*/false);  // dies; 0 is the heir
  EXPECT_EQ(fleet.report().replanned_iterations, 2);
  EXPECT_TRUE(store.PendingIterations(2).empty());
  EXPECT_EQ(store.FetchBytes(12, 0), "x");
  EXPECT_EQ(store.FetchBytes(13, 0), "y");
}

// Drain -> clean detach -> re-join, the full elastic round trip: the detach
// retires the drainer without shrinking the expectation a second time, the
// retired id receives nothing while it is gone, and a re-join of the same id
// re-admits it like any other joiner — a destination again.
TEST(FleetCoordinatorTest, DetachRetiresADrainerAndRejoinReadmitsIt) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::FleetOptions opts = Fleet({0, 1, 2, 3});
  service::FleetCoordinator fleet(&store, FleetMonitorOptions(), opts);

  for (int32_t replica = 0; replica < 4; ++replica) {
    fleet.OnReplicaAttached(replica);
  }
  fleet.OnReplicaDrainRequested(2);
  ASSERT_EQ(fleet.monitor().expected_replicas(), 3);

  fleet.OnReplicaDisconnected(2, /*clean=*/true);
  // Shrank at the drain, not here.
  EXPECT_EQ(fleet.monitor().expected_replicas(), 3);
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 1, 3}));
  // A goodbye, not a death.
  EXPECT_TRUE(fleet.monitor().DeadReplicas().empty());

  // No destination while gone: a death's backlog skips the retired id.
  store.PushBytes(0, 3, "a");
  store.PushBytes(1, 3, "b");
  fleet.OnReplicaDisconnected(3, /*clean=*/false);
  EXPECT_TRUE(store.PendingIterations(2).empty());
  EXPECT_EQ(store.FetchBytes(10, 0), "a");
  EXPECT_EQ(store.FetchBytes(10, 1), "b");
  ASSERT_EQ(fleet.monitor().expected_replicas(), 2);

  fleet.OnReplicaAttached(2);  // comes back: a joiner like any other
  EXPECT_EQ(fleet.monitor().expected_replicas(), 3);
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 1, 2}));
  EXPECT_EQ(fleet.report().joined, std::vector<int32_t>{2});

  // Re-admitted: the next death round-robins onto it again.
  store.PushBytes(0, 1, "c");
  store.PushBytes(1, 1, "d");
  fleet.OnReplicaDisconnected(1, /*clean=*/false);
  EXPECT_EQ(store.FetchBytes(11, 0), "c");
  EXPECT_EQ(store.FetchBytes(10, 2), "d");
}

// --- one member set for every policy ---

// A joiner is a survivor like any original member. With the only other
// original member draining, a death's backlog has exactly one home: the
// joiner's spare keys — not the drop path.
TEST(FleetCoordinatorTest, JoinerInheritsADeadMembersBacklog) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::FleetOptions opts = Fleet({0, 1});
  service::FleetCoordinator fleet(&store, {}, opts);

  store.PushBytes(0, 0, "plan-a");
  store.PushBytes(1, 0, "plan-b");
  fleet.OnReplicaAttached(0);
  fleet.OnReplicaAttached(1);
  fleet.OnReplicaAttached(2);  // joins; fair share floor(2 / 3) = 0
  fleet.OnReplicaDrainRequested(1);
  fleet.OnReplicaDisconnected(0, /*clean=*/false);  // dies holding both

  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.joined, std::vector<int32_t>{2});
  EXPECT_EQ(report.dropped_iterations, 0);
  EXPECT_EQ(report.replanned_iterations, 2);
  EXPECT_EQ(store.FetchBytes(10, 2), "plan-a");
  EXPECT_EQ(store.FetchBytes(11, 2), "plan-b");
  EXPECT_EQ(fleet.ActiveMembers(), std::vector<int32_t>{2});
}

// The gap-filling rule. A join steal vacates the donor's highest keys; the
// donor still polls its keys in order, so a later death repost to it reuses
// the lowest vacated key instead of landing beyond a gap it never crosses.
TEST(FleetCoordinatorTest, DeathRepostFillsTheGapAJoinVacated) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::FleetCoordinator fleet(&store, {}, Fleet({0, 1, 2}));

  for (int64_t i = 0; i < 12; ++i) {
    store.PushBytes(i, 1, "p" + std::to_string(i));
  }
  fleet.OnReplicaAttached(3);  // steals p11, p10, p9 to (10..12, 3)
  ASSERT_EQ(fleet.report().join_stolen, 3);
  EXPECT_EQ(store.FetchBytes(10, 3), "p11");

  store.PushBytes(0, 2, "dead-a");
  store.PushBytes(1, 2, "dead-b");
  store.PushBytes(2, 2, "dead-c");
  fleet.Drop(2, /*clean=*/false);  // round-robin over {0, 1, 3}

  EXPECT_EQ(fleet.report().replanned_iterations, 3);
  // The donor's keys stay contiguous from its poll cursor.
  EXPECT_EQ(store.PendingIterations(1),
            (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(store.FetchBytes(10, 0), "dead-a");
  EXPECT_EQ(store.FetchBytes(9, 1), "dead-b");  // the lowest vacated key
  EXPECT_EQ(store.FetchBytes(13, 3), "dead-c");
}

// --- every member that stops polling is swept ---

// A publisher that has not heard of a drain keeps pushing to the drainer,
// whose executor has already detached. The coordinator's next input moves
// the late plan as the drain moved the backlog.
TEST(FleetCoordinatorTest, LatePushToADrainedReplicaMovesOnTheNextInput) {
  using namespace std::chrono_literals;
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::FleetCoordinator fleet(&store, {}, Fleet({0, 1, 2}));

  const auto t0 = service::FleetCoordinator::Clock::now();
  fleet.Drain(2, t0);
  fleet.Drop(2, /*clean=*/true);
  store.PushBytes(1, 2, "late");
  fleet.Beat(0, 0, 1.0, t0 + 1ms);  // a survivor's input

  ASSERT_TRUE(store.PendingIterations(2).empty());
  EXPECT_EQ(store.FetchBytes(10, 0), "late");
  EXPECT_EQ(fleet.report().drain_reposted, 1);
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 1}));
}

// A clean detach retires any member, not only a drainer: a detached replica
// never polls again, so it takes no work, holds none and leaves the expected
// fleet.
TEST(FleetCoordinatorTest, CleanDetachRetiresAMember) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::FleetCoordinator fleet(&store, {}, Fleet({0, 1, 2}));

  fleet.OnReplicaAttached(0);
  fleet.OnReplicaDisconnected(0, /*clean=*/true);
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(fleet.monitor().expected_replicas(), 2);

  store.PushBytes(0, 1, "plan-a");
  store.PushBytes(1, 1, "plan-b");
  fleet.OnReplicaDisconnected(1, /*clean=*/false);  // dies holding both

  EXPECT_EQ(fleet.report().replanned_iterations, 2);
  ASSERT_TRUE(store.PendingIterations(0).empty());
  EXPECT_EQ(store.FetchBytes(10, 2), "plan-a");
  EXPECT_EQ(store.FetchBytes(11, 2), "plan-b");
  EXPECT_EQ(fleet.ActiveMembers(), std::vector<int32_t>{2});

  fleet.OnReplicaAttached(0);  // back: a joiner like any other
  EXPECT_EQ(fleet.report().joined, std::vector<int32_t>{0});
  EXPECT_EQ(fleet.ActiveMembers(), (std::vector<int32_t>{0, 2}));
}

// The last member draining has no peer to hand off to: its backlog is
// dropped and counted, as a death's is, not left on keys nobody polls.
TEST(FleetCoordinatorTest, DrainWithNoPeerLeftDropsItsBacklog) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  service::FleetCoordinator fleet(&store, {}, Fleet({0}));

  store.PushBytes(0, 0, "plan-a");
  store.PushBytes(1, 0, "plan-b");
  fleet.OnReplicaDrainRequested(0);

  const service::FleetReport report = fleet.report();
  EXPECT_EQ(report.drained, std::vector<int32_t>{0});
  EXPECT_EQ(report.drain_reposted, 0);
  EXPECT_EQ(report.dropped_iterations, 2);
  EXPECT_EQ(store.size(), 0u);
}

}  // namespace
}  // namespace dynapipe
