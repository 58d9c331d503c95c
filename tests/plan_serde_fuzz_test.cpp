// Property/fuzz tests for the binary plan serde (src/service/plan_serde) and
// the frame layer above it (src/transport/frame).
//
// The codec feeds a cross-process wire (src/transport), so it must hold
// two properties against arbitrary input, not just the handwritten samples:
//   - lossless round-trip: Decode(Encode(p)) == p and re-encoding is
//     byte-identical, over randomized plans covering every instruction kind,
//     every recompute mode, sentinel values, and extreme field magnitudes;
//   - malformation safety: truncated or bit-flipped buffers never crash the
//     decoder — TryDecodeExecutionPlan reports a clean error instead (the
//     hardening the transport's receiving side depends on);
//   - hostile plans: real planner plans with mutated instruction fields,
//     micro-batch counts and device lists decode, then run on ClusterSim with
//     the executor's ground truth to a result (completed, deadlocked, OOM or
//     refused) and never abort.
// The frame-layer tests push the same hostility one level up: truncated,
// oversized, and bit-flipped frame headers and bodies against a live
// InstructionStoreServer (and as replies to a mux client's call) must yield
// a clean connection drop — never a crash, never a hang, and never a wedged
// server.
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/cost/pipeline_cost_model.h"
#include "src/data/flan_generator.h"
#include "src/executor/executor.h"
#include "src/runtime/instruction_store.h"
#include "src/runtime/planner.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/plan_serde.h"
#include "src/sim/cluster_sim.h"
#include "src/sim/instruction.h"
#include "src/transport/frame.h"
#include "src/transport/mux.h"
#include "src/transport/store_server.h"
#include "src/transport/transport.h"

namespace dynapipe {
namespace {

// A plan drawn from the full field space the wire format can carry: device
// counts 0..4, instruction counts 0..40, all instruction kinds and recompute
// modes, the -1 sentinels, and occasional extreme int32/int64 magnitudes that
// force multi-byte varints.
sim::ExecutionPlan RandomPlan(Rng& rng) {
  auto random_i32 = [&](bool allow_extreme) -> int32_t {
    if (allow_extreme && rng.NextBelow(8) == 0) {
      return rng.NextBelow(2) == 0 ? INT32_MIN : INT32_MAX;
    }
    return static_cast<int32_t>(rng.NextInt(-4, 1 << 20));
  };
  sim::ExecutionPlan plan;
  plan.num_microbatches = static_cast<int32_t>(rng.NextInt(0, 512));
  const uint64_t num_devices = rng.NextBelow(5);
  for (uint64_t d = 0; d < num_devices; ++d) {
    sim::DevicePlan dev;
    dev.device = static_cast<int32_t>(d);
    const uint64_t num_instr = rng.NextBelow(41);
    for (uint64_t i = 0; i < num_instr; ++i) {
      sim::Instruction instr;
      instr.type = static_cast<sim::InstrType>(rng.NextBelow(sim::kNumInstrTypes));
      instr.microbatch = random_i32(true);
      instr.peer = rng.NextBelow(4) == 0 ? -1 : static_cast<int32_t>(rng.NextBelow(64));
      instr.bytes = rng.NextBelow(8) == 0 ? static_cast<int64_t>(rng.NextU64())
                                          : rng.NextInt(0, int64_t{1} << 34);
      instr.shape.num_samples = random_i32(false);
      instr.shape.input_len = random_i32(true);
      instr.shape.target_len = random_i32(false);
      instr.recompute = static_cast<model::RecomputeMode>(rng.NextBelow(3));
      instr.fusion_group =
          rng.NextBelow(3) == 0 ? -1 : static_cast<int32_t>(rng.NextBelow(256));
      dev.instructions.push_back(instr);
    }
    plan.devices.push_back(std::move(dev));
  }
  return plan;
}

TEST(PlanSerdeFuzzTest, RandomizedRoundTripIsByteIdentical) {
  Rng rng(0xF00DD00Dull);
  std::set<sim::InstrType> types_seen;
  std::set<model::RecomputeMode> modes_seen;
  for (int case_i = 0; case_i < 1500; ++case_i) {
    const sim::ExecutionPlan plan = RandomPlan(rng);
    for (const auto& dev : plan.devices) {
      for (const auto& instr : dev.instructions) {
        types_seen.insert(instr.type);
        modes_seen.insert(instr.recompute);
      }
    }
    const std::string bytes = service::EncodeExecutionPlan(plan);
    std::string error;
    const std::optional<sim::ExecutionPlan> decoded =
        service::TryDecodeExecutionPlan(bytes, &error);
    ASSERT_TRUE(decoded.has_value()) << "case " << case_i << ": " << error;
    ASSERT_EQ(*decoded, plan) << "case " << case_i;
    // Re-encoding the decode must reproduce the wire bytes exactly — the
    // byte-identity the transport tests pin end to end starts here.
    ASSERT_EQ(service::EncodeExecutionPlan(*decoded), bytes) << "case " << case_i;
    // The fatal decoder is the same decoder.
    ASSERT_EQ(service::DecodeExecutionPlan(bytes), plan) << "case " << case_i;
  }
  // The generator actually exercised the full instruction set.
  EXPECT_EQ(types_seen.size(), static_cast<size_t>(sim::kNumInstrTypes));
  EXPECT_EQ(modes_seen.size(), 3u);
}

TEST(PlanSerdeFuzzTest, EveryTruncationFailsCleanly) {
  Rng rng(0xBEEFull);
  // Exhaustive over one representative buffer: every strict prefix must be
  // rejected (the decoder either runs out of bytes or, having consumed a
  // well-formed prefix, flags what is missing) — never crash, never succeed.
  sim::ExecutionPlan plan;
  do {
    plan = RandomPlan(rng);
  } while (plan.devices.empty() || plan.devices[0].instructions.empty());
  const std::string bytes = service::EncodeExecutionPlan(plan);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::string error;
    const std::optional<sim::ExecutionPlan> decoded =
        service::TryDecodeExecutionPlan(std::string_view(bytes).substr(0, len),
                                        &error);
    ASSERT_FALSE(decoded.has_value()) << "prefix of " << len << " decoded";
    ASSERT_FALSE(error.empty()) << "prefix of " << len;
  }
  // Randomized truncations across many plans.
  for (int case_i = 0; case_i < 300; ++case_i) {
    const std::string b = service::EncodeExecutionPlan(RandomPlan(rng));
    const size_t len = rng.NextBelow(b.size());
    std::string error;
    ASSERT_FALSE(
        service::TryDecodeExecutionPlan(std::string_view(b).substr(0, len),
                                        &error)
            .has_value());
    ASSERT_FALSE(error.empty());
  }
}

TEST(PlanSerdeFuzzTest, BitFlipsNeverCrashTheDecoder) {
  Rng rng(0xCAFEull);
  int rejected = 0;
  for (int case_i = 0; case_i < 500; ++case_i) {
    const sim::ExecutionPlan plan = RandomPlan(rng);
    std::string bytes = service::EncodeExecutionPlan(plan);
    const size_t byte_i = rng.NextBelow(bytes.size());
    bytes[byte_i] = static_cast<char>(
        static_cast<uint8_t>(bytes[byte_i]) ^ (uint8_t{1} << rng.NextBelow(8)));
    // A flipped bit may still decode (it landed in a value field) — the
    // property is that the decoder never crashes and never reports success
    // with an error, not that every corruption is detectable.
    std::string error;
    const std::optional<sim::ExecutionPlan> decoded =
        service::TryDecodeExecutionPlan(bytes, &error);
    if (!decoded.has_value()) {
      ++rejected;
      EXPECT_FALSE(error.empty());
    }
  }
  // Structural fields dominate small plans, so most flips must be caught.
  EXPECT_GT(rejected, 100);
}

TEST(PlanSerdeFuzzTest, CorruptMagicAndVersionAlwaysRejected) {
  Rng rng(0x5EEDull);
  const std::string bytes = service::EncodeExecutionPlan(RandomPlan(rng));
  for (size_t byte_i = 0; byte_i < 5; ++byte_i) {  // magic + version byte
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[byte_i] = static_cast<char>(static_cast<uint8_t>(corrupt[byte_i]) ^
                                          (uint8_t{1} << bit));
      std::string error;
      EXPECT_FALSE(service::TryDecodeExecutionPlan(corrupt, &error).has_value());
      EXPECT_TRUE(error == "bad magic" || error == "unsupported version")
          << "byte " << byte_i << " bit " << bit << ": " << error;
    }
  }
}

// ---------- hostile plans: decoded plans meet ClusterSim ----------

// Real planner plans, the starting points the mutations work from: GPT with
// two data-parallel replicas over four stages, and T5 over two stages.
const std::vector<sim::ExecutionPlan>& PlannerPlans() {
  static const std::vector<sim::ExecutionPlan> plans = [] {
    std::vector<sim::ExecutionPlan> out;
    const auto plan_for = [&out](const model::ModelConfig& config,
                                 const model::ParallelConfig& parallel,
                                 uint64_t seed) {
      cost::ProfileOptions profile;
      profile.max_microbatch_size = 32;
      profile.max_seq_len = 4096;
      runtime::PlannerOptions popts;
      popts.max_tmax_candidates = 48;
      popts.tmax_interval_ms = 0.5;
      popts.max_microbatch_size = 32;
      popts.reorder_clusters = 2;
      popts.dynamic_recompute = false;
      const cost::PipelineCostModel cm = cost::PipelineCostModel::Profile(
          config, model::HardwareSpec{}, parallel, profile);
      const runtime::IterationPlanner planner(cm, popts);
      data::FlanGeneratorOptions gen;
      gen.num_samples = 60;
      gen.seed = seed;
      gen.length_cap = 1024;
      const runtime::IterationPlan plan =
          planner.PlanIteration(data::GenerateFlanLikeDataset(gen).samples());
      DYNAPIPE_CHECK_MSG(plan.feasible, plan.infeasible_reason);
      for (const auto& replica : plan.replicas) {
        out.push_back(replica.exec_plan);
      }
    };
    plan_for(model::ModelConfig::Gpt3_35B(), {2, 1, 4}, 1);
    plan_for(model::ModelConfig::T5_5_5B(), {1, 2, 2}, 2);
    return out;
  }();
  return plans;
}

// What the executor does with fetched bytes: decode, then run the plan on a
// ClusterSim sized by the plan, with the executor's ground truth. A plan the
// codec rejects never reaches the simulator.
std::optional<sim::SimResult> DecodeAndRun(const sim::ExecutionPlan& plan) {
  const std::optional<sim::ExecutionPlan> decoded =
      service::TryDecodeExecutionPlan(service::EncodeExecutionPlan(plan));
  if (!decoded.has_value()) {
    return std::nullopt;
  }
  executor::SyntheticGroundTruth ground_truth;
  sim::ClusterSim cluster(decoded->num_devices(), &ground_truth);
  return cluster.Run(*decoded);
}

// A hostile replacement for an integer field: off by one either way, the -1
// sentinel, a small value, or an int32 extreme.
int64_t HostileValue(Rng& rng, int64_t current) {
  switch (rng.NextBelow(5)) {
    case 0:
      return current + 1;
    case 1:
      return current - 1;
    case 2:
      return -1;
    case 3:
      return rng.NextInt(0, 8);
    default:
      return rng.NextBelow(2) == 0 ? INT32_MAX : INT32_MIN;
  }
}

int32_t ToInt32(int64_t v) {
  return static_cast<int32_t>(std::clamp<int64_t>(v, INT32_MIN, INT32_MAX));
}

// Applies one mutation to `plan` and says what it did: an instruction's type,
// micro-batch, peer, bytes, a shape field or fusion group; the micro-batch
// count; or the device list.
std::string Mutate(Rng& rng, sim::ExecutionPlan& plan) {
  const uint64_t what = rng.NextBelow(8);
  const int32_t c = plan.num_devices();
  if (what == 7 && c > 0) {
    const size_t d = rng.NextBelow(static_cast<uint64_t>(c));
    switch (rng.NextBelow(4)) {
      case 0:
        plan.devices.erase(plan.devices.begin() + static_cast<ptrdiff_t>(d));
        return "dropped device " + std::to_string(d);
      case 1:
        plan.devices.push_back(plan.devices[d]);
        return "appended a copy of device " + std::to_string(d);
      case 2: {
        const size_t e = rng.NextBelow(static_cast<uint64_t>(c));
        std::swap(plan.devices[d], plan.devices[e]);
        return "swapped devices " + std::to_string(d) + " and " +
               std::to_string(e);
      }
      default:
        plan.devices.clear();
        return "cleared the device list";
    }
  }
  std::vector<size_t> busy;
  for (size_t d = 0; d < plan.devices.size(); ++d) {
    if (!plan.devices[d].instructions.empty()) {
      busy.push_back(d);
    }
  }
  if (what >= 6 || busy.empty()) {
    const int32_t before = plan.num_microbatches;
    plan.num_microbatches = ToInt32(HostileValue(rng, before));
    return "num_microbatches " + std::to_string(before) + " -> " +
           std::to_string(plan.num_microbatches);
  }
  const size_t d = busy[rng.NextBelow(busy.size())];
  auto& instrs = plan.devices[d].instructions;
  const size_t k = rng.NextBelow(instrs.size());
  sim::Instruction& in = instrs[k];
  const std::string where = "device " + std::to_string(d) + " #" +
                            std::to_string(k) + " " + in.ToString() + ": ";
  switch (what) {
    case 0:
      in.type = static_cast<sim::InstrType>(rng.NextBelow(sim::kNumInstrTypes));
      return where + "type -> " + sim::InstrTypeName(in.type);
    case 1:
      in.microbatch = ToInt32(HostileValue(rng, in.microbatch));
      return where + "microbatch -> " + std::to_string(in.microbatch);
    case 2:
      in.peer = ToInt32(HostileValue(rng, in.peer));
      return where + "peer -> " + std::to_string(in.peer);
    case 3:
      in.bytes = rng.NextBelow(4) == 0 ? INT64_MAX : HostileValue(rng, in.bytes);
      return where + "bytes -> " + std::to_string(in.bytes);
    case 4: {
      int32_t* fields[] = {&in.shape.num_samples, &in.shape.input_len,
                           &in.shape.target_len};
      int32_t* field = fields[rng.NextBelow(3)];
      *field = ToInt32(HostileValue(rng, *field));
      return where + "a shape field -> " + std::to_string(*field);
    }
    default:
      in.fusion_group = ToInt32(HostileValue(rng, in.fusion_group));
      return where + "fusion_group -> " + std::to_string(in.fusion_group);
  }
}

// The trial in flight, written out if it aborts the process: an abort is the
// property failing, and the seed alone does not say which mutation did it.
std::string g_trial;

extern "C" void PrintTrialOnAbort(int) {
  static const char kPrefix[] = "\nhostile-plan trial aborted: ";
  (void)!::write(STDERR_FILENO, kPrefix, sizeof(kPrefix) - 1);
  (void)!::write(STDERR_FILENO, g_trial.data(), g_trial.size());
  (void)!::write(STDERR_FILENO, "\n", 1);
  std::signal(SIGABRT, SIG_DFL);
  std::raise(SIGABRT);
}

// The property: every mutated planner plan that decodes yields exactly one
// result and never aborts the executor.
TEST(HostilePlanTest, MutatedPlannerPlansRunToAResult) {
  const std::vector<sim::ExecutionPlan>& bases = PlannerPlans();
  ASSERT_EQ(bases.size(), 3u);  // two GPT replicas, one T5
  for (const sim::ExecutionPlan& base : bases) {
    const std::optional<sim::SimResult> res = DecodeAndRun(base);
    ASSERT_TRUE(res.has_value());
    ASSERT_FALSE(res->refused || res->deadlocked || res->oom) << res->diagnostic;
  }
  const uint64_t seed = 0x5EC0DEull;
  Rng rng(seed);
  int completed = 0;
  int deadlocked = 0;
  int refused = 0;
  const auto previous = std::signal(SIGABRT, PrintTrialOnAbort);
  for (int trial = 0; trial < 20000; ++trial) {
    sim::ExecutionPlan plan = bases[rng.NextBelow(bases.size())];
    g_trial = "seed " + std::to_string(seed) + " trial " + std::to_string(trial);
    const uint64_t mutations = 1 + rng.NextBelow(3);
    for (uint64_t i = 0; i < mutations; ++i) {
      g_trial += "; " + Mutate(rng, plan);
    }
    const std::optional<sim::SimResult> res = DecodeAndRun(plan);
    ASSERT_TRUE(res.has_value()) << g_trial;  // every field fits the wire
    ASSERT_LE(int{res->refused} + int{res->deadlocked} + int{res->oom}, 1)
        << g_trial;
    ASSERT_EQ(res->refused || res->deadlocked, !res->diagnostic.empty())
        << g_trial;
    completed += res->refused || res->deadlocked ? 0 : 1;
    deadlocked += res->deadlocked ? 1 : 0;
    refused += res->refused ? 1 : 0;
  }
  std::signal(SIGABRT, previous);
  // The synthetic ground truth sets no memory limit, so nothing is OOM; the
  // mutations must reach every other result.
  EXPECT_GT(refused, 0);
  EXPECT_GT(deadlocked, 0);
  EXPECT_GT(completed, 0);
  std::printf("hostile plans: %d completed, %d deadlocked, %d refused\n",
              completed, deadlocked, refused);
}

// Named hostile plans. The first three each decoded cleanly and then aborted
// the executor inside ClusterSim::Run before it refused them.
TEST(HostilePlanTest, NamedProbesAreRefused) {
  const auto one_instruction = [](sim::InstrType type, int32_t peer) {
    sim::ExecutionPlan plan;
    plan.num_microbatches = 1;
    plan.devices.resize(1);
    sim::Instruction in;
    in.type = type;
    in.peer = peer;
    plan.devices[0].instructions.push_back(in);
    return plan;
  };
  sim::ExecutionPlan negative_shape = PlannerPlans()[0];
  negative_shape.devices[0].instructions[0].shape.num_samples = -3;
  const std::vector<std::pair<std::string, sim::ExecutionPlan>> probes = {
      {"wait with no start", one_instruction(sim::InstrType::kWaitRecvAct, -1)},
      {"send to peer 7 in a one-device plan",
       one_instruction(sim::InstrType::kSendActStart, 7)},
      {"backward with no forward",
       one_instruction(sim::InstrType::kBackwardPass, -1)},
      {"zero devices", sim::ExecutionPlan{}},
      {"negative shape", negative_shape},
  };
  for (const auto& [name, plan] : probes) {
    const std::optional<sim::SimResult> res = DecodeAndRun(plan);
    ASSERT_TRUE(res.has_value()) << name;
    EXPECT_TRUE(res->refused) << name;
    EXPECT_EQ(res->diagnostic.rfind("refused: ", 0), 0u)
        << name << ": " << res->diagnostic;
  }
}

// ---------- frame layer ----------

// Assembles the wire bytes of one well-formed kContains frame, exactly as
// WriteFrame lays them out. kContains is the fuzz base because every
// corruption of its non-type bytes is non-lethal by design: garbage keys are
// a legitimate "false" answer, while e.g. a corrupted kFetch key would trip
// the store's *intentional* fetch-before-publish abort.
std::string RawContainsFrame(uint64_t request_id, int64_t iteration,
                             int32_t replica) {
  std::string body;
  body.push_back(static_cast<char>(transport::FrameType::kContains));
  service::AppendVarint(request_id, &body);
  service::AppendZigzag(iteration, &body);
  service::AppendZigzag(replica, &body);
  std::string wire;
  const uint32_t len = static_cast<uint32_t>(body.size());
  wire.push_back(static_cast<char>(len & 0xff));
  wire.push_back(static_cast<char>((len >> 8) & 0xff));
  wire.push_back(static_cast<char>((len >> 16) & 0xff));
  wire.push_back(static_cast<char>((len >> 24) & 0xff));
  wire.append(body);
  return wire;
}

// One hostile connection: write `bytes`, optionally close, and drain
// whatever the server sends until it drops us. The server must survive — the
// caller verifies with a valid exchange afterwards.
void SendHostileBytes(transport::Transport& transport, const std::string& bytes,
                      bool close_after) {
  std::unique_ptr<transport::Stream> conn = transport.Connect();
  ASSERT_NE(conn, nullptr);
  conn->WriteAll(bytes.data(), bytes.size());
  if (close_after) {
    conn->Close();
  }
  // Read until the server closes the connection (a reply to a parseable
  // prefix may arrive first). Bounded by the stream closing, not a timer:
  // a hang here IS the failure.
  char sink[256];
  while (conn->ReadAll(sink, 1)) {
    (void)sink;
  }
}

TEST(FrameLayerFuzzTest, MalformedFramesDropConnectionNeverCrashServer) {
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  transport::LoopbackTransport transport;
  transport::InstructionStoreServer server(&transport, &store);

  const auto expect_server_alive = [&] {
    auto client = transport::MuxInstructionStore::OverTransport(&transport);
    bool present = true;
    EXPECT_TRUE(client->TryContains(1, 1, &present));
    EXPECT_FALSE(present);
    EXPECT_EQ(store.size(), 0u);
  };

  // Oversized length field (over kMaxFrameBytes).
  SendHostileBytes(transport, std::string("\xff\xff\xff\xff", 4), false);
  expect_server_alive();
  // Truncated header: close mid-length-prefix.
  SendHostileBytes(transport, std::string("\x08\x00", 2), true);
  expect_server_alive();
  // Truncated body: length promises more than arrives.
  SendHostileBytes(transport, std::string("\x20\x00\x00\x00", 4) + "abc", true);
  expect_server_alive();
  // Empty body.
  SendHostileBytes(transport, std::string(4, '\0'), false);
  expect_server_alive();
  // Unknown frame type.
  SendHostileBytes(transport, std::string("\x01\x00\x00\x00\x2a", 5), false);
  expect_server_alive();
  // A well-formed frame v5 push (type 1, retired in v6) carrying a real
  // plan: an unknown type like any other, so nothing is stored.
  {
    std::string body = "\x01";
    service::AppendVarint(/*request_id=*/1, &body);
    service::AppendZigzag(/*iteration=*/0, &body);
    service::AppendZigzag(/*replica=*/1, &body);
    Rng plan_rng(0x9u);
    body += service::EncodeExecutionPlan(RandomPlan(plan_rng));
    const uint32_t len = static_cast<uint32_t>(body.size());
    std::string wire;
    for (int shift = 0; shift < 32; shift += 8) {
      wire.push_back(static_cast<char>((len >> shift) & 0xff));
    }
    SendHostileBytes(transport, wire + body, false);
    expect_server_alive();
  }

  // Randomized garbage and bit-flipped valid frames.
  Rng rng(0xFADEDull);
  for (int case_i = 0; case_i < 60; ++case_i) {
    std::string wire;
    if (case_i % 2 == 0) {
      // Pure garbage of random length.
      const size_t len = 1 + rng.NextBelow(64);
      for (size_t b = 0; b < len; ++b) {
        wire.push_back(static_cast<char>(rng.NextBelow(256)));
      }
    } else {
      // A valid kContains frame with one flipped bit anywhere past the type
      // byte (length prefix included): corrupt lengths, request ids, and
      // keys must all be survivable. The type byte is excluded — morphing
      // kContains into kFetch of an unpublished key would trip the store's
      // intentional fatal contract, which is not a parse hazard.
      wire = RawContainsFrame(rng.NextU64() >> 32,
                              static_cast<int64_t>(rng.NextBelow(1000)),
                              static_cast<int32_t>(rng.NextBelow(8)));
      size_t byte_i = rng.NextBelow(wire.size() - 1);
      if (byte_i >= 4) {
        ++byte_i;  // skip the type byte at offset 4
      }
      wire[byte_i] = static_cast<char>(static_cast<uint8_t>(wire[byte_i]) ^
                                       (uint8_t{1} << rng.NextBelow(8)));
    }
    SendHostileBytes(transport, wire, true);
  }
  expect_server_alive();
  server.Stop();
}

TEST(FrameLayerFuzzTest, MalformedRepliesFailTheMuxCallCleanly) {
  // Each hostile reply answers an outstanding call: the call fails, the
  // client closes the connection and sends nothing more, later calls fail at
  // once — never a crash or a hang. The complete replies stay on an open
  // stream, so the client must reject them on their bytes alone; the partial
  // ones need the peer's close to end.
  Rng rng(0xD00Full);
  for (int case_i = 0; case_i < 50; ++case_i) {
    transport::LoopbackTransport transport;
    auto client = transport::MuxInstructionStore::OverTransport(&transport);
    std::unique_ptr<transport::Stream> fake_server = transport.Accept();
    ASSERT_NE(fake_server, nullptr);

    std::thread server([&] {
      const std::optional<transport::Frame> request = ReadFrame(*fake_server);
      ASSERT_TRUE(request.has_value());
      transport::Frame frame;
      frame.request_id = request->request_id;
      std::string wire;
      bool close_after = false;
      switch (case_i % 5) {
        case 0:  // oversized length
          wire = std::string("\xff\xff\xff\xff", 4);
          break;
        case 1:  // truncated body
          wire = std::string("\x20\x00\x00\x00", 4) + "xy";
          close_after = true;
          break;
        case 2:  // the right reply type for another request id
          frame.type = transport::FrameType::kBool;
          frame.request_id += 7777;
          frame.payload = "\x01";
          WriteFrame(*fake_server, frame);
          break;
        case 3:  // a request with the echoed id: the server writes replies
          frame.type = transport::FrameType::kClockRequest;
          WriteFrame(*fake_server, frame);
          break;
        default: {  // random garbage
          const size_t len = 1 + rng.NextBelow(48);
          for (size_t b = 0; b < len; ++b) {
            wire.push_back(static_cast<char>(rng.NextBelow(256)));
          }
          close_after = true;
          break;
        }
      }
      fake_server->WriteAll(wire.data(), wire.size());
      if (close_after) {
        fake_server->Close();
      } else {
        EXPECT_FALSE(ReadFrame(*fake_server).has_value())
            << "the client kept talking after a malformed reply";
      }
    });
    bool present = false;
    EXPECT_FALSE(client->TryContains(1, 0, &present));
    EXPECT_FALSE(client->connection_ok());
    server.join();
    EXPECT_FALSE(client->TryContains(1, 0, &present));
  }
}

// ---------- heartbeat framing ----------

// Assembles the wire bytes of one well-formed kHeartbeat frame, exactly as
// WriteFrame lays them out (length prefix, type, varint request_id, zigzag
// iteration/replica, varint wall-microseconds payload).
std::string RawHeartbeatFrame(uint64_t request_id, int64_t iteration,
                              int32_t replica, double wall_ms) {
  std::string body;
  body.push_back(static_cast<char>(transport::FrameType::kHeartbeat));
  service::AppendVarint(request_id, &body);
  service::AppendZigzag(iteration, &body);
  service::AppendZigzag(replica, &body);
  transport::AppendHeartbeatPayload(wall_ms, &body);
  std::string wire;
  const uint32_t len = static_cast<uint32_t>(body.size());
  wire.push_back(static_cast<char>(len & 0xff));
  wire.push_back(static_cast<char>((len >> 8) & 0xff));
  wire.push_back(static_cast<char>((len >> 16) & 0xff));
  wire.push_back(static_cast<char>((len >> 24) & 0xff));
  wire.append(body);
  return wire;
}

TEST(HeartbeatFramingTest, PayloadCodecRoundTripsAtMicrosecondGranularity) {
  // The payload is a varint of whole microseconds: values on the grid
  // round-trip exactly, off-grid values floor to it, negatives clamp to 0.
  for (const double wall_ms : {0.0, 0.001, 3.25, 250.0, 86'400'000.0}) {
    std::string payload;
    transport::AppendHeartbeatPayload(wall_ms, &payload);
    double decoded = -1.0;
    ASSERT_TRUE(transport::TryParseHeartbeatPayload(payload, &decoded));
    EXPECT_DOUBLE_EQ(decoded, wall_ms);
  }
  std::string payload;
  transport::AppendHeartbeatPayload(-5.0, &payload);
  double decoded = -1.0;
  ASSERT_TRUE(transport::TryParseHeartbeatPayload(payload, &decoded));
  EXPECT_EQ(decoded, 0.0);
  // Truncations of a multi-byte payload fail cleanly, as do trailing bytes.
  payload.clear();
  transport::AppendHeartbeatPayload(1e9, &payload);
  ASSERT_GT(payload.size(), 1u);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(transport::TryParseHeartbeatPayload(
        std::string_view(payload).substr(0, len), &decoded));
  }
  EXPECT_FALSE(transport::TryParseHeartbeatPayload(payload + "x", &decoded));
}

TEST(HeartbeatFramingTest, FrameRoundTripsOverLoopback) {
  transport::LoopbackTransport lo;
  auto client = lo.Connect();
  auto server = lo.Accept();
  transport::Frame out;
  out.type = transport::FrameType::kHeartbeat;
  out.request_id = 42;
  out.iteration = 17;
  out.replica = 3;
  transport::AppendHeartbeatPayload(123.456, &out.payload);
  ASSERT_TRUE(WriteFrame(*client, out));
  std::string error;
  std::optional<transport::Frame> in = ReadFrame(*server, &error);
  ASSERT_TRUE(in.has_value()) << error;
  EXPECT_EQ(in->type, transport::FrameType::kHeartbeat);
  EXPECT_EQ(in->request_id, 42u);
  EXPECT_EQ(in->iteration, 17);
  EXPECT_EQ(in->replica, 3);
  double wall_ms = 0.0;
  ASSERT_TRUE(transport::TryParseHeartbeatPayload(in->payload, &wall_ms));
  EXPECT_DOUBLE_EQ(wall_ms, 123.456);
}

// Hostile heartbeat bytes against a live server with a real monitor sink:
// every strict prefix (a truncated frame) and every single-bit flip outside
// the type byte must end in either a recorded-or-dropped heartbeat or a
// clean connection drop — never a crash, never a wedged server, and never
// garbage parsed past a malformed payload.
TEST(HeartbeatFramingTest, TruncationsAndBitFlipsNeverCrashServerOrMonitor) {
  service::HeartbeatMonitor monitor;
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  store.set_heartbeat_sink(&monitor);
  transport::LoopbackTransport transport;
  transport::InstructionStoreServer server(&transport, &store);

  const std::string wire = RawHeartbeatFrame(/*request_id=*/9,
                                             /*iteration=*/12, /*replica=*/1,
                                             /*wall_ms=*/987.654);
  // Every strict prefix.
  for (size_t len = 1; len < wire.size(); ++len) {
    SendHostileBytes(transport, wire.substr(0, len), true);
  }
  // Every single-bit flip, skipping the type byte at offset 4 (morphing
  // kHeartbeat into kFetch of an unpublished key would trip the store's
  // intentional fatal contract, which is not a parse hazard).
  for (size_t byte_i = 0; byte_i < wire.size(); ++byte_i) {
    if (byte_i == 4) {
      continue;
    }
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = wire;
      corrupt[byte_i] = static_cast<char>(static_cast<uint8_t>(corrupt[byte_i]) ^
                                          (uint8_t{1} << bit));
      SendHostileBytes(transport, corrupt, true);
    }
  }

  // The server survived all of it: a valid heartbeat still lands.
  auto client = transport::MuxInstructionStore::OverTransport(&transport);
  bool evicted = false;
  EXPECT_TRUE(client->TryHeartbeat(/*replica=*/5, /*iteration=*/33,
                                   /*wall_ms=*/7.5, &evicted));
  EXPECT_FALSE(evicted);
  EXPECT_EQ(monitor.LastIteration(5), 33);
  const service::IterationHeartbeatStats stats = monitor.ForIteration(33);
  EXPECT_EQ(stats.replicas_reported, 1);
  EXPECT_DOUBLE_EQ(stats.max_wall_ms, 7.5);
  server.Stop();
}

TEST(PlanSerdeFuzzTest, TryParsePrimitivesRejectTruncationWithoutAborting) {
  std::string buf;
  service::AppendVarint(uint64_t{1} << 40, &buf);  // multi-byte varint
  for (size_t len = 0; len < buf.size(); ++len) {
    size_t pos = 0;
    uint64_t v = 0;
    EXPECT_FALSE(
        service::TryParseVarint(std::string_view(buf).substr(0, len), &pos, &v));
  }
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_TRUE(service::TryParseVarint(buf, &pos, &v));
  EXPECT_EQ(v, uint64_t{1} << 40);
  EXPECT_EQ(pos, buf.size());
  // Overlong varints (ten 0x80 continuation bytes) are malformed, not fatal.
  const std::string overlong(10, '\x80');
  pos = 0;
  EXPECT_FALSE(service::TryParseVarint(overlong, &pos, &v));
}

}  // namespace
}  // namespace dynapipe
