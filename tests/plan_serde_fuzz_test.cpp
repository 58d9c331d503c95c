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
//     hardening the transport's receiving side depends on).
// The frame-layer tests push the same hostility one level up: truncated,
// oversized, and bit-flipped frame headers and bodies against a live
// InstructionStoreServer (and against a mux client's demux loop) must yield
// a clean connection drop — never a crash, never a hang, and never a wedged
// server.
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/runtime/instruction_store.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/plan_serde.h"
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
    EXPECT_FALSE(client->Contains(1, 1));
    EXPECT_EQ(client->size(), 0u);
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

TEST(FrameLayerFuzzTest, MalformedRepliesFailMuxDemuxLoopCleanly) {
  // The demux loop is the mux client's receiving side; hostile reply bytes
  // must end in a clean connection error (connection_ok() false, demux
  // thread exited, destructor joins) — never a crash or a hang.
  Rng rng(0xD00Full);
  for (int case_i = 0; case_i < 40; ++case_i) {
    transport::LoopbackTransport transport;
    auto client = transport::MuxInstructionStore::OverTransport(&transport);
    std::unique_ptr<transport::Stream> fake_server = transport.Accept();
    ASSERT_NE(fake_server, nullptr);

    std::string wire;
    switch (case_i % 4) {
      case 0:  // oversized length
        wire = std::string("\xff\xff\xff\xff", 4);
        break;
      case 1:  // truncated body
        wire = std::string("\x20\x00\x00\x00", 4) + "xy";
        break;
      case 2: {  // reply to a request nobody sent
        transport::Frame frame;
        frame.type = transport::FrameType::kOk;
        frame.request_id = 7777;
        WriteFrame(*fake_server, frame);
        break;
      }
      default: {  // random garbage
        const size_t len = 1 + rng.NextBelow(48);
        for (size_t b = 0; b < len; ++b) {
          wire.push_back(static_cast<char>(rng.NextBelow(256)));
        }
        break;
      }
    }
    if (!wire.empty()) {
      fake_server->WriteAll(wire.data(), wire.size());
    }
    fake_server->Close();
    // The demux loop notices and marks the connection dead; no call is
    // outstanding, so nothing crashes and nothing waits forever.
    while (client->connection_ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
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
  EXPECT_TRUE(client->Heartbeat(/*replica=*/5, /*iteration=*/33,
                                /*wall_ms=*/7.5));
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
