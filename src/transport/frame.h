// Length-prefixed frame protocol for the instruction-store wire.
//
// Every message is one frame:
//
//   u32 little-endian body length | body
//   body = type byte, varint(request_id), zigzag(iteration),
//          zigzag(replica), payload...
//
// The payload is the rest of the body and is type-specific: plan_serde bytes
// for kPush/kPlanBytes, one 0/1 byte for kBool, a varint for kCount, empty
// otherwise. Integers reuse the plan_serde varint primitives so the whole
// wire speaks one encoding.
//
// request_id correlates replies with requests on a multiplexed connection
// (mux.h): the client tags every request with a fresh id and the server
// echoes it on the reply, so many requests can be in flight on one long-lived
// stream and the demux loop matches each reply to its waiter. A client that
// omits correlation sends id 0 (one varint byte) and ignores it on replies —
// on a strict request/response stream there is nothing to correlate. Either
// way, the server replying to kPush only after the store accepted the plan is
// exactly how capacity backpressure crosses the process boundary: the
// client's Push blocks waiting for that kOk until a Fetch frees a slot.
//
// ReadFrame never trusts the peer: a corrupt length (over kMaxFrameBytes),
// truncated body, or unparsable header field is a clean nullopt, not a crash
// in the receiving process.
#ifndef DYNAPIPE_SRC_TRANSPORT_FRAME_H_
#define DYNAPIPE_SRC_TRANSPORT_FRAME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/metrics.h"
#include "src/transport/transport.h"

namespace dynapipe::transport {

enum class FrameType : uint8_t {
  // Requests (client -> server).
  kPush = 1,       // payload = encoded plan; response kOk once stored/dropped
  kFetch = 2,      // response kPlanBytes
  kContains = 3,   // response kBool
  kSize = 4,       // response kCount
  kShutdown = 5,   // response kOk
  kHeartbeat = 6,  // executor liveness: iteration/replica in the header,
                   // payload = varint(wall-clock microseconds the iteration
                   // took); response kOk (the reply keeps the protocol
                   // strictly request/response on every transport)
  kAttach = 7,     // replica announces itself on this connection; response
                   // kOk — or kEvicted when the replica was declared dead
                   // (a zombie reconnecting after recovery moved its plans).
                   // A connection that ends after kAttach without a matching
                   // kDetach is an *unclean* disconnect: the server reports
                   // it to the liveness sink, which is how a SIGKILLed
                   // executor is detected immediately instead of after a
                   // heartbeat deadline.
  kDetach = 8,     // clean goodbye for one replica; response kOk
  kStatsRequest = 9,  // frame v3: "send me your metrics snapshot"; response
                      // kStatsReply. Travels *both* directions: any client
                      // may ask the server (this round trip is also the
                      // clock-alignment exchange at executor attach), and the
                      // server may ask a mux client that declared the stats
                      // capability in its kAttach payload — that is how the
                      // trainer pulls executor-side snapshots mid-epoch.
  kDrainRequest = 10,  // frame v4: replica (in the header) asks to leave the
                       // fleet gracefully. The server fences the replica as a
                       // repost destination and hands the event to the
                       // membership layer, which reposts the leaver's
                       // unfetched backlog to survivors *before* the reply is
                       // written — so the kDrainAck the client blocks on IS
                       // the handoff-complete signal. The replica then
                       // finishes anything already fetched and sends a normal
                       // kDetach. Response kDrainAck (kEvicted when the
                       // replica was already declared dead — too late to
                       // drain what recovery already reposted).
  // Responses (server -> client).
  kOk = 64,
  kPlanBytes = 65,
  kBool = 66,
  kCount = 67,
  kMissing = 68,   // kFetch of a key the store does not hold — after
                   // recovery reposted a dead replica's plan, the zombie's
                   // fetch gets this instead of crashing the server. Clients
                   // keeping the fatal fetch contract abort on it; resilient
                   // fetchers (the executor) treat it as "reclaimed".
  kEvicted = 69,   // kHeartbeat/kAttach from a replica declared dead: stop —
                   // your plans were re-published, exit instead of
                   // double-running them.
  kStatsReply = 70,  // frame v3: payload = varint(responder's aligned
                     // trace-clock now, µs) + metrics snapshot (codec below).
                     // A malformed payload is handled like any malformed
                     // frame: drop the connection, never crash.
  kDrainAck = 71,  // frame v4: the drain handoff finished — the replica is
                   // fenced, its unfetched backlog lives with survivors.
                   // Receiving it is the green light to finish in-flight
                   // work and kDetach.
};

// Ceiling on one frame's body; anything larger is a corrupt length field.
// Plans are a few KB — 1 GiB is beyond any real instruction stream.
inline constexpr uint64_t kMaxFrameBytes = uint64_t{1} << 30;

struct Frame {
  FrameType type = FrameType::kOk;
  // Reply-correlation id on multiplexed connections; 0 from a client that
  // omits it.
  uint64_t request_id = 0;
  int64_t iteration = 0;
  int32_t replica = 0;
  std::string payload;
};

// Writes one frame; false when the peer is gone. The overload taking
// `scratch` assembles the wire bytes in the caller's buffer instead of a
// fresh allocation — a steady-state publisher (the mux client) reuses one
// buffer per thread so pushing a plan does no per-plan heap allocation
// once the buffer has grown to plan size.
bool WriteFrame(Stream& stream, const Frame& frame);
bool WriteFrame(Stream& stream, const Frame& frame, std::string* scratch);

// Reads one frame; nullopt on clean EOF, peer loss, or a malformed frame
// (reason in *error when provided — empty for clean EOF before any byte).
std::optional<Frame> ReadFrame(Stream& stream, std::string* error = nullptr);

// kHeartbeat payload codec. Wall time travels as a varint of whole
// microseconds (negatives and NaN clamp to 0, values at or over 2^64 µs to
// UINT64_MAX; sub-microsecond precision is noise next to scheduler jitter),
// so the frame stays a couple of bytes for millisecond-scale iterations and
// reuses the wire's one integer encoding.
void AppendHeartbeatPayload(double wall_ms, std::string* out);
// False on a truncated/overlong varint or trailing bytes — the caller treats
// that like any malformed frame (drop the connection, never crash).
bool TryParseHeartbeatPayload(std::string_view payload, double* wall_ms);

// kStatsReply payload codec (frame v3). Layout, varints/zigzags throughout:
//
//   varint(trace_now_us)            responder's aligned trace clock (µs;
//                                   negatives clamp to 0 at encode)
//   varint(#counters)   then per counter:   varint(len) name zigzag(value)
//   varint(#gauges)     then per gauge:     varint(len) name zigzag(value)
//   varint(#histograms) then per histogram: varint(len) name varint(count)
//                                           varint(sum_us) varint(#buckets)
//                                           varint(bucket)...
//
// TryParse distrusts the peer the same way plan_serde does: entry counts are
// bounded by remaining payload bytes (a corrupt count cannot drive
// allocation), names are capped at 256 bytes, bucket vectors at
// LatencyHistogram::kNumBuckets, and trailing bytes are malformed. False
// means "treat as malformed frame" — drop the connection, never crash.
void AppendStatsPayload(int64_t trace_now_us,
                        const common::MetricsSnapshot& snapshot,
                        std::string* out);
bool TryParseStatsPayload(std::string_view payload, int64_t* trace_now_us,
                          common::MetricsSnapshot* snapshot);

// kAttach capability payload (frame v3/v4). v2 attach payloads were empty and
// remain valid (no capabilities). Byte 0 is a capability bitmask today;
// kAttachCapStats marks a connection whose client demux answers
// server-initiated kStatsRequest frames (the mux client); a client that does
// not read its stream between requests must NOT set it.
inline constexpr uint8_t kAttachCapStats = 0x01;
// frame v4: the attaching replica declares it may be *outside* the fleet the
// publisher configured — a mid-epoch joiner. The server's handling is
// identical either way (attach + liveness touch); the bit exists so the
// intent is explicit on the wire and a future server may refuse unknown
// replicas that do not declare it. Admission itself rides the liveness event
// stream: the FleetCoordinator admits any unknown replica that goes
// alive, which is also how shm joiners (who have no attach frame at all —
// AnnounceReplica claims a heartbeat slot) are admitted.
inline constexpr uint8_t kAttachCapJoin = 0x02;

}  // namespace dynapipe::transport

#endif  // DYNAPIPE_SRC_TRANSPORT_FRAME_H_
