// Length-prefixed frame protocol for the instruction-store wire (frame v6).
//
// Every message is one frame:
//
//   u32 little-endian body length | body
//   body = type byte, varint(request_id), zigzag(iteration),
//          zigzag(replica), payload...
//
// The payload is the rest of the body and is type-specific: plan_serde bytes
// for kPlanBytes, one 0/1 byte for kBool, a varint for kHeartbeat and
// kClockReply, empty otherwise. Integers reuse the plan_serde varint
// primitives so the whole wire speaks one encoding. Every frame type has one
// direction: the client sends requests and the server writes only replies,
// one per request, in order.
//
// The server echoes each request's request_id on its reply. The client (the
// executor's fetch client, mux.h) has at most one request in flight, so the
// echo is a check, not a lookup: a reply that does not carry the id of the
// request just sent means the stream is out of step, and the client drops
// the connection.
//
// Plans are published where the store lives, never over the wire: v6 retired
// the remote-publishing types — push (1), size (4), shutdown (5) and count
// (67). Their numbers stay unassigned, so such a frame is an unknown type and
// drops the connection.
//
// ReadFrame never trusts the peer: a corrupt length (over kMaxFrameBytes),
// truncated body, or unparsable header field is a clean nullopt, not a crash
// in the receiving process — and a length the peer claims but never sends
// costs at most what actually arrived, not the claim.
#ifndef DYNAPIPE_SRC_TRANSPORT_FRAME_H_
#define DYNAPIPE_SRC_TRANSPORT_FRAME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/transport/transport.h"

namespace dynapipe::transport {

enum class FrameType : uint8_t {
  // Requests (client -> server).
  kFetch = 2,      // response kPlanBytes
  kContains = 3,   // response kBool
  kHeartbeat = 6,  // executor liveness: iteration/replica in the header,
                   // payload = varint(wall-clock microseconds the iteration
                   // took); response kOk (the reply keeps the protocol
                   // strictly request/response on every transport)
  kAttach = 7,     // replica announces itself on this connection; payload
                   // empty; response kOk — or kEvicted when the replica was
                   // declared dead (a zombie reconnecting after recovery
                   // moved its plans). A connection that ends after kAttach
                   // without a matching kDetach is an *unclean* disconnect:
                   // the server reports it to the liveness sink, which is how
                   // a SIGKILLed executor is detected immediately instead of
                   // after a heartbeat deadline.
  kDetach = 8,     // clean goodbye for one replica; response kOk
  kClockRequest = 9,  // "what does your trace clock read?"; response
                      // kClockReply. The executor's clock-alignment exchange
                      // at attach and reconnect.
  kDrainRequest = 10,  // frame v4: replica (in the header) asks to leave the
                       // fleet gracefully. The server hands the event to the
                       // membership layer, which drops the replica from the
                       // member set and reposts the leaver's unfetched
                       // backlog to survivors *before* the reply is
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
  kMissing = 68,   // kFetch of a key the store does not hold — after
                   // recovery reposted a dead replica's plan, the zombie's
                   // fetch gets this instead of crashing the server. Clients
                   // keeping the fatal fetch contract abort on it; resilient
                   // fetchers (the executor) treat it as "reclaimed".
  kEvicted = 69,   // kHeartbeat/kAttach from a replica declared dead: stop —
                   // your plans were re-published, exit instead of
                   // double-running them.
  kClockReply = 70,  // payload = varint(server's aligned trace-clock now,
                     // µs); codec below.
  kDrainAck = 71,  // frame v4: the drain handoff finished — the replica is
                   // out of the member set, its unfetched backlog lives
                   // with survivors. Receiving it is the green light to
                   // finish in-flight work and kDetach.
};

// Ceiling on one frame's body; anything larger is a corrupt length field.
// Plans are a few KB — 1 GiB is beyond any real instruction stream.
inline constexpr uint64_t kMaxFrameBytes = uint64_t{1} << 30;

struct Frame {
  FrameType type = FrameType::kOk;
  // Set by the client on each request, echoed by the server on the reply.
  uint64_t request_id = 0;
  int64_t iteration = 0;
  int32_t replica = 0;
  std::string payload;
};

// Writes one frame; false when the peer is gone. The overload taking
// `scratch` assembles the wire bytes in the caller's buffer instead of a
// fresh allocation — the fetch client reuses one buffer per connection, so a
// steady-state request allocates nothing.
bool WriteFrame(Stream& stream, const Frame& frame);
bool WriteFrame(Stream& stream, const Frame& frame, std::string* scratch);

// Reads one frame; nullopt on clean EOF, peer loss, a malformed frame (reason
// in *error when provided — empty for clean EOF before any byte), or the
// frame not arriving by `deadline` (after which the stream is out of step and
// must be closed).
std::optional<Frame> ReadFrame(Stream& stream, std::string* error = nullptr,
                               Deadline deadline = kNoDeadline);

// kHeartbeat payload codec. Wall time travels as a varint of whole
// microseconds (negatives and NaN clamp to 0, values at or over 2^64 µs to
// UINT64_MAX; sub-microsecond precision is noise next to scheduler jitter),
// so the frame stays a couple of bytes for millisecond-scale iterations and
// reuses the wire's one integer encoding.
void AppendHeartbeatPayload(double wall_ms, std::string* out);
// False on a truncated/overlong varint or trailing bytes — the caller treats
// that like any malformed frame (drop the connection, never crash).
bool TryParseHeartbeatPayload(std::string_view payload, double* wall_ms);

// kClockReply payload codec: varint(trace_now_us). A negative clock encodes
// as 0; TryParse rejects a truncated varint, a value over INT64_MAX and any
// trailing byte — the caller treats that like any malformed frame.
void AppendClockPayload(int64_t trace_now_us, std::string* out);
bool TryParseClockPayload(std::string_view payload, int64_t* trace_now_us);

}  // namespace dynapipe::transport

#endif  // DYNAPIPE_SRC_TRANSPORT_FRAME_H_
