#include "src/transport/frame.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/common/fault_injection.h"
#include "src/common/metrics.h"
#include "src/service/plan_serde.h"

namespace dynapipe::transport {

namespace {

// ReadFrame grows a frame body by at most this much per read, so a claimed
// length costs only the bytes that actually arrive.
constexpr uint64_t kReadChunkBytes = uint64_t{64} << 10;

// Frames-by-type counters, resolved once per type. WriteFrame is the one
// choke point every outbound frame in both directions passes through, so
// counting here covers requests and replies alike.
common::Counter& FrameCounterFor(FrameType type) {
  common::MetricsRegistry& reg = common::MetricsRegistry::Instance();
  switch (type) {
    case FrameType::kFetch: {
      static common::Counter& c =
          reg.GetCounter("transport_frames_fetch_total");
      return c;
    }
    case FrameType::kContains: {
      static common::Counter& c =
          reg.GetCounter("transport_frames_contains_total");
      return c;
    }
    case FrameType::kHeartbeat: {
      static common::Counter& c =
          reg.GetCounter("transport_frames_heartbeat_total");
      return c;
    }
    case FrameType::kAttach: {
      static common::Counter& c =
          reg.GetCounter("transport_frames_attach_total");
      return c;
    }
    case FrameType::kDetach: {
      static common::Counter& c =
          reg.GetCounter("transport_frames_detach_total");
      return c;
    }
    case FrameType::kClockRequest:
    case FrameType::kClockReply: {
      static common::Counter& c =
          reg.GetCounter("transport_frames_clock_total");
      return c;
    }
    case FrameType::kPlanBytes: {
      static common::Counter& c =
          reg.GetCounter("transport_frames_plan_bytes_total");
      return c;
    }
    case FrameType::kDrainRequest: {
      static common::Counter& c =
          reg.GetCounter("transport_frames_drain_total");
      return c;
    }
    case FrameType::kOk:
    case FrameType::kBool:
    case FrameType::kMissing:
    case FrameType::kEvicted:
    case FrameType::kDrainAck: {
      static common::Counter& c =
          reg.GetCounter("transport_frames_reply_total");
      return c;
    }
  }
  static common::Counter& c = reg.GetCounter("transport_frames_other_total");
  return c;
}

}  // namespace

bool WriteFrame(Stream& stream, const Frame& frame) {
  std::string wire;
  return WriteFrame(stream, frame, &wire);
}

bool WriteFrame(Stream& stream, const Frame& frame, std::string* scratch) {
  // The reader enforces this bound, so catch the overflow where it is a bug
  // (the sender) instead of desyncing the peer: a body over 2^32 would wrap
  // the length prefix and turn the tail into garbage frames.
  DYNAPIPE_CHECK_MSG(frame.payload.size() <= kMaxFrameBytes,
                     "frame: payload exceeds kMaxFrameBytes");
  // One buffer, one write: the loopback transport wakes its reader per
  // WriteAll, and socket writes stay a single syscall for small frames. The
  // length prefix is patched in after the body is assembled so the whole
  // frame builds in `scratch` with no second buffer.
  std::string& wire = *scratch;
  wire.clear();
  wire.append(4, '\0');  // length prefix placeholder
  wire.push_back(static_cast<char>(frame.type));
  service::AppendVarint(frame.request_id, &wire);
  service::AppendZigzag(frame.iteration, &wire);
  service::AppendZigzag(frame.replica, &wire);
  wire.append(frame.payload);
  const uint32_t len = static_cast<uint32_t>(wire.size() - 4);
  wire[0] = static_cast<char>(len & 0xff);
  wire[1] = static_cast<char>((len >> 8) & 0xff);
  wire[2] = static_cast<char>((len >> 16) & 0xff);
  wire[3] = static_cast<char>((len >> 24) & 0xff);
  // Fault point on the send path (disarmed: one relaxed atomic load). The
  // n-th frame this process writes can be dropped (close instead of write —
  // the peer sees a torn connection) or corrupted (flip a body byte — the
  // peer's ReadFrame/decoder must reject it and drop the connection).
  switch (common::FaultPoint("transport.write")) {
    case common::FaultKind::kDropConnection:
      stream.Close();
      return false;
    case common::FaultKind::kCorruptFrame:
      // Flip a bit in the type byte: every request type maps to something
      // the receiver rejects, so the corruption is *deterministically*
      // detected and answered with a connection drop (a flipped payload bit
      // could still parse as a different valid varint and sail through).
      wire[4] ^= 0x40;
      break;
    default:
      break;
  }
  FrameCounterFor(frame.type).Add();
  return stream.WriteAll(wire.data(), wire.size());
}

std::optional<Frame> ReadFrame(Stream& stream, std::string* error,
                               Deadline deadline) {
  const auto fail = [&](const char* what) -> std::optional<Frame> {
    if (error != nullptr) {
      *error = what;
    }
    return std::nullopt;
  };
  if (error != nullptr) {
    error->clear();
  }

  unsigned char header[4];
  if (!stream.ReadAllUntil(header, sizeof(header), deadline)) {
    return std::nullopt;  // clean EOF, peer loss or deadline between frames
  }
  const uint64_t len = static_cast<uint64_t>(header[0]) |
                       static_cast<uint64_t>(header[1]) << 8 |
                       static_cast<uint64_t>(header[2]) << 16 |
                       static_cast<uint64_t>(header[3]) << 24;
  if (len == 0) {
    return fail("frame: empty body");
  }
  if (len > kMaxFrameBytes) {
    return fail("frame: implausible length");
  }
  // A header claiming 1 GiB followed by EOF must not make us zero-fill
  // 1 GiB. Frames up to one chunk (every plan) still read in one go.
  std::string body;
  while (body.size() < len) {
    const size_t have = body.size();
    body.resize(have + std::min<uint64_t>(len - have, kReadChunkBytes));
    if (!stream.ReadAllUntil(body.data() + have, body.size() - have,
                             deadline)) {
      return fail("frame: truncated body");
    }
  }

  Frame frame;
  size_t pos = 0;
  frame.type = static_cast<FrameType>(static_cast<uint8_t>(body[pos++]));
  uint64_t request_id = 0;
  int64_t iteration = 0;
  int64_t replica = 0;
  if (!service::TryParseVarint(body, &pos, &request_id) ||
      !service::TryParseZigzag(body, &pos, &iteration) ||
      !service::TryParseZigzag(body, &pos, &replica) ||
      replica < INT32_MIN || replica > INT32_MAX) {
    return fail("frame: malformed header fields");
  }
  frame.request_id = request_id;
  frame.iteration = iteration;
  frame.replica = static_cast<int32_t>(replica);
  frame.payload = body.substr(pos);
  return frame;
}

void AppendHeartbeatPayload(double wall_ms, std::string* out) {
  const double us = wall_ms * 1000.0;
  // Clamp the whole cast domain: negatives and NaN encode 0, anything at or
  // above 2^64 µs encodes UINT64_MAX — static_cast of an out-of-range double
  // is undefined behavior, and a broken timing source (inf, NaN) must yield
  // a garbage-but-well-formed frame, never UB in the sender.
  uint64_t v = 0;
  if (us >= 18446744073709549568.0) {  // largest double below 2^64
    v = UINT64_MAX;
  } else if (us > 0.0) {
    v = static_cast<uint64_t>(us);
  }
  service::AppendVarint(v, out);
}

bool TryParseHeartbeatPayload(std::string_view payload, double* wall_ms) {
  size_t pos = 0;
  uint64_t us = 0;
  if (!service::TryParseVarint(payload, &pos, &us) || pos != payload.size()) {
    return false;
  }
  *wall_ms = static_cast<double>(us) / 1000.0;
  return true;
}

void AppendClockPayload(int64_t trace_now_us, std::string* out) {
  service::AppendVarint(
      trace_now_us < 0 ? 0 : static_cast<uint64_t>(trace_now_us), out);
}

bool TryParseClockPayload(std::string_view payload, int64_t* trace_now_us) {
  size_t pos = 0;
  uint64_t now = 0;
  if (!service::TryParseVarint(payload, &pos, &now) || now > INT64_MAX ||
      pos != payload.size()) {
    return false;
  }
  *trace_now_us = static_cast<int64_t>(now);
  return true;
}

}  // namespace dynapipe::transport
