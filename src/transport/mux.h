// The executor's fetch client: one persistent connection to an
// InstructionStoreServer (store_server.h), strictly request/response.
//
// Plans are published where the store lives — the planner process pushes
// into its in-process InstructionStore or into the shm segment it created —
// so an executor across a socket only polls, fetches, heartbeats and
// announces itself. MuxInstructionStore is that surface and nothing more: it
// is not a runtime::InstructionStoreInterface, so nothing publishes through
// it. It keeps ONE long-lived stream per executor (no connect() or
// server-side thread per operation), and every call is one exchange on the
// calling thread under one mutex: write the request tagged with the next id
// of a per-connection counter, read the reply (by the call's timeout_ms when
// that is > 0), and check that the reply echoes the id.
//
// Every call returns false on connection loss: a closed or torn stream, a
// malformed reply, a reply that does not echo the id or is of the wrong
// type, or a missed deadline. Each of these closes the stream (a late reply
// would leave it out of step) and turns connection_ok() false; the executor
// reconnects with a fresh client. A fetched plan that fails to decode is
// fatal: a damaged plan must never execute.
#ifndef DYNAPIPE_SRC_TRANSPORT_MUX_H_
#define DYNAPIPE_SRC_TRANSPORT_MUX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "src/sim/instruction.h"
#include "src/transport/frame.h"
#include "src/transport/transport.h"

namespace dynapipe::transport {

class MuxInstructionStore final {
 public:
  // Takes ownership of a connected stream.
  explicit MuxInstructionStore(std::unique_ptr<Stream> stream);

  MuxInstructionStore(const MuxInstructionStore&) = delete;
  MuxInstructionStore& operator=(const MuxInstructionStore&) = delete;

  // Endpoint conveniences. The transport overload serves in-process tests
  // (loopback or a socket transport object); the path overload is what an
  // executor process uses, retrying while the server is still binding.
  static std::shared_ptr<MuxInstructionStore> OverTransport(
      Transport* transport);
  static std::shared_ptr<MuxInstructionStore> OverUnixSocket(
      std::string path, int connect_timeout_ms = 5000);

  // False once the connection was lost (see the header comment).
  bool connection_ok() const;

  // The publish-poll riding the persistent stream: *present is valid only
  // on true.
  bool TryContains(int64_t iteration, int32_t replica, bool* present,
                   int timeout_ms = 0);
  // Fetch distinguishing the three outcomes: a plan (returned), kMissing
  // (nullopt, *connection_lost=false — the key was reclaimed/reposted), and
  // connection loss (nullopt, *connection_lost=true).
  std::optional<sim::ExecutionPlan> TryFetch(int64_t iteration,
                                             int32_t replica,
                                             bool* connection_lost);
  // One kHeartbeat report; *evicted=true when the server answered kEvicted
  // (this replica was declared dead — stop executing).
  bool TryHeartbeat(int32_t replica, int64_t iteration, double wall_ms,
                    bool* evicted);
  // Liveness announcement for `replica` on this connection (kAttach /
  // kDetach). *evicted=true when the server refused the attach because the
  // replica is already declared dead.
  bool Attach(int32_t replica, bool* evicted, int timeout_ms = 0);
  bool Detach(int32_t replica);
  // Graceful-leave handshake (kDrainRequest): by the time kDrainAck comes
  // back the server has taken this replica out of the member set and
  // reposted its unfetched backlog — finish in-flight work, then Detach.
  // *evicted=true when the server answered kEvicted (this replica was
  // declared dead mid-request).
  bool TryDrain(int32_t replica, bool* evicted, int timeout_ms = 0);
  // One kClockRequest round trip folded into the tracer's clock offset
  // (offset += server_now − midpoint(send, recv)), so spans this process
  // emits land on the server's timeline. Call once after Attach.
  bool TrySyncClock(int timeout_ms = 0);

 private:
  // One exchange: stamps the next request id, writes the frame and reads the
  // reply (by timeout_ms when > 0). False on connection loss, which closes
  // the stream; on true, *reply echoes the id and the caller checks its type.
  bool TryCall(Frame& request, Frame* reply, int timeout_ms = 0);
  // Connection loss found by a caller (a reply of the wrong type): closes
  // the stream and returns false.
  bool Lost();

  std::unique_ptr<Stream> stream_;
  std::mutex mu_;  // one exchange at a time
  uint64_t last_request_id_ = 0;  // guarded by mu_
  std::string wire_;              // WriteFrame scratch, guarded by mu_
  std::atomic<bool> connection_ok_{true};
};

}  // namespace dynapipe::transport

#endif  // DYNAPIPE_SRC_TRANSPORT_MUX_H_
