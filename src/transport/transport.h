// Byte transports for cross-process plan distribution.
//
// The paper moves serialized instruction streams between processes through a
// Redis store (§3); our stand-in is a client/server pair (store_server.h,
// mux.h) speaking a length-prefixed frame protocol (frame.h) over
// the duplex byte streams defined here. Two implementations:
//   - UnixSocketTransport: a real process boundary — SOCK_STREAM Unix domain
//     sockets, which is what the fork-based planner/executor example and the
//     multi-process path use;
//   - LoopbackTransport: an in-memory pipe pair with identical blocking
//     semantics and no file descriptors, for deterministic single-process
//     tests (and TSan runs, where every byte handoff is a checked
//     synchronization edge).
// A Transport is one server endpoint: Accept() yields inbound connections,
// Connect() opens outbound ones. Cross-process clients that cannot share the
// Transport object connect by address instead (ConnectUnixSocket).
#ifndef DYNAPIPE_SRC_TRANSPORT_TRANSPORT_H_
#define DYNAPIPE_SRC_TRANSPORT_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

namespace dynapipe::transport {

// The point in time a bounded read gives up; kNoDeadline waits for ever.
using Deadline = std::chrono::steady_clock::time_point;
inline constexpr Deadline kNoDeadline = Deadline::max();

// A duplex byte stream. Reads and writes are blocking; thread-safe as one
// reader plus one writer (the frame protocol is strictly request/response, so
// each connection has at most one of each).
class Stream {
 public:
  virtual ~Stream() = default;

  // Writes all n bytes; false when the peer is gone.
  virtual bool WriteAll(const void* data, size_t n) = 0;
  // Reads exactly n bytes; false if the stream closes before they arrive.
  bool ReadAll(void* data, size_t n) {
    return ReadAllUntil(data, n, kNoDeadline);
  }
  // ReadAll that also gives up once `deadline` passes. Bytes already consumed
  // are lost, so a caller that times out must close the stream.
  virtual bool ReadAllUntil(void* data, size_t n, Deadline deadline) = 0;
  // Closes both directions, unblocking a peer parked in ReadAll. Destructors
  // call this implicitly.
  virtual void Close() = 0;
};

// One server endpoint.
class Transport {
 public:
  virtual ~Transport() = default;

  // Blocks for the next inbound connection; null once Close() was called.
  virtual std::unique_ptr<Stream> Accept() = 0;
  // Opens a fresh connection to this endpoint. Thread-safe; null on failure.
  virtual std::unique_ptr<Stream> Connect() = 0;
  // Stops accepting: pending and future Accept calls return null. Connections
  // already handed out are unaffected.
  virtual void Close() = 0;
};

// In-memory transport: Connect() enqueues the server half of a fresh stream
// pair for Accept(). Deterministic and fd-free.
class LoopbackTransport final : public Transport {
 public:
  std::unique_ptr<Stream> Accept() override;
  std::unique_ptr<Stream> Connect() override;
  void Close() override;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  std::deque<std::unique_ptr<Stream>> pending_;
};

// Unix domain socket transport. The constructor binds and listens on `path`
// (unlinking a stale socket file first); failure to bind is fatal. Close()
// only flags the accept loop — destroy the transport (which closes the fd and
// unlinks the path) after any in-flight Accept has returned.
class UnixSocketTransport final : public Transport {
 public:
  explicit UnixSocketTransport(std::string path);
  ~UnixSocketTransport() override;

  std::unique_ptr<Stream> Accept() override;
  std::unique_ptr<Stream> Connect() override;
  void Close() override;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> closed_{false};
};

// Connects to a listening Unix domain socket. A server that has not bound yet
// is retried (10ms backoff) until timeout_ms elapses — the executor process
// typically races the planner's startup. Null on failure/timeout.
std::unique_ptr<Stream> ConnectUnixSocket(const std::string& path,
                                          int timeout_ms = 0);

}  // namespace dynapipe::transport

#endif  // DYNAPIPE_SRC_TRANSPORT_TRANSPORT_H_
