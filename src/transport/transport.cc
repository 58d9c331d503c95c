#include "src/transport/transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>

#include "src/common/check.h"

namespace dynapipe::transport {
namespace {

// ---------- loopback ----------

// One direction of a loopback stream: an unbounded byte queue. Unbounded is
// deliberate — the frame protocol is request/response, so at most one frame
// is ever in flight per direction.
struct HalfQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::string buf;
  bool closed = false;
};

class LoopbackStream final : public Stream {
 public:
  LoopbackStream(std::shared_ptr<HalfQueue> read_half,
                 std::shared_ptr<HalfQueue> write_half)
      : read_half_(std::move(read_half)), write_half_(std::move(write_half)) {}

  ~LoopbackStream() override { Close(); }

  bool WriteAll(const void* data, size_t n) override {
    std::lock_guard<std::mutex> lock(write_half_->mu);
    if (write_half_->closed) {
      return false;
    }
    write_half_->buf.append(static_cast<const char*>(data), n);
    write_half_->cv.notify_all();
    return true;
  }

  bool ReadAllUntil(void* data, size_t n, Deadline deadline) override {
    std::unique_lock<std::mutex> lock(read_half_->mu);
    const auto ready = [&] {
      return read_half_->buf.size() >= n || read_half_->closed;
    };
    if (deadline == kNoDeadline) {
      read_half_->cv.wait(lock, ready);
    } else {
      read_half_->cv.wait_until(lock, deadline, ready);
    }
    if (read_half_->buf.size() < n) {
      return false;  // closed (or timed out) before the bytes arrived
    }
    std::memcpy(data, read_half_->buf.data(), n);
    read_half_->buf.erase(0, n);
    return true;
  }

  void Close() override {
    for (HalfQueue* half : {read_half_.get(), write_half_.get()}) {
      {
        std::lock_guard<std::mutex> lock(half->mu);
        half->closed = true;
      }
      half->cv.notify_all();
    }
  }

 private:
  std::shared_ptr<HalfQueue> read_half_;
  std::shared_ptr<HalfQueue> write_half_;
};

// ---------- unix sockets ----------

class FdStream final : public Stream {
 public:
  explicit FdStream(int fd) : fd_(fd) {}

  ~FdStream() override {
    Close();
    ::close(fd_);
  }

  bool WriteAll(const void* data, size_t n) override {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      // MSG_NOSIGNAL: a vanished peer must surface as a failed write, not a
      // process-killing SIGPIPE.
      const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) {
          continue;
        }
        return false;
      }
      p += w;
      n -= static_cast<size_t>(w);
    }
    return true;
  }

  bool ReadAllUntil(void* data, size_t n, Deadline deadline) override {
    char* p = static_cast<char*>(data);
    while (n > 0) {
      if (deadline != kNoDeadline && !AwaitReadable(deadline)) {
        return false;
      }
      const ssize_t r = ::recv(fd_, p, n, 0);
      if (r < 0 && errno == EINTR) {
        continue;
      }
      if (r <= 0) {
        return false;  // error or EOF mid-read
      }
      p += r;
      n -= static_cast<size_t>(r);
    }
    return true;
  }

  void Close() override { ::shutdown(fd_, SHUT_RDWR); }

 private:
  // Polls until the socket has bytes (or EOF/error, which recv reports);
  // false once the deadline passes first.
  bool AwaitReadable(Deadline deadline) const {
    for (;;) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        return false;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(std::min<int64_t>(
                                            left.count(), INT32_MAX)));
      if (ready > 0) {
        return true;
      }
      if (ready < 0 && errno != EINTR) {
        return true;  // let recv surface the error
      }
    }
  }

  int fd_;
};

sockaddr_un MakeAddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  DYNAPIPE_CHECK_MSG(path.size() < sizeof(addr.sun_path),
                     "unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

// ---------- LoopbackTransport ----------

std::unique_ptr<Stream> LoopbackTransport::Accept() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !pending_.empty(); });
  if (pending_.empty()) {
    return nullptr;
  }
  std::unique_ptr<Stream> conn = std::move(pending_.front());
  pending_.pop_front();
  return conn;
}

std::unique_ptr<Stream> LoopbackTransport::Connect() {
  auto client_to_server = std::make_shared<HalfQueue>();
  auto server_to_client = std::make_shared<HalfQueue>();
  auto client =
      std::make_unique<LoopbackStream>(server_to_client, client_to_server);
  auto server =
      std::make_unique<LoopbackStream>(client_to_server, server_to_client);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return nullptr;
    }
    pending_.push_back(std::move(server));
  }
  cv_.notify_one();
  return client;
}

void LoopbackTransport::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    // Streams never accepted are torn down here; their Connect() peers see a
    // closed stream on first use.
    pending_.clear();
  }
  cv_.notify_all();
}

// ---------- UnixSocketTransport ----------

UnixSocketTransport::UnixSocketTransport(std::string path)
    : path_(std::move(path)) {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DYNAPIPE_CHECK_MSG(listen_fd_ >= 0, "socket() failed");
  const sockaddr_un addr = MakeAddr(path_);
  ::unlink(path_.c_str());  // a stale socket file from a dead server
  DYNAPIPE_CHECK_MSG(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) == 0,
                     "bind(" + path_ + ") failed: " + std::strerror(errno));
  DYNAPIPE_CHECK_MSG(::listen(listen_fd_, 64) == 0,
                     "listen(" + path_ + ") failed");
}

UnixSocketTransport::~UnixSocketTransport() {
  Close();
  ::close(listen_fd_);
  ::unlink(path_.c_str());
}

std::unique_ptr<Stream> UnixSocketTransport::Accept() {
  // Poll with a short timeout instead of blocking in accept(): Close() from
  // another thread only sets a flag, so the fd is never yanked out from under
  // a blocked syscall.
  while (!closed_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready < 0 && errno != EINTR) {
      return nullptr;
    }
    if (ready <= 0) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd >= 0) {
      return std::make_unique<FdStream>(fd);
    }
    if (errno != EINTR && errno != ECONNABORTED) {
      return nullptr;
    }
  }
  return nullptr;
}

std::unique_ptr<Stream> UnixSocketTransport::Connect() {
  return ConnectUnixSocket(path_);
}

void UnixSocketTransport::Close() {
  closed_.store(true, std::memory_order_release);
}

std::unique_ptr<Stream> ConnectUnixSocket(const std::string& path,
                                          int timeout_ms) {
  const sockaddr_un addr = MakeAddr(path);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return nullptr;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      return std::make_unique<FdStream>(fd);
    }
    const int err = errno;
    ::close(fd);
    // ENOENT/ECONNREFUSED: the server has not bound/listened yet.
    const bool server_not_up = err == ENOENT || err == ECONNREFUSED;
    if (!server_not_up || std::chrono::steady_clock::now() >= deadline) {
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace dynapipe::transport
