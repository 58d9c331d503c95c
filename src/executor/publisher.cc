#include "src/executor/publisher.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/executor/executor.h"
#include "src/transport/shm_store.h"
#include "src/transport/store_server.h"
#include "src/transport/transport.h"

namespace dynapipe::executor {

Publisher::Publisher(PublisherOptions options)
    : wire_(DetectEndpoint(options.attach) == AttachEndpoint::kSharedMemory
                ? nullptr
                : std::make_shared<runtime::InstructionStore>(
                      runtime::InstructionStoreOptions{/*serialized=*/true})),
      store_(wire_ != nullptr
                 ? std::shared_ptr<runtime::RecoverableStore>(wire_)
                 : transport::ShmInstructionStore::Create(
                       options.attach, transport::ShmStoreOptions{})),
      fleet_(store_.get(), options.monitor, std::move(options.fleet)) {
  if (wire_ != nullptr) {
    wire_->set_heartbeat_sink(&fleet_);
    transport_ =
        std::make_unique<transport::UnixSocketTransport>(options.attach);
    server_ = std::make_unique<transport::InstructionStoreServer>(
        transport_.get(), wire_.get());
  } else {
    poller_ = std::make_unique<transport::ShmHeartbeatPoller>(
        std::static_pointer_cast<transport::ShmInstructionStore>(store_),
        &fleet_);
  }
  const double dead_after_ms = options.monitor.dead_after_ms;
  if (dead_after_ms > 0.0) {
    // Tick fast enough that the deadline is detected within a fraction of
    // itself, clamped so near-zero test deadlines do not spin.
    const auto period = std::chrono::duration<double, std::milli>(
        std::clamp(dead_after_ms / 4.0, 1.0, 50.0));
    ticker_ = std::thread([this, period] {
      std::unique_lock<std::mutex> lock(ticker_mu_);
      while (!ticker_cv_.wait_for(lock, period, [&] { return ticker_stop_; })) {
        fleet_.PollLiveness(service::FleetCoordinator::Clock::now());
      }
    });
  }
}

Publisher::~Publisher() {
  Stop();
  // The store may outlive the coordinator; with the server joined, no
  // delivery to it is in flight.
  if (wire_ != nullptr) {
    wire_->set_heartbeat_sink(nullptr);
  }
}

void Publisher::Stop() {
  if (ticker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(ticker_mu_);
      ticker_stop_ = true;
    }
    ticker_cv_.notify_all();
    ticker_.join();
  }
  server_.reset();  // its destructor stops it
  transport_.reset();
  poller_.reset();
}

}  // namespace dynapipe::executor
