// The publisher end of a multi-process deployment; RunExecutor (executor.h)
// is the other.
//
// In the paper's deployment (§3) a dataloader-side planner publishes
// serialized plans into a host-memory store, executors in other processes
// fetch from it, and their heartbeats drive the control plane. A Publisher is
// that store plus its control plane, built from the same attach string the
// executors take — DetectEndpoint picks the backend on both ends:
//
//   socket path  a serialized in-process runtime::InstructionStore, served
//                over a UnixSocketTransport by an InstructionStoreServer
//                (executors attach with the mux client);
//   shm name     a ShmInstructionStore segment, whose heartbeat slots a
//                ShmHeartbeatPoller drains (executors attach by name).
//
// Either way one service::FleetCoordinator over the store is the sink that
// the server or the poller feeds. It admits joiners and moves whatever the
// dead, the draining and the departed still hold to the active members — a
// drainer's backlog before its drain is acknowledged. The
// coordinator owns no thread, so the publisher also runs its real-time
// deadline ticker: with monitor.dead_after_ms > 0, a thread calls the
// coordinator's PollLiveness(now) every clamp(dead_after_ms / 4, 1, 50) ms.
// The type fixes the wiring order: the coordinator is the sink before the
// endpoint serves, and teardown stops the ticker and the feeders, then the
// coordinator, then the store.
//
// Plans are published into store() directly — tests push hand-built
// per-replica plans — or by a service::PlanAheadService given store() as
// PlanAheadOptions::store. Construct it after any fork(): it starts threads.
#ifndef DYNAPIPE_SRC_EXECUTOR_PUBLISHER_H_
#define DYNAPIPE_SRC_EXECUTOR_PUBLISHER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/instruction_store.h"
#include "src/service/fleet.h"
#include "src/service/heartbeat_monitor.h"

namespace dynapipe::transport {
class InstructionStoreServer;
class ShmHeartbeatPoller;
class UnixSocketTransport;
}  // namespace dynapipe::transport

namespace dynapipe::executor {

struct PublisherOptions {
  // Socket path or shm segment name, exactly as the executors' --attach.
  // Neither store caps resident plans (capacity 0); a segment is bounded
  // only by its own slots and arena.
  std::string attach;
  // Thresholds; expected_replicas stays 0 (the fleet is fleet.replicas).
  service::HeartbeatMonitorOptions monitor;
  // The fleet, listed once in fleet.replicas; empty learns it from whoever
  // attaches. List it when the executors that count race the first pushes:
  // an unlisted attacher joins and steals a tail of plans to spare keys.
  service::FleetOptions fleet;
};

class Publisher {
 public:
  // Creates the store and starts serving it.
  explicit Publisher(PublisherOptions options);
  ~Publisher();  // Stop(), then the coordinator, then the store

  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  // Where plans go. It may outlive the publisher.
  const std::shared_ptr<runtime::RecoverableStore>& store() const {
    return store_;
  }
  const service::HeartbeatMonitor& monitor() const { return fleet_.monitor(); }
  service::FleetReport report() const { return fleet_.report(); }
  std::vector<int32_t> ActiveMembers() const { return fleet_.ActiveMembers(); }

  // Stops the deadline ticker and the feeders: the server (which shuts the
  // store down, closes every connection without declaring its replica dead,
  // and unlinks the socket) or the poller. Nothing reaches the coordinator
  // afterwards, so nothing declares a replica dead and no plan moves.
  // Attached shm executors can still fetch from the segment. Idempotent.
  void Stop();

 private:
  // The socket endpoint's in-process store; null on shm. Declared first:
  // store_ is initialized from it.
  std::shared_ptr<runtime::InstructionStore> wire_;
  std::shared_ptr<runtime::RecoverableStore> store_;
  service::FleetCoordinator fleet_;
  // The feeders; one pair is null, by the endpoint.
  std::unique_ptr<transport::UnixSocketTransport> transport_;
  std::unique_ptr<transport::InstructionStoreServer> server_;
  std::unique_ptr<transport::ShmHeartbeatPoller> poller_;
  // The deadline's real-time ticker; not started when dead_after_ms is 0.
  // ticker_mu_ guards only the stop flag: the coordinator never takes it.
  std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;
  std::thread ticker_;
};

}  // namespace dynapipe::executor

#endif  // DYNAPIPE_SRC_EXECUTOR_PUBLISHER_H_
