// Backend-conformance suite for the InstructionStoreInterface contract.
//
// Every store backend — in-process plain, in-process serialized, the
// multiplexed persistent-connection client over the loopback and Unix-socket
// transports, and the shared-memory store — must honor the
// same publish-before-fetch contract: push/fetch round-trips plans losslessly
// under independent keys, double-publish and fetch-before-publish abort,
// capacity backpressures Push (blocking until a Fetch frees a slot), and
// Shutdown unblocks blocked pushers and drops their plans. The suite is
// value-parameterized over backend factories, so any future backend (a real
// Redis client) inherits the whole contract by adding one factory line.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/mman.h>
#include <unistd.h>

#include "src/runtime/instruction_store.h"
#include "src/service/heartbeat_monitor.h"
#include "src/sim/instruction.h"
#include "src/transport/mux.h"
#include "src/transport/shm_store.h"
#include "src/transport/store_server.h"
#include "src/transport/transport.h"

namespace dynapipe {
namespace {

// TSan intercepts the fork/re-exec machinery death tests rely on; the
// sanitizer job covers the concurrency tests instead.
#if defined(__SANITIZE_THREAD__)
#define DYNAPIPE_DEATH_TESTS 0
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DYNAPIPE_DEATH_TESTS 0
#else
#define DYNAPIPE_DEATH_TESTS 1
#endif
#else
#define DYNAPIPE_DEATH_TESTS 1
#endif

sim::ExecutionPlan MarkerPlan(int32_t marker) {
  sim::ExecutionPlan plan;
  plan.num_microbatches = marker;
  sim::DevicePlan dev;
  dev.device = 0;
  sim::Instruction instr;
  instr.type = sim::InstrType::kForwardPass;
  instr.microbatch = marker;
  instr.shape = {marker, 128, 0};
  dev.instructions.push_back(instr);
  plan.devices.push_back(std::move(dev));
  return plan;
}

// A live backend: whatever machinery the store needs (server, transport)
// plus the interface handle the tests drive. Backends with a heartbeat
// channel route it into a HeartbeatMonitor and expose it so the capability
// test can verify delivery; a backend whose delivery is asynchronous (shm:
// beats land in segment slots and a poller replays them) also reports that,
// so the test knows to wait instead of asserting instantly.
struct Backend {
  virtual ~Backend() = default;
  virtual runtime::InstructionStoreInterface& store() = 0;
  virtual const service::HeartbeatMonitor* heartbeats() const {
    return nullptr;
  }
  virtual bool heartbeats_are_async() const { return false; }
  // Mid-epoch join is a capability too: how a replica outside the configured
  // fleet announces itself to a running store. Wire clients carry
  // kAttachCapJoin on their kAttach (frame v4); a shm replica claims a
  // heartbeat slot with no frame at all; a plain in-process store has no
  // membership plane. Returns whether the announcement was delivered.
  virtual bool supports_join() const { return false; }
  virtual bool Join(int32_t replica) {
    (void)replica;
    return false;
  }
};

struct InProcessBackend : Backend {
  explicit InProcessBackend(bool serialized, size_t capacity)
      : store_(runtime::InstructionStoreOptions{serialized, capacity}) {
    store_.set_heartbeat_sink(&monitor_);
  }
  runtime::InstructionStoreInterface& store() override { return store_; }
  const service::HeartbeatMonitor* heartbeats() const override {
    return &monitor_;
  }
  service::HeartbeatMonitor monitor_;  // before store_: outlives the sink user
  runtime::InstructionStore store_;
};

// Mux client + in-process server over a transport: one persistent
// multiplexed connection (request-id-tagged frames, credit-based deferred
// kPush replies). Member order is the teardown order in reverse: client dies
// first, then the server (which joins its handlers), then the transport, then
// the storage.
template <typename TransportT>
struct MuxBackend : Backend {
  template <typename... TransportArgs>
  explicit MuxBackend(size_t capacity, TransportArgs&&... args)
      : store_(runtime::InstructionStoreOptions{/*serialized=*/true, capacity}),
        transport_(std::forward<TransportArgs>(args)...),
        server_(&transport_, &store_),
        client_(transport::MuxInstructionStore::OverTransport(&transport_)) {
    store_.set_heartbeat_sink(&monitor_);
  }
  runtime::InstructionStoreInterface& store() override { return *client_; }
  const service::HeartbeatMonitor* heartbeats() const override {
    return &monitor_;
  }
  bool supports_join() const override { return true; }
  bool Join(int32_t replica) override {
    // The mux client's own attach surface; join=true sets kAttachCapJoin on
    // the persistent connection's kAttach.
    bool evicted = false;
    return client_->Attach(replica, &evicted, /*timeout_ms=*/2000,
                           /*join=*/true) &&
           !evicted;
  }

  service::HeartbeatMonitor monitor_;
  runtime::InstructionStore store_;
  TransportT transport_;
  transport::InstructionStoreServer server_;
  std::shared_ptr<transport::MuxInstructionStore> client_;
};

// The shared-memory segment: the store object is the backend — no server,
// no wire; an executor process could attach to the same name. Heartbeats are
// shm-native: Heartbeat writes the caller's segment slot, and the poller
// replays the beats into the monitor from its own thread — delivery is
// eventual, not synchronous with the call.
struct ShmBackend : Backend {
  explicit ShmBackend(size_t capacity, std::string name)
      : store_(transport::ShmInstructionStore::Create(
            std::move(name), transport::ShmStoreOptions{capacity, 64,
                                                        size_t{1} << 20})),
        poller_(store_, &monitor_, /*poll_interval_ms=*/1) {}
  runtime::InstructionStoreInterface& store() override { return *store_; }
  const service::HeartbeatMonitor* heartbeats() const override {
    return &monitor_;
  }
  bool heartbeats_are_async() const override { return true; }
  bool supports_join() const override { return true; }
  bool Join(int32_t replica) override {
    // No frame at all: claiming a heartbeat slot *is* the announcement; the
    // poller surfaces it as the replica turning alive.
    store_->AnnounceReplica(replica);
    return true;
  }

  service::HeartbeatMonitor monitor_;  // before poller_: outlives its sink
  std::shared_ptr<transport::ShmInstructionStore> store_;
  transport::ShmHeartbeatPoller poller_;
};

std::string UniqueSocketPath() {
  static std::atomic<uint64_t> counter{0};
  return "/tmp/dynapipe-conf-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

std::string UniqueShmName() {
  static std::atomic<uint64_t> counter{0};
  return "/dynapipe-conf-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1));
}

// The shm death tests abort a forked child mid-test, so its segment's owner
// destructor (which shm_unlinks) never runs and the segment leaks in
// /dev/shm. Sweep this suite's prefix at startup — names embed the pid, so
// anything matching is a stale leftover from a previous run, never a live
// segment of this one.
const bool g_stale_shm_swept = [] {
  if (DIR* dir = ::opendir("/dev/shm")) {
    while (const dirent* entry = ::readdir(dir)) {
      if (std::string_view(entry->d_name).substr(0, 14) == "dynapipe-conf-") {
        ::shm_unlink((std::string("/") + entry->d_name).c_str());
      }
    }
    ::closedir(dir);
  }
  return true;
}();

struct BackendParam {
  const char* name;
  std::function<std::unique_ptr<Backend>(size_t capacity)> make;
};

const BackendParam kBackends[] = {
    {"InProcessPlain",
     [](size_t cap) { return std::make_unique<InProcessBackend>(false, cap); }},
    {"InProcessSerialized",
     [](size_t cap) { return std::make_unique<InProcessBackend>(true, cap); }},
    {"LoopbackMux",
     [](size_t cap) {
       return std::make_unique<MuxBackend<transport::LoopbackTransport>>(cap);
     }},
    {"UnixSocketMux",
     [](size_t cap) {
       return std::make_unique<MuxBackend<transport::UnixSocketTransport>>(
           cap, UniqueSocketPath());
     }},
    {"SharedMemory",
     [](size_t cap) {
       return std::make_unique<ShmBackend>(cap, UniqueShmName());
     }},
};

class StoreConformanceTest : public ::testing::TestWithParam<BackendParam> {};

TEST_P(StoreConformanceTest, PushFetchRoundTripsLosslessly) {
  auto backend = GetParam().make(0);
  runtime::InstructionStoreInterface& store = backend->store();
  const sim::ExecutionPlan plan = MarkerPlan(7);
  store.Push(3, 1, plan);
  EXPECT_TRUE(store.Contains(3, 1));
  EXPECT_FALSE(store.Contains(3, 0));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Fetch(3, 1), plan);
  EXPECT_FALSE(store.Contains(3, 1));
  EXPECT_EQ(store.size(), 0u);
}

TEST_P(StoreConformanceTest, KeysAreIndependent) {
  auto backend = GetParam().make(0);
  runtime::InstructionStoreInterface& store = backend->store();
  store.Push(0, 0, MarkerPlan(1));
  store.Push(0, 1, MarkerPlan(2));
  store.Push(1, 0, MarkerPlan(3));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.Fetch(0, 1), MarkerPlan(2));
  EXPECT_EQ(store.Fetch(1, 0), MarkerPlan(3));
  EXPECT_EQ(store.Fetch(0, 0), MarkerPlan(1));
}

TEST_P(StoreConformanceTest, CapacityBackpressuresPush) {
  auto backend = GetParam().make(2);
  runtime::InstructionStoreInterface& store = backend->store();
  store.Push(0, 0, MarkerPlan(0));
  store.Push(1, 0, MarkerPlan(1));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    store.Push(2, 0, MarkerPlan(2));
    third_pushed.store(true);
  });
  // The third Push must block while two plans are resident.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(store.size(), 2u);
  // A Fetch frees a slot and unblocks it.
  EXPECT_EQ(store.Fetch(0, 0), MarkerPlan(0));
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Contains(2, 0));
}

TEST_P(StoreConformanceTest, ShutdownUnblocksBlockedPushAndDropsItsPlan) {
  auto backend = GetParam().make(1);
  runtime::InstructionStoreInterface& store = backend->store();
  store.Push(0, 0, MarkerPlan(0));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    store.Push(1, 0, MarkerPlan(1));  // blocks at capacity, dropped by Shutdown
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  store.Shutdown();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(store.Contains(1, 0));
  // Plans published before shutdown stay fetchable.
  EXPECT_TRUE(store.Contains(0, 0));
  EXPECT_EQ(store.Fetch(0, 0), MarkerPlan(0));
}

// Heartbeats are a *capability*, not part of the core contract: backends
// with a channel back to the planner (the wire clients, a sink-equipped
// in-process store, the shm segment's heartbeat slots) deliver the report
// and return true; a backend without one returns false cleanly. Either way,
// calling Heartbeat on any backend must never crash, and the answer must
// agree with supports_heartbeat(). Shm delivery rides the poller thread, so
// the assertions wait for it there instead of firing instantly.
TEST_P(StoreConformanceTest, HeartbeatIsACapabilityNotACrash) {
  auto backend = GetParam().make(0);
  runtime::InstructionStoreInterface& store = backend->store();
  const bool supported = store.supports_heartbeat();
  EXPECT_EQ(store.Heartbeat(/*replica=*/1, /*iteration=*/7, /*wall_ms=*/3.25),
            supported);
  EXPECT_EQ(store.supports_heartbeat(), supported);  // stable answer
  if (supported) {
    ASSERT_NE(backend->heartbeats(), nullptr);
    if (backend->heartbeats_are_async()) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (backend->heartbeats()->total_heartbeats() < 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    EXPECT_EQ(backend->heartbeats()->total_heartbeats(), 1);
    EXPECT_EQ(backend->heartbeats()->LastIteration(1), 7);
    const service::IterationHeartbeatStats stats =
        backend->heartbeats()->ForIteration(7);
    EXPECT_EQ(stats.replicas_reported, 1);
    EXPECT_DOUBLE_EQ(stats.max_wall_ms, 3.25);
  } else {
    // No channel: the report is dropped, not recorded and not fatal.
    EXPECT_EQ(backend->heartbeats(), nullptr);
  }
}

// The recovery surface is a capability too: stores that physically hold
// plans (in-process, shm) can enumerate and move them; wire clients cannot —
// recovery always runs where the plans live. Backends that support it must
// honor the Repost outcome contract; backends that don't must refuse
// harmlessly rather than crash.
TEST_P(StoreConformanceTest, RecoverySurfaceIsACapabilityNotACrash) {
  auto backend = GetParam().make(0);
  runtime::InstructionStoreInterface& store = backend->store();
  store.Push(0, 1, MarkerPlan(10));
  store.Push(5, 1, MarkerPlan(11));
  if (store.supports_recovery()) {
    const std::vector<int64_t> pending = store.PendingIterations(1);
    ASSERT_EQ(pending.size(), 2u);
    EXPECT_EQ(pending[0], 0);  // sorted ascending
    EXPECT_EQ(pending[1], 5);
    EXPECT_EQ(store.Repost(5, 1, 7, 2), runtime::RepostOutcome::kMoved);
    EXPECT_EQ(store.Repost(5, 1, 8, 2), runtime::RepostOutcome::kSourceGone);
    store.Push(9, 2, MarkerPlan(12));
    EXPECT_EQ(store.Repost(0, 1, 9, 2),
              runtime::RepostOutcome::kDestinationTaken);
    EXPECT_TRUE(store.Contains(0, 1));  // a refused move leaves the source
    EXPECT_EQ(store.Fetch(7, 2), MarkerPlan(11));  // moved bytes intact
    EXPECT_EQ(store.DropReplica(1), 1u);
    EXPECT_FALSE(store.Contains(0, 1));
    EXPECT_EQ(store.Fetch(9, 2), MarkerPlan(12));
  } else {
    EXPECT_EQ(store.Repost(0, 1, 7, 2), runtime::RepostOutcome::kUnsupported);
    EXPECT_TRUE(store.PendingIterations(1).empty());
    EXPECT_EQ(store.DropReplica(1), 0u);
    EXPECT_EQ(store.Fetch(0, 1), MarkerPlan(10));
    EXPECT_EQ(store.Fetch(5, 1), MarkerPlan(11));
  }
}

// Joining a running fleet is a capability on the same footing as
// heartbeats: where the backend has an announcement path, delivering it
// must surface as the replica turning alive in the monitor — the liveness
// event the FleetCoordinator keys admission off — and where it has
// none, asking must refuse cleanly, never crash. Shm announcement rides the
// poller thread, so the assertion waits for it there.
TEST_P(StoreConformanceTest, JoinIsACapabilityNotACrash) {
  auto backend = GetParam().make(0);
  const bool supported = backend->supports_join();
  EXPECT_EQ(backend->Join(/*replica=*/9), supported);
  EXPECT_EQ(backend->supports_join(), supported);  // stable answer
  if (supported) {
    ASSERT_NE(backend->heartbeats(), nullptr);
    if (backend->heartbeats_are_async()) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (backend->heartbeats()->Liveness(9) !=
                 service::ReplicaLiveness::kAlive &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    EXPECT_EQ(backend->heartbeats()->Liveness(9),
              service::ReplicaLiveness::kAlive);
    // A join is announcement, not publication: the store itself is untouched.
    EXPECT_EQ(backend->store().size(), 0u);
  }
}

TEST_P(StoreConformanceTest, PushAfterShutdownIsDroppedImmediately) {
  auto backend = GetParam().make(1);
  runtime::InstructionStoreInterface& store = backend->store();
  store.Shutdown();
  store.Push(0, 0, MarkerPlan(0));  // returns immediately, plan dropped
  EXPECT_FALSE(store.Contains(0, 0));
  EXPECT_EQ(store.size(), 0u);
  store.Shutdown();  // idempotent
}

std::string BackendName(const ::testing::TestParamInfo<BackendParam>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, StoreConformanceTest,
                         ::testing::ValuesIn(kBackends), BackendName);

#if DYNAPIPE_DEATH_TESTS
class StoreConformanceDeathTest : public ::testing::TestWithParam<BackendParam> {
};

TEST_P(StoreConformanceDeathTest, DoublePublishDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // For remote backends the abort fires on the server side of the boundary —
  // inside this (forked) process for the in-process servers the tests host.
  EXPECT_DEATH(
      {
        auto backend = GetParam().make(0);
        backend->store().Push(0, 0, MarkerPlan(0));
        backend->store().Push(0, 0, MarkerPlan(0));
      },
      "already published");
}

TEST_P(StoreConformanceDeathTest, FetchBeforePublishDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        auto backend = GetParam().make(0);
        backend->store().Push(1, 0, MarkerPlan(0));
        backend->store().Fetch(1, 1);
      },
      "unpublished");
}

INSTANTIATE_TEST_SUITE_P(AllBackends, StoreConformanceDeathTest,
                         ::testing::ValuesIn(kBackends), BackendName);
#endif

}  // namespace
}  // namespace dynapipe
