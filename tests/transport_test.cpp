// Tests for the cross-process plan distribution wire (src/transport): the
// length-prefixed frame protocol (round-trip, malformed-input rejection), the
// loopback and Unix-socket byte streams, the store server / mux client
// pair, and — the point of the subsystem — a fork()ed two-process run where a
// planner process publishes an epoch of plans into its store, served over a
// Unix domain socket, and an executor process fetches byte-identical copies
// of what the in-process store would have delivered.
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fault_injection.h"
#include "src/cost/pipeline_cost_model.h"
#include "src/data/flan_generator.h"
#include "src/data/minibatch_sampler.h"
#include "src/executor/executor.h"
#include "src/executor/publisher.h"
#include "src/runtime/instruction_store.h"
#include "src/runtime/planner.h"
#include "src/service/fleet.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/plan_serde.h"
#include "src/transport/frame.h"
#include "src/transport/mux.h"
#include "src/transport/shm_store.h"
#include "src/transport/store_server.h"
#include "src/transport/transport.h"

namespace dynapipe {
namespace {

std::string UniqueSocketPath(const char* tag) {
  static std::atomic<uint64_t> counter{0};
  return std::string("/tmp/dynapipe-tt-") + tag + "-" +
         std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

std::string UniqueShmName(const char* tag) {
  static std::atomic<uint64_t> counter{0};
  return std::string("/dynapipe-tt-") + tag + "-" + std::to_string(::getpid()) +
         "-" + std::to_string(counter.fetch_add(1));
}

bool WaitUntil(const std::function<bool()>& condition, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!condition()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// ---------- frame protocol ----------

TEST(FrameTest, RoundTripOverLoopback) {
  transport::LoopbackTransport lo;
  std::unique_ptr<transport::Stream> client = lo.Connect();
  std::unique_ptr<transport::Stream> server = lo.Accept();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  transport::Frame out;
  out.type = transport::FrameType::kPlanBytes;
  out.iteration = -3;  // zigzag keeps negatives 1 byte
  out.replica = 1 << 20;
  out.payload = std::string("\x00\x80\xff binary ok", 13);
  ASSERT_TRUE(WriteFrame(*client, out));

  std::string error;
  std::optional<transport::Frame> in = ReadFrame(*server, &error);
  ASSERT_TRUE(in.has_value()) << error;
  EXPECT_EQ(in->type, out.type);
  EXPECT_EQ(in->iteration, out.iteration);
  EXPECT_EQ(in->replica, out.replica);
  EXPECT_EQ(in->payload, out.payload);

  // And the reply direction.
  transport::Frame reply;
  reply.type = transport::FrameType::kOk;
  ASSERT_TRUE(WriteFrame(*server, reply));
  std::optional<transport::Frame> got = ReadFrame(*client, &error);
  ASSERT_TRUE(got.has_value()) << error;
  EXPECT_EQ(got->type, transport::FrameType::kOk);
}

TEST(FrameTest, RejectsImplausibleLengthAndTruncatedBody) {
  {
    transport::LoopbackTransport lo;
    auto client = lo.Connect();
    auto server = lo.Accept();
    // Length field far over kMaxFrameBytes.
    const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_TRUE(client->WriteAll(huge, sizeof(huge)));
    std::string error;
    EXPECT_FALSE(ReadFrame(*server, &error).has_value());
    EXPECT_EQ(error, "frame: implausible length");
  }
  {
    transport::LoopbackTransport lo;
    auto client = lo.Connect();
    auto server = lo.Accept();
    // Claims 10 body bytes, delivers 3, then closes.
    const unsigned char header[4] = {10, 0, 0, 0};
    ASSERT_TRUE(client->WriteAll(header, sizeof(header)));
    ASSERT_TRUE(client->WriteAll("abc", 3));
    client->Close();
    std::string error;
    EXPECT_FALSE(ReadFrame(*server, &error).has_value());
    EXPECT_EQ(error, "frame: truncated body");
  }
  {
    transport::LoopbackTransport lo;
    auto client = lo.Connect();
    auto server = lo.Accept();
    const unsigned char header[4] = {0, 0, 0, 0};  // empty body
    ASSERT_TRUE(client->WriteAll(header, sizeof(header)));
    std::string error;
    EXPECT_FALSE(ReadFrame(*server, &error).has_value());
    EXPECT_EQ(error, "frame: empty body");
  }
  {
    transport::LoopbackTransport lo;
    auto client = lo.Connect();
    auto server = lo.Accept();
    client->Close();  // clean EOF before any byte
    std::string error = "sentinel";
    EXPECT_FALSE(ReadFrame(*server, &error).has_value());
    EXPECT_TRUE(error.empty());
  }
}

// A header may claim up to kMaxFrameBytes, but the reader pays only for the
// bytes that actually arrive: a 1 GiB claim followed by EOF is a truncated
// body, not a 1 GiB allocation. ru_maxrss is the process's peak RSS in KiB.
TEST(FrameTest, ClaimedLengthDoesNotDriveAllocation) {
  rusage before{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
  {
    transport::LoopbackTransport lo;
    auto client = lo.Connect();
    auto server = lo.Accept();
    const uint64_t claim = transport::kMaxFrameBytes;
    const unsigned char header[4] = {
        static_cast<unsigned char>(claim & 0xff),
        static_cast<unsigned char>((claim >> 8) & 0xff),
        static_cast<unsigned char>((claim >> 16) & 0xff),
        static_cast<unsigned char>((claim >> 24) & 0xff)};
    ASSERT_TRUE(client->WriteAll(header, sizeof(header)));
    client->Close();
    std::string error;
    EXPECT_FALSE(ReadFrame(*server, &error).has_value());
    EXPECT_EQ(error, "frame: truncated body");
  }
  rusage after{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64L * 1024)
      << "peak RSS grew by " << (after.ru_maxrss - before.ru_maxrss)
      << " KiB reading a body that never arrived";
}

// ---------- streams ----------

TEST(LoopbackTransportTest, CloseUnblocksAcceptAndReaders) {
  transport::LoopbackTransport lo;
  std::thread acceptor([&] { EXPECT_EQ(lo.Accept(), nullptr); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  lo.Close();
  acceptor.join();
  EXPECT_EQ(lo.Connect(), nullptr);  // closed transport refuses connections

  // A reader parked on an open stream unblocks when the peer closes.
  transport::LoopbackTransport lo2;
  auto client = lo2.Connect();
  auto server = lo2.Accept();
  std::thread reader([&] {
    char byte;
    EXPECT_FALSE(server->ReadAll(&byte, 1));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  client->Close();
  reader.join();
}

TEST(UnixSocketTransportTest, ConnectAcceptEcho) {
  transport::UnixSocketTransport transport(UniqueSocketPath("echo"));
  std::thread server([&] {
    std::unique_ptr<transport::Stream> conn = transport.Accept();
    ASSERT_NE(conn, nullptr);
    char buf[5];
    ASSERT_TRUE(conn->ReadAll(buf, sizeof(buf)));
    ASSERT_TRUE(conn->WriteAll(buf, sizeof(buf)));
  });
  std::unique_ptr<transport::Stream> client = transport.Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->WriteAll("hello", 5));
  char echo[5];
  ASSERT_TRUE(client->ReadAll(echo, sizeof(echo)));
  EXPECT_EQ(std::string(echo, 5), "hello");
  server.join();
  transport.Close();
}

TEST(UnixSocketTransportTest, ConnectToAbsentServerTimesOut) {
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(transport::ConnectUnixSocket("/tmp/dynapipe-absent.sock",
                                         /*timeout_ms=*/60),
            nullptr);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

// ---------- mux client over both transports ----------

// A one-device, one-micro-batch plan an executor runs; the marker rides in
// the shape, so each marker encodes to distinct bytes.
sim::ExecutionPlan MarkerPlan(int32_t marker) {
  sim::ExecutionPlan plan;
  plan.num_microbatches = 1;
  sim::DevicePlan dev;
  sim::Instruction instr;
  instr.shape = {marker, 256, 64};
  dev.instructions.push_back(instr);  // the forward of micro-batch 0
  instr.type = sim::InstrType::kBackwardPass;
  dev.instructions.push_back(instr);
  plan.devices.push_back(std::move(dev));
  return plan;
}

// The executor's fetch client against the store server. Plans are pushed on
// the server side, where the store lives, and come back through the client
// byte for byte; a missing key, a heartbeat, a join and a silent peer each
// get the answer the executor relies on.
template <typename MakeTransport>
void MuxStoreRoundTrip(MakeTransport make_transport) {
  service::HeartbeatMonitor monitor;
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  store.set_heartbeat_sink(&monitor);
  auto transport = make_transport();
  transport::InstructionStoreServer server(transport.get(), &store);
  auto client = transport::MuxInstructionStore::OverTransport(transport.get());

  const sim::ExecutionPlan p0 = MarkerPlan(1);
  const sim::ExecutionPlan p1 = MarkerPlan(2);
  store.Push(0, 0, p0);
  store.Push(0, 1, p1);
  bool present = false;
  ASSERT_TRUE(client->TryContains(0, 0, &present));
  EXPECT_TRUE(present);
  ASSERT_TRUE(client->TryContains(1, 0, &present));
  EXPECT_FALSE(present);
  for (const auto& [replica, plan] : {std::pair{1, &p1}, std::pair{0, &p0}}) {
    bool lost = true;
    const std::optional<sim::ExecutionPlan> got =
        client->TryFetch(0, replica, &lost);
    ASSERT_TRUE(got.has_value());
    EXPECT_FALSE(lost);
    EXPECT_EQ(service::EncodeExecutionPlan(*got),
              service::EncodeExecutionPlan(*plan));
  }
  EXPECT_EQ(store.size(), 0u);

  // A key the store does not hold is kMissing, not a lost connection.
  bool lost = true;
  EXPECT_FALSE(client->TryFetch(5, 0, &lost).has_value());
  EXPECT_FALSE(lost);

  bool evicted = true;
  ASSERT_TRUE(client->TryHeartbeat(/*replica=*/1, /*iteration=*/7,
                                   /*wall_ms=*/3.25, &evicted));
  EXPECT_FALSE(evicted);
  EXPECT_EQ(monitor.total_heartbeats(), 1);
  EXPECT_EQ(monitor.LastIteration(1), 7);
  EXPECT_DOUBLE_EQ(monitor.ForIteration(7).max_wall_ms, 3.25);

  // A replica outside the fleet joins with a plain kAttach.
  ASSERT_TRUE(client->Attach(/*replica=*/9, &evicted, /*timeout_ms=*/2000));
  EXPECT_FALSE(evicted);
  EXPECT_EQ(monitor.Liveness(9), service::ReplicaLiveness::kAlive);
  EXPECT_TRUE(client->Detach(9));
  EXPECT_TRUE(client->connection_ok());
  client.reset();
  server.Stop();

  // A peer that accepts but never replies: the bounded call gives up and
  // the connection is over.
  auto silent = make_transport();
  auto stranded = transport::MuxInstructionStore::OverTransport(silent.get());
  EXPECT_FALSE(stranded->TryContains(0, 0, &present, /*timeout_ms=*/50));
  EXPECT_FALSE(stranded->connection_ok());
  EXPECT_FALSE(stranded->TryContains(0, 0, &present, /*timeout_ms=*/50));
}

TEST(MuxStoreTest, RoundTripOverLoopback) {
  MuxStoreRoundTrip(
      [] { return std::make_unique<transport::LoopbackTransport>(); });
}

TEST(MuxStoreTest, RoundTripOverUnixSocket) {
  MuxStoreRoundTrip([] {
    return std::make_unique<transport::UnixSocketTransport>(
        UniqueSocketPath("rt"));
  });
}

// ---------- the two-process epoch (acceptance criterion) ----------

bool WriteFull(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) {
      continue;
    }
    if (w <= 0) {
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadFull(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) {
      continue;
    }
    if (r <= 0) {
      return false;
    }
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

// The planner process plans a short epoch and publishes every plan to its
// store, served over a Unix domain socket; a fork()ed executor process
// fetches each plan with MuxInstructionStore, decodes it, and streams the
// re-encoded bytes back over a pipe. Those bytes must equal — byte for byte —
// what the in-process serialized store holds for the same epoch.
TEST(TwoProcessPlanDistributionTest, SocketFetchesAreByteIdenticalToInProcess) {
  // Plan the epoch first, inline and threadless: the planner work happens
  // before fork(), so the child never inherits locks or threads.
  cost::ProfileOptions profile;
  profile.max_microbatch_size = 32;
  profile.max_seq_len = 4096;
  const auto cm = cost::PipelineCostModel::Profile(
      model::ModelConfig::Gpt3_35B(), model::HardwareSpec{}, {1, 1, 4}, profile);
  runtime::PlannerOptions popts;
  popts.max_tmax_candidates = 48;
  popts.tmax_interval_ms = 0.5;
  popts.max_microbatch_size = 32;
  popts.reorder_clusters = 2;
  popts.dynamic_recompute = false;
  runtime::IterationPlanner planner(cm, popts);

  data::FlanGeneratorOptions gen;
  gen.num_samples = 300;
  gen.length_cap = 1024;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  data::MiniBatchSamplerOptions so;
  so.global_batch_tokens = 6144;
  so.max_input_len = 1024;
  so.seed = 7;
  data::MiniBatchSampler sampler(dataset, so);

  constexpr int kIterations = 3;
  std::vector<sim::ExecutionPlan> exec_plans;
  for (int i = 0; i < kIterations && sampler.HasNext(); ++i) {
    runtime::IterationPlan plan = planner.PlanIteration(sampler.Next());
    ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
    ASSERT_EQ(plan.replicas.size(), 1u);
    exec_plans.push_back(std::move(plan.replicas[0].exec_plan));
  }
  ASSERT_EQ(exec_plans.size(), static_cast<size_t>(kIterations));

  // What the in-process serialized store delivers for this epoch — the
  // reference the socket path must match byte for byte.
  std::vector<std::string> expected_bytes;
  {
    runtime::InstructionStore inproc(
        runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
    for (int i = 0; i < kIterations; ++i) {
      inproc.Push(i, 0, exec_plans[i]);
    }
    for (int i = 0; i < kIterations; ++i) {
      expected_bytes.push_back(inproc.FetchBytes(i, 0));
    }
  }

  const std::string socket_path = UniqueSocketPath("fork");
  int ready_pipe[2];
  int result_pipe[2];
  ASSERT_EQ(::pipe(ready_pipe), 0);
  ASSERT_EQ(::pipe(result_pipe), 0);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Executor process. No gtest machinery here: any failure is a nonzero
    // exit the parent turns into a test failure.
    ::close(ready_pipe[1]);
    ::close(result_pipe[0]);
    char go;
    if (!ReadFull(ready_pipe[0], &go, 1)) {
      ::_exit(2);  // planner died before publishing
    }
    auto remote = transport::MuxInstructionStore::OverUnixSocket(
        socket_path, /*connect_timeout_ms=*/10'000);
    for (int i = 0; i < kIterations; ++i) {
      bool lost = false;
      const std::optional<sim::ExecutionPlan> plan =
          remote->TryFetch(i, 0, &lost);
      if (!plan.has_value()) {
        ::_exit(4);
      }
      // Re-encode the decoded plan: the bytes prove the fetch decoded into
      // exactly the published instruction stream.
      const std::string bytes = service::EncodeExecutionPlan(*plan);
      const uint32_t len = static_cast<uint32_t>(bytes.size());
      if (!WriteFull(result_pipe[1], &len, sizeof(len)) ||
          !WriteFull(result_pipe[1], bytes.data(), bytes.size())) {
        ::_exit(3);
      }
    }
    ::_exit(0);
  }

  // Planner process: serve the store over the socket and publish the epoch.
  ::close(ready_pipe[0]);
  ::close(result_pipe[1]);
  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  transport::UnixSocketTransport transport(socket_path);
  transport::InstructionStoreServer server(&transport, &store);
  for (int i = 0; i < kIterations; ++i) {
    store.Push(i, 0, exec_plans[i]);
  }
  // Publish-before-fetch: only now may the executor start fetching.
  ASSERT_TRUE(WriteFull(ready_pipe[1], "g", 1));

  for (int i = 0; i < kIterations; ++i) {
    uint32_t len = 0;
    ASSERT_TRUE(ReadFull(result_pipe[0], &len, sizeof(len))) << "iteration " << i;
    std::string bytes(len, '\0');
    ASSERT_TRUE(ReadFull(result_pipe[0], bytes.data(), bytes.size()));
    EXPECT_EQ(bytes, expected_bytes[i]) << "iteration " << i;
  }

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "executor process exited with status " << status;
  EXPECT_EQ(store.size(), 0u);  // the executor drained the epoch
  ::close(ready_pipe[1]);
  ::close(result_pipe[0]);
  server.Stop();
}

// Same two-process shape over the shared-memory store: the planner process
// creates the segment and publishes an epoch; a fork()ed executor process
// attaches by name and pulls each plan's *raw bytes* through the zero-copy
// view — no wire, no copy on the fetch side — which must equal, byte for
// byte, what the in-process serialized store holds for the same epoch.
TEST(TwoProcessShmPlanDistributionTest, AttachedFetchesAreByteIdentical) {
  const auto plan_epoch = [] {
    cost::ProfileOptions profile;
    profile.max_microbatch_size = 32;
    profile.max_seq_len = 4096;
    const auto cm = cost::PipelineCostModel::Profile(
        model::ModelConfig::Gpt3_35B(), model::HardwareSpec{}, {1, 1, 4},
        profile);
    runtime::PlannerOptions popts;
    popts.max_tmax_candidates = 48;
    popts.tmax_interval_ms = 0.5;
    popts.max_microbatch_size = 32;
    popts.reorder_clusters = 2;
    popts.dynamic_recompute = false;
    runtime::IterationPlanner planner(cm, popts);
    data::FlanGeneratorOptions gen;
    gen.num_samples = 300;
    gen.length_cap = 1024;
    const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
    data::MiniBatchSamplerOptions so;
    so.global_batch_tokens = 6144;
    so.max_input_len = 1024;
    so.seed = 7;
    data::MiniBatchSampler sampler(dataset, so);
    std::vector<sim::ExecutionPlan> plans;
    for (int i = 0; i < 3 && sampler.HasNext(); ++i) {
      runtime::IterationPlan plan = planner.PlanIteration(sampler.Next());
      EXPECT_TRUE(plan.feasible) << plan.infeasible_reason;
      plans.push_back(std::move(plan.replicas[0].exec_plan));
    }
    return plans;
  };
  // Plan before fork(): the planner work is threadless here, so the child
  // inherits no locks.
  const std::vector<sim::ExecutionPlan> exec_plans = plan_epoch();
  ASSERT_EQ(exec_plans.size(), 3u);

  std::vector<std::string> expected_bytes;
  for (const auto& plan : exec_plans) {
    expected_bytes.push_back(service::EncodeExecutionPlan(plan));
  }

  const std::string shm_name =
      "/dynapipe-tt-fork-" + std::to_string(::getpid());
  int ready_pipe[2];
  int result_pipe[2];
  ASSERT_EQ(::pipe(ready_pipe), 0);
  ASSERT_EQ(::pipe(result_pipe), 0);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Executor process: attach by name, acquire zero-copy views, stream the
    // raw mapped bytes back. Nonzero exits become parent-side failures.
    ::close(ready_pipe[1]);
    ::close(result_pipe[0]);
    char go;
    if (!ReadFull(ready_pipe[0], &go, 1)) {
      ::_exit(2);
    }
    auto store = transport::ShmInstructionStore::Attach(
        shm_name, /*timeout_ms=*/10'000);
    for (size_t i = 0; i < exec_plans.size(); ++i) {
      const auto view = store->AcquireView(static_cast<int64_t>(i), 0);
      const uint32_t len = static_cast<uint32_t>(view.bytes().size());
      if (!WriteFull(result_pipe[1], &len, sizeof(len)) ||
          !WriteFull(result_pipe[1], view.bytes().data(),
                     view.bytes().size())) {
        ::_exit(3);
      }
    }
    ::_exit(0);
  }

  // Planner process: create the segment, publish, signal.
  ::close(ready_pipe[0]);
  ::close(result_pipe[1]);
  auto store = transport::ShmInstructionStore::Create(
      shm_name, transport::ShmStoreOptions{});
  for (size_t i = 0; i < exec_plans.size(); ++i) {
    store->Push(static_cast<int64_t>(i), 0, exec_plans[i]);
  }
  EXPECT_EQ(store->serialized_bytes_total(),
            static_cast<int64_t>(expected_bytes[0].size() +
                                 expected_bytes[1].size() +
                                 expected_bytes[2].size()));
  ASSERT_TRUE(WriteFull(ready_pipe[1], "g", 1));

  for (size_t i = 0; i < exec_plans.size(); ++i) {
    uint32_t len = 0;
    ASSERT_TRUE(ReadFull(result_pipe[0], &len, sizeof(len))) << "iteration " << i;
    std::string bytes(len, '\0');
    ASSERT_TRUE(ReadFull(result_pipe[0], bytes.data(), bytes.size()));
    EXPECT_EQ(bytes, expected_bytes[i]) << "iteration " << i;
  }

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "executor process exited with status " << status;
  EXPECT_EQ(store->size(), 0u);  // the executor drained the epoch
  ::close(ready_pipe[1]);
  ::close(result_pipe[0]);
}

// ---------- the executor daemon (acceptance criterion) ----------

// Three fork()ed executor processes — src/executor/RunExecutor, the library
// behind tools/dynapipe_executor — attach to the publisher-side store, fetch
// their replica's plans, execute them on their own ClusterSims, and
// heartbeat completion back, once over each endpoint: the mux store server
// (heartbeats routed through the server's sink) and the shm segment
// (heartbeats stamped into the segment's slots and replayed by a
// ShmHeartbeatPoller — no socket anywhere). Replica 2 is deliberately
// slowed; the publisher's monitor must attribute the straggle to it (and
// only it) on every iteration, and every plan each executor fetched must
// re-encode to exactly the bytes the trainer published. Replica 1
// leaves the endpoint on kAuto, so attach-string detection is exercised end
// to end on both.
TEST(ExecutorDaemonTest, ForkedExecutorsHeartbeatAndStragglerIsAttributed) {
  // Plan the epoch inline and threadless so the forks below inherit nothing.
  cost::ProfileOptions profile;
  profile.max_microbatch_size = 32;
  profile.max_seq_len = 4096;
  const auto cm = cost::PipelineCostModel::Profile(
      model::ModelConfig::Gpt3_35B(), model::HardwareSpec{}, {1, 1, 4}, profile);
  runtime::PlannerOptions popts;
  popts.max_tmax_candidates = 48;
  popts.tmax_interval_ms = 0.5;
  popts.max_microbatch_size = 32;
  popts.reorder_clusters = 2;
  popts.dynamic_recompute = false;
  runtime::IterationPlanner planner(cm, popts);
  data::FlanGeneratorOptions gen;
  gen.num_samples = 300;
  gen.length_cap = 1024;
  const data::Dataset dataset = data::GenerateFlanLikeDataset(gen);
  data::MiniBatchSamplerOptions so;
  so.global_batch_tokens = 6144;
  so.max_input_len = 1024;
  so.seed = 7;
  data::MiniBatchSampler sampler(dataset, so);

  constexpr int kIterations = 3;
  constexpr int32_t kReplicas = 3;
  constexpr int32_t kSlowReplica = 2;
  constexpr double kSlowMs = 250.0;
  std::vector<sim::ExecutionPlan> exec_plans;
  std::vector<std::string> expected_bytes;
  for (int i = 0; i < kIterations && sampler.HasNext(); ++i) {
    runtime::IterationPlan plan = planner.PlanIteration(sampler.Next());
    ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
    exec_plans.push_back(std::move(plan.replicas[0].exec_plan));
    expected_bytes.push_back(service::EncodeExecutionPlan(exec_plans.back()));
  }
  ASSERT_EQ(exec_plans.size(), static_cast<size_t>(kIterations));

  for (const executor::AttachEndpoint endpoint :
       {executor::AttachEndpoint::kUnixSocketMux,
        executor::AttachEndpoint::kSharedMemory}) {
    const bool over_shm = endpoint == executor::AttachEndpoint::kSharedMemory;
    SCOPED_TRACE(over_shm ? "shm endpoint" : "mux endpoint");
    const std::string attach =
        over_shm ? UniqueShmName("daemon") : UniqueSocketPath("daemon");
    std::vector<pid_t> children;
    for (int32_t replica = 0; replica < kReplicas; ++replica) {
      const pid_t child = ::fork();
      ASSERT_GE(child, 0);
      if (child == 0) {
        // Executor process: the real daemon flow. RunExecutor retries the
        // attach while the parent is still bringing the store up, so no
        // ready signal is needed. Exit codes become parent-side failures.
        executor::ExecutorOptions opts;
        opts.attach = attach;
        opts.endpoint =
            replica == 1 ? executor::AttachEndpoint::kAuto : endpoint;
        opts.replica = replica;
        opts.iterations = kIterations;
        opts.slow_ms = replica == kSlowReplica ? kSlowMs : 0.0;
        bool bytes_ok = true;
        opts.observer = [&](const executor::IterationOutcome& outcome) {
          bytes_ok = bytes_ok &&
                     service::EncodeExecutionPlan(*outcome.plan) ==
                         expected_bytes[static_cast<size_t>(outcome.iteration)];
        };
        const executor::ExecutorReport report = executor::RunExecutor(opts);
        if (!report.ok) ::_exit(2);
        if (!bytes_ok) ::_exit(3);
        if (report.heartbeats_sent != kIterations) ::_exit(4);
        ::_exit(0);
      }
      children.push_back(child);
    }

    // Trainer process: bring the publisher up and publish every replica's
    // plans. Margins sized for TSan (5-20x slowdown inflates fast replicas'
    // walls but not the sleep): a false flag needs a fast replica over
    // 2*median + 50 ms, a miss needs the fast median over ~200 ms. The
    // straggler math waits for the full report set.
    executor::PublisherOptions pub_opts;
    pub_opts.attach = attach;
    pub_opts.monitor.straggler_multiple = 2.0;
    pub_opts.monitor.min_straggler_gap_ms = 50.0;
    pub_opts.fleet.replicas = {0, 1, 2};
    executor::Publisher publisher(pub_opts);
    const service::HeartbeatMonitor& monitor = publisher.monitor();
    for (int i = 0; i < kIterations; ++i) {
      for (int32_t replica = 0; replica < kReplicas; ++replica) {
        publisher.store()->Push(i, replica, exec_plans[static_cast<size_t>(i)]);
      }
    }

    for (const pid_t child : children) {
      int status = 0;
      ASSERT_EQ(::waitpid(child, &status, 0), child);
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "executor exited with status " << status;
    }
    EXPECT_EQ(publisher.store()->size(), 0u);  // every plan fetched once

    // Shm beats reach the monitor through the poller thread, after the
    // executors have exited; the mux beats were delivered synchronously.
    EXPECT_TRUE(WaitUntil(
        [&] { return monitor.total_heartbeats() >= kIterations * kReplicas; },
        5'000));
    // Straggler attribution: every iteration saw all replicas, and the
    // slowed one — only the slowed one — is over 2x median + 50 ms.
    EXPECT_EQ(monitor.total_heartbeats(), kIterations * kReplicas);
    for (int i = 0; i < kIterations; ++i) {
      const service::IterationHeartbeatStats stats = monitor.ForIteration(i);
      EXPECT_EQ(stats.replicas_reported, kReplicas) << "iteration " << i;
      EXPECT_EQ(stats.stragglers, std::vector<int32_t>{kSlowReplica})
          << "iteration " << i;
      EXPECT_GE(stats.max_wall_ms, kSlowMs) << "iteration " << i;
    }
    // Progress frontiers: every replica finished the epoch.
    for (int32_t replica = 0; replica < kReplicas; ++replica) {
      EXPECT_EQ(monitor.LastIteration(replica), kIterations - 1);
    }
  }
}

// The daemon shape: an open-ended executor (iterations < 0) drains plans as
// they appear and exits *cleanly* — ok report, no abort — when the
// publisher tears its server down, because the publish poll rides the mux
// stream's non-fatal TryContains instead of a store client's fatal
// Contains: teardown reads as a lost connection, the bounded reconnect
// finds no listener, and the epoch is over.
TEST(ExecutorDaemonTest, OpenEndedRunExitsCleanlyWhenPublisherShutsDown) {
  const std::string socket_path = UniqueSocketPath("drain");
  executor::PublisherOptions options;
  options.attach = socket_path;
  executor::Publisher publisher(options);
  const runtime::RecoverableStore& store = *publisher.store();
  publisher.store()->Push(0, 0, MarkerPlan(1));
  publisher.store()->Push(1, 0, MarkerPlan(2));

  executor::ExecutorReport report;
  std::thread daemon([&] {
    executor::ExecutorOptions opts;
    opts.attach = socket_path;
    opts.endpoint = executor::AttachEndpoint::kUnixSocketMux;
    opts.replica = 0;
    opts.iterations = -1;           // open-ended: run until the epoch ends
    opts.idle_timeout_ms = 30'000;  // exit must come from teardown
    report = executor::RunExecutor(opts);
  });
  // Both published plans executed and heartbeat; the daemon is now parked
  // polling for iteration 2.
  while (publisher.monitor().total_heartbeats() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Publisher teardown closes the listener and unlinks the path, so the
  // daemon's reconnects read "publisher gone".
  publisher.Stop();
  daemon.join();
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.iterations_run, 2);
  EXPECT_EQ(report.heartbeats_sent, 2);
  EXPECT_EQ(store.size(), 0u);
}

// Auto-detection: a POSIX shm name ("/name", no further slash) attaches the
// shared-memory store; anything else is a socket path and gets the mux
// client.
TEST(ExecutorDaemonTest, DetectEndpointMapsSocketPathsToMuxAndShmNamesToShm) {
  EXPECT_EQ(executor::DetectEndpoint("/tmp/trainer.sock"),
            executor::AttachEndpoint::kUnixSocketMux);
  EXPECT_EQ(executor::DetectEndpoint("trainer.sock"),
            executor::AttachEndpoint::kUnixSocketMux);
  EXPECT_EQ(executor::DetectEndpoint("/dynapipe-store-1234-0"),
            executor::AttachEndpoint::kSharedMemory);
}

// ---------- the daemon binary ----------

// What one spawned tools/dynapipe_executor process did.
struct DaemonRun {
  int status = 0;  // as reported by waitpid
  std::string out;
  std::string err;
};

// posix_spawns the built daemon with `args`, this process's environment plus
// `extra_env`, collects its stdout and stderr, and reaps it.
DaemonRun SpawnDaemon(const std::vector<std::string>& args,
                      const std::vector<std::string>& extra_env = {}) {
  std::vector<std::string> argv_storage = {DYNAPIPE_EXECUTOR_BIN};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);
  std::vector<std::string> env_storage = extra_env;
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    envp.push_back(*e);
  }
  for (std::string& entry : env_storage) {
    envp.push_back(entry.data());
  }
  envp.push_back(nullptr);

  int out_pipe[2];
  int err_pipe[2];
  DaemonRun run;
  if (::pipe2(out_pipe, O_CLOEXEC) != 0 || ::pipe2(err_pipe, O_CLOEXEC) != 0) {
    ADD_FAILURE() << "pipe2: " << std::strerror(errno);
    return run;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_adddup2(&actions, err_pipe[1], STDERR_FILENO);
  pid_t pid = -1;
  const int spawned = ::posix_spawn(&pid, argv[0], &actions, nullptr,
                                    argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  ::close(out_pipe[1]);
  ::close(err_pipe[1]);
  if (spawned != 0) {
    ADD_FAILURE() << "posix_spawn " << argv[0] << ": " << std::strerror(spawned);
    ::close(out_pipe[0]);
    ::close(err_pipe[0]);
    return run;
  }
  // Drain both streams together so neither pipe can fill and wedge the
  // daemon while we block on the other.
  pollfd fds[2] = {{out_pipe[0], POLLIN, 0}, {err_pipe[0], POLLIN, 0}};
  std::string* sinks[2] = {&run.out, &run.err};
  for (int open_fds = 2; open_fds > 0;) {
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    for (int k = 0; k < 2; ++k) {
      if (fds[k].fd < 0 || fds[k].revents == 0) {
        continue;
      }
      char buf[4096];
      const ssize_t n = ::read(fds[k].fd, buf, sizeof(buf));
      if (n > 0) {
        sinks[k]->append(buf, static_cast<size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        ::close(fds[k].fd);
        fds[k].fd = -1;
        --open_fds;
      }
    }
  }
  EXPECT_EQ(::waitpid(pid, &run.status, 0), pid);
  return run;
}

bool ExitedWith(int status, int code) {
  return WIFEXITED(status) && WEXITSTATUS(status) == code;
}

// The daemon binary end to end — nothing else runs its main(). Against a
// parent-side shm publisher: malformed
// invocations are refused before any attach, leaving every published plan
// resident — a replica that wraps or goes negative (2^32 would narrow to
// replica 0 and consume its plans) and the removed demo flags; a good one
// drains its replica's plans, heartbeats each through the segment's slots
// and dumps Prometheus text on exit; DYNAPIPE_FAULT in its environment arms
// the fault injector (SIGKILL at iteration 1's heartbeat).
TEST(ExecutorDaemonTest, BinaryAttachesOverShmAndDrains) {
  constexpr int kIterations = 3;
  const std::string shm_name = UniqueShmName("bin");
  executor::PublisherOptions options;
  options.attach = shm_name;
  executor::Publisher publisher(options);
  const std::shared_ptr<runtime::RecoverableStore>& store = publisher.store();
  const service::HeartbeatMonitor& monitor = publisher.monitor();
  const auto publish_epoch = [&] {
    for (int i = 0; i < kIterations; ++i) {
      store->Push(i, 0, MarkerPlan(600 + i));
    }
  };
  const std::vector<std::string> attach_args = {
      "--attach", shm_name, "--iterations", std::to_string(kIterations),
      "--idle-timeout-ms", "2000"};
  publish_epoch();

  for (const std::vector<std::string>& bad :
       std::vector<std::vector<std::string>>{{"--replica", "4294967296"},
                                             {"--replica", "-1"},
                                             {"--demo", "shm"},
                                             {"--fault", "crash@1"}}) {
    std::vector<std::string> args = bad;
    args.insert(args.end(), attach_args.begin(), attach_args.end());
    const DaemonRun run = SpawnDaemon(args);
    EXPECT_TRUE(ExitedWith(run.status, 1))
        << bad[0] << " " << bad[1] << ": status " << run.status;
    EXPECT_NE(run.err.find("usage:"), std::string::npos)
        << bad[0] << " " << bad[1] << ": " << run.err;
    EXPECT_EQ(store->size(), static_cast<size_t>(kIterations))
        << bad[0] << " " << bad[1] << " consumed plans";
  }

  std::vector<std::string> args = attach_args;
  args.insert(args.end(), {"--replica", "0", "--metrics-dump"});
  const DaemonRun drained = SpawnDaemon(args);
  EXPECT_TRUE(ExitedWith(drained.status, 0))
      << "status " << drained.status << ": " << drained.err;
  EXPECT_EQ(store->size(), 0u);
  EXPECT_TRUE(WaitUntil(
      [&] { return monitor.total_heartbeats() >= kIterations; }, 5'000));
  EXPECT_EQ(monitor.total_heartbeats(), kIterations);
  EXPECT_NE(drained.out.find("[executor] done: 3 iterations"),
            std::string::npos)
      << drained.out;
  EXPECT_NE(drained.out.find("# TYPE "), std::string::npos) << drained.out;

  publish_epoch();
  const DaemonRun crashed = SpawnDaemon(args, {"DYNAPIPE_FAULT=crash@1"});
  EXPECT_TRUE(WIFSIGNALED(crashed.status) &&
              WTERMSIG(crashed.status) == SIGKILL)
      << "status " << crashed.status << ": " << crashed.err;
  // Iterations 0 and 1 were fetched; the SIGKILL came before 2's fetch.
  EXPECT_EQ(store->size(), 1u);
}

// ---------- the failure control loop (acceptance criterion) ----------

// A publisher for the three-replica fault epochs: recovery on (the
// default), spare keys past the epoch, where the open-ended survivors poll.
executor::PublisherOptions RecoveringFleet(const std::string& attach,
                                           int iterations) {
  executor::PublisherOptions options;
  options.attach = attach;
  options.fleet.replicas = {0, 1, 2};
  options.fleet.spare_iteration_base = iterations;
  return options;
}

// One fault epoch: a marker plan per (iteration, replica), numbered from
// `base`, plus their encodings (what the children accept as a byte-identical
// fetch).
struct FaultEpoch {
  FaultEpoch(int32_t base, int iterations, int32_t replicas)
      : plans(static_cast<size_t>(replicas)) {
    for (int i = 0; i < iterations; ++i) {
      for (int32_t r = 0; r < replicas; ++r) {
        plans[static_cast<size_t>(r)].push_back(MarkerPlan(base + 10 * i + r));
        expected.push_back(
            service::EncodeExecutionPlan(plans[static_cast<size_t>(r)].back()));
      }
    }
  }
  // Publishes every plan, iteration-major, at its own key.
  void PushTo(runtime::RecoverableStore& store) const {
    for (size_t i = 0; i < plans[0].size(); ++i) {
      for (size_t r = 0; r < plans.size(); ++r) {
        store.Push(static_cast<int64_t>(i), static_cast<int32_t>(r),
                   plans[r][i]);
      }
    }
  }

  std::vector<std::vector<sim::ExecutionPlan>> plans;
  std::vector<std::string> expected;
};

// Child-process body shared by the fault control-loop tests: optionally arm
// one injected fault, run the executor, and encode the outcome as an exit
// code the parent can assert on. gtest macros don't work in a fork()ed
// child, so exit codes are the verdict:
//   0 clean run    2 run failed    3 fetched bytes not among the published
//   5 expected a reconnect that never happened    7 evicted    9 bad spec
// Byte checks are set-membership (not index) because a survivor that picks
// up a dead replica's re-published plan sees it at a spare iteration number,
// with bytes identical to some plan the parent published.
[[noreturn]] void RunFaultChild(const std::string& socket_path,
                                executor::AttachEndpoint endpoint,
                                int32_t replica,
                                const std::vector<std::string>& expected_bytes,
                                const char* fault_spec, int64_t iterations,
                                bool require_reconnect, double slow_ms = 0.0,
                                int idle_timeout_ms = 30'000) {
  if (fault_spec != nullptr) {
    common::FaultSpec spec;
    std::string error;
    if (!common::ParseFaultSpec(fault_spec, &spec, &error)) {
      ::_exit(9);
    }
    common::FaultInjector::Instance().Arm(spec);
  }
  executor::ExecutorOptions opts;
  opts.attach = socket_path;
  opts.endpoint = endpoint;
  opts.replica = replica;
  opts.iterations = iterations;
  opts.slow_ms = slow_ms;
  opts.idle_timeout_ms = idle_timeout_ms;
  bool bytes_ok = true;
  opts.observer = [&](const executor::IterationOutcome& outcome) {
    const std::string bytes = service::EncodeExecutionPlan(*outcome.plan);
    bytes_ok = bytes_ok && std::find(expected_bytes.begin(),
                                     expected_bytes.end(),
                                     bytes) != expected_bytes.end();
  };
  const executor::ExecutorReport report = executor::RunExecutor(opts);
  if (!bytes_ok) ::_exit(3);
  if (report.evicted) ::_exit(7);
  if (!report.ok) ::_exit(2);
  if (require_reconnect && report.reconnects == 0) ::_exit(5);
  ::_exit(0);
}

// A decoded plan that ClusterSim refuses is a clean failure, not an abort:
// RunExecutor returns ok=false with Run's reason and exits without a goodbye.
// To the publisher that dropped stream is a death, so the coordinator
// declares the replica dead and the sweep moves its unfetched backlog to the
// survivor's spare key. The refused plan itself was consumed by the fetch
// and is not retried.
TEST(FaultControlLoopTest, RefusedPlanFailsTheExecutorAndItsBacklogMoves) {
  const std::string socket_path = UniqueSocketPath("refused");
  executor::PublisherOptions options;
  options.attach = socket_path;
  options.fleet.replicas = {0, 1};
  options.fleet.spare_iteration_base = 2;
  executor::Publisher publisher(options);
  runtime::RecoverableStore& store = *publisher.store();
  sim::ExecutionPlan refused = MarkerPlan(1);
  refused.num_microbatches = 2;  // runs micro-batch 0 only
  store.Push(0, 0, refused);
  store.Push(1, 0, MarkerPlan(2));  // replica 0's backlog

  executor::ExecutorOptions opts;
  opts.attach = socket_path;
  opts.endpoint = executor::AttachEndpoint::kUnixSocketMux;
  opts.replica = 0;
  opts.iterations = 2;
  const executor::ExecutorReport report = executor::RunExecutor(opts);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("iteration 0 refused: device 0: 2 instructions "
                              "cannot run a forward and a backward"),
            std::string::npos)
      << report.error;
  EXPECT_EQ(report.iterations_run, 0);

  ASSERT_TRUE(WaitUntil(
      [&] { return !publisher.report().dead_replicas.empty(); }, 10'000));
  const service::FleetReport fleet = publisher.report();
  EXPECT_EQ(fleet.dead_replicas, std::vector<int32_t>{0});
  EXPECT_EQ(fleet.replanned_iterations, 1);
  EXPECT_EQ(fleet.dropped_iterations, 0);
  EXPECT_FALSE(store.Contains(1, 0));
  EXPECT_TRUE(store.Contains(2, 1));  // the survivor's first spare key
  EXPECT_EQ(store.size(), 1u);
  publisher.Stop();
}

// Three executors; replica 1 SIGKILLs itself at iteration 1's heartbeat
// fault point — a real crash, no unwind, no goodbye. Its mux stream, which
// carried its kAttach, drops uncleanly, so the monitor declares it dead
// immediately; the recovery coordinator moves its one unfetched plan
// (iteration 2) to a survivor at a spare iteration number, and the
// open-ended survivors — parked polling past their own epoch —
// pick it up and drain the store to zero. Plans are byte-identical: the
// children verify every fetched plan re-encodes to bytes the parent
// published. fork() happens before any parent-side thread exists (TSan).
TEST(FaultControlLoopTest, KilledExecutorIsDeclaredDeadAndBacklogMoves) {
  constexpr int kIterations = 3;
  constexpr int32_t kReplicas = 3;
  constexpr int32_t kVictim = 1;
  const FaultEpoch epoch(0, kIterations, kReplicas);
  const std::string socket_path = UniqueSocketPath("kill");
  std::vector<pid_t> children;
  for (int32_t r = 0; r < kReplicas; ++r) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      RunFaultChild(socket_path, executor::AttachEndpoint::kUnixSocketMux, r,
                    epoch.expected, r == kVictim ? "crash@1" : nullptr,
                    /*iterations=*/-1, /*require_reconnect=*/false);
    }
    children.push_back(child);
  }

  // Control plane. No heartbeat deadline: death comes from the unclean
  // connection drop alone (a vanished process is dead now).
  executor::Publisher publisher(RecoveringFleet(socket_path, kIterations));
  runtime::RecoverableStore& store = *publisher.store();
  epoch.PushTo(store);

  // The victim dies by SIGKILL at its own fault point, after consuming
  // iterations 0 and 1.
  int status = 0;
  ASSERT_EQ(::waitpid(children[kVictim], &status, 0), children[kVictim]);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "victim status " << status;
  // Death declared, backlog re-published, survivors drain everything —
  // including the moved plan at its spare iteration.
  ASSERT_TRUE(WaitUntil([&] { return store.size() == 0; }, 30'000));
  EXPECT_EQ(publisher.monitor().Liveness(kVictim),
            service::ReplicaLiveness::kDead);
  EXPECT_EQ(publisher.monitor().DeadReplicas(), std::vector<int32_t>{kVictim});
  const service::FleetReport report = publisher.report();
  EXPECT_EQ(report.dead_replicas, std::vector<int32_t>{kVictim});
  EXPECT_EQ(report.replanned_iterations, 1);  // iteration 2's plan moved
  EXPECT_EQ(report.dropped_iterations, 0);
  EXPECT_GE(report.recovery_ms, 0.0);

  // Teardown ends the survivors' open-ended runs cleanly.
  publisher.Stop();
  for (int32_t r = 0; r < kReplicas; ++r) {
    if (r == kVictim) continue;
    ASSERT_EQ(::waitpid(children[static_cast<size_t>(r)], &status, 0),
              children[static_cast<size_t>(r)]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "survivor " << r << " status " << status;
  }
}

// Replica 1 wedges (stalls 1500 ms mid-iteration — connection still up, so
// only the heartbeat deadline can catch it). The publisher's deadline
// ticker declares it dead at dead_after_ms, its pending plan moves to a
// survivor, and when the stalled process wakes and heartbeats, the server
// answers kEvicted: the zombie stops instead of double-running work that
// was re-published. The drained survivors meanwhile sit in publish-polls —
// traffic that refreshes their liveness, which is exactly why a deadline
// much shorter than the idle window doesn't kill them. Margins are
// TSan-safe: the 1500 ms sleep is not inflated, and the deadline only has to
// split 1500 from the milliseconds of real work per iteration.
TEST(FaultControlLoopTest, StalledExecutorIsEvictedAndSurvivorsTakeBacklog) {
  constexpr int kIterations = 3;
  constexpr int32_t kReplicas = 3;
  constexpr int32_t kVictim = 1;
  const FaultEpoch epoch(100, kIterations, kReplicas);
  const std::string socket_path = UniqueSocketPath("stall");
  std::vector<pid_t> children;
  for (int32_t r = 0; r < kReplicas; ++r) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      RunFaultChild(socket_path, executor::AttachEndpoint::kUnixSocketMux, r,
                    epoch.expected, r == kVictim ? "stall:1500@1" : nullptr,
                    /*iterations=*/-1, /*require_reconnect=*/false);
    }
    children.push_back(child);
  }

  executor::PublisherOptions pub_opts =
      RecoveringFleet(socket_path, kIterations);
  pub_opts.monitor.dead_after_ms = 450.0;
  executor::Publisher publisher(pub_opts);
  runtime::RecoverableStore& store = *publisher.store();
  epoch.PushTo(store);

  // The victim wakes from its stall into a kEvicted heartbeat reply and
  // exits as evicted (code 7) — the server must still be up for it to hear
  // the verdict, so it is reaped before teardown.
  int status = 0;
  ASSERT_EQ(::waitpid(children[kVictim], &status, 0), children[kVictim]);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 7)
      << "victim status " << status;
  ASSERT_TRUE(WaitUntil([&] { return store.size() == 0; }, 30'000));
  EXPECT_EQ(publisher.monitor().DeadReplicas(), std::vector<int32_t>{kVictim});
  const service::FleetReport report = publisher.report();
  EXPECT_EQ(report.dead_replicas, std::vector<int32_t>{kVictim});
  EXPECT_EQ(report.replanned_iterations, 1);
  EXPECT_EQ(report.dropped_iterations, 0);

  publisher.Stop();
  for (int32_t r = 0; r < kReplicas; ++r) {
    if (r == kVictim) continue;
    ASSERT_EQ(::waitpid(children[static_cast<size_t>(r)], &status, 0),
              children[static_cast<size_t>(r)]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "survivor " << r << " status " << status;
  }
}

// Replica 1's third frame on its persistent mux stream (its first publish
// poll, after kAttach and the clock sync) is corrupted in flight: the
// injector flips the type byte, so the server deterministically rejects it
// and drops the connection. With no liveness sink on the store nothing can
// declare death, so the drop is a hiccup: the executor reconnects,
// re-attaches, retries, and finishes its counted run.
TEST(FaultControlLoopTest, CorruptedFrameWithoutLivenessSinkReconnects) {
  constexpr int kIterations = 3;
  constexpr int32_t kReplicas = 3;
  constexpr int32_t kVictim = 1;
  const FaultEpoch epoch(200, kIterations, kReplicas);
  const std::string socket_path = UniqueSocketPath("corrupt");
  std::vector<pid_t> children;
  for (int32_t r = 0; r < kReplicas; ++r) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      RunFaultChild(socket_path, executor::AttachEndpoint::kUnixSocketMux, r,
                    epoch.expected, r == kVictim ? "corrupt@2" : nullptr,
                    /*iterations=*/kIterations,
                    /*require_reconnect=*/r == kVictim);
    }
    children.push_back(child);
  }

  runtime::InstructionStore store(
      runtime::InstructionStoreOptions{/*serialized=*/true, /*capacity=*/0});
  auto transport = std::make_unique<transport::UnixSocketTransport>(socket_path);
  auto server = std::make_unique<transport::InstructionStoreServer>(
      transport.get(), &store);
  epoch.PushTo(store);

  for (const pid_t child : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "executor status " << status;
  }
  EXPECT_EQ(store.size(), 0u);
  server->Stop();
}

// The same corrupted frame with the monitor attached: an unclean drop is
// death, whatever caused it. Recovery moves the victim's whole backlog (it
// fetched nothing) to the survivors' spare keys, and the victim's reconnect
// is answered kEvicted at its kAttach — it exits as evicted (code 7) without
// running anything, so every plan runs exactly once, on a survivor.
TEST(FaultControlLoopTest, CorruptedFrameIsDeathAndTheReconnectIsEvicted) {
  constexpr int kIterations = 3;
  constexpr int32_t kReplicas = 3;
  constexpr int32_t kVictim = 1;
  const FaultEpoch epoch(200, kIterations, kReplicas);
  const std::string socket_path = UniqueSocketPath("corrupt-evict");
  std::vector<pid_t> children;
  for (int32_t r = 0; r < kReplicas; ++r) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // Survivors run open-ended so they pick up the spare keys.
      RunFaultChild(socket_path, executor::AttachEndpoint::kUnixSocketMux, r,
                    epoch.expected, r == kVictim ? "corrupt@2" : nullptr,
                    /*iterations=*/r == kVictim ? kIterations : -1,
                    /*require_reconnect=*/false);
    }
    children.push_back(child);
  }
  executor::Publisher publisher(RecoveringFleet(socket_path, kIterations));
  runtime::RecoverableStore& store = *publisher.store();
  epoch.PushTo(store);

  // The server must still be up for the victim to hear the verdict, so it
  // is reaped before teardown.
  int status = 0;
  ASSERT_EQ(::waitpid(children[kVictim], &status, 0), children[kVictim]);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 7)
      << "victim status " << status;
  ASSERT_TRUE(WaitUntil([&] { return store.size() == 0; }, 30'000));
  // One heartbeat per executed plan: the survivors' own epochs plus the
  // victim's moved backlog, and none from the victim.
  const int64_t plans_total = int64_t{kIterations} * kReplicas;
  ASSERT_TRUE(WaitUntil(
      [&] { return publisher.monitor().total_heartbeats() >= plans_total; },
      30'000));
  EXPECT_EQ(publisher.monitor().total_heartbeats(), plans_total);
  EXPECT_EQ(publisher.monitor().LastIteration(kVictim), -1);
  EXPECT_EQ(publisher.monitor().DeadReplicas(), std::vector<int32_t>{kVictim});
  const service::FleetReport report = publisher.report();
  EXPECT_EQ(report.dead_replicas, std::vector<int32_t>{kVictim});
  EXPECT_EQ(report.replanned_iterations, kIterations);
  EXPECT_EQ(report.dropped_iterations, 0);

  publisher.Stop();
  for (int32_t r = 0; r < kReplicas; ++r) {
    if (r == kVictim) continue;
    ASSERT_EQ(::waitpid(children[static_cast<size_t>(r)], &status, 0),
              children[static_cast<size_t>(r)]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "survivor " << r << " status " << status;
  }
}

// Two deaths in one epoch. Replica 1 crashes at its first heartbeat; the
// first recovery moves its two unfetched plans to spare keys on the
// survivors — one lands on replica 2. Replica 2 (deliberately slowed so the
// first recovery completes while it is still mid-epoch) then crashes at its
// third heartbeat, dying with that inherited spare still unfetched. The
// second recovery must move the spare *again*: spare keys are per-replica
// monotonic and burn on allocation, so the re-move lands at a fresh key on
// replica 0 instead of colliding with the first death's allocations. The
// lone survivor drains everything — three replanned plans total, store
// empty, every fetched plan byte-identical to something published.
TEST(FaultControlLoopTest, SpareKeysSurviveASecondForkedDeath) {
  constexpr int kIterations = 3;
  constexpr int32_t kReplicas = 3;
  constexpr int32_t kFirstVictim = 1;
  constexpr int32_t kSecondVictim = 2;
  const FaultEpoch epoch(300, kIterations, kReplicas);
  const std::string socket_path = UniqueSocketPath("twokill");
  std::vector<pid_t> children;
  for (int32_t r = 0; r < kReplicas; ++r) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      const char* fault = r == kFirstVictim    ? "crash@0"
                          : r == kSecondVictim ? "crash@2"
                                               : nullptr;
      // The second victim is paced so the first death's recovery publishes
      // the inherited spare well before this replica reaches its own crash
      // point — the spare must demonstrably be resident when it dies.
      RunFaultChild(socket_path, executor::AttachEndpoint::kUnixSocketMux, r,
                    epoch.expected, fault, /*iterations=*/-1,
                    /*require_reconnect=*/false,
                    /*slow_ms=*/r == kSecondVictim ? 150.0 : 0.0);
    }
    children.push_back(child);
  }
  executor::Publisher publisher(RecoveringFleet(socket_path, kIterations));
  runtime::RecoverableStore& store = *publisher.store();
  epoch.PushTo(store);

  // Both victims die by SIGKILL at their fault points, in pace order.
  int status = 0;
  ASSERT_EQ(::waitpid(children[kFirstVictim], &status, 0),
            children[kFirstVictim]);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "first victim status " << status;
  ASSERT_EQ(::waitpid(children[kSecondVictim], &status, 0),
            children[kSecondVictim]);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "second victim status " << status;

  ASSERT_TRUE(WaitUntil([&] { return store.size() == 0; }, 30'000));
  EXPECT_EQ(publisher.monitor().DeadReplicas(),
            (std::vector<int32_t>{kFirstVictim, kSecondVictim}));
  const service::FleetReport report = publisher.report();
  EXPECT_EQ(report.dead_replicas,
            (std::vector<int32_t>{kFirstVictim, kSecondVictim}));
  // First death: iterations 1 and 2 of replica 1 move. Second death: the
  // spare replica 2 inherited moves on. 2 + 1, no plan lost.
  EXPECT_EQ(report.replanned_iterations, 3);
  EXPECT_EQ(report.dropped_iterations, 0);

  publisher.Stop();
  ASSERT_EQ(::waitpid(children[0], &status, 0), children[0]);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "survivor status " << status;
}

// ---------- the shm failure control loop (acceptance criterion) ----------

// The crash-pinned arena. A reader process acquires a zero-copy view — which
// pins the arena against rewinds — and is SIGKILLed before releasing it.
// The pin can never be released by its owner; a publisher blocked on arena
// space must notice the pinner is dead (kill(pid, 0) == ESRCH), reclaim the
// pin, rewind, and proceed on its own timed re-evaluation — no broadcast,
// nobody left to send one. The arena is sized to hold exactly one plan so
// the second Push genuinely parks on the pinned arena first. The parent
// reaps the child before expecting the reclaim: a zombie still answers
// kill(pid, 0), so liveness probing only sees the death after waitpid.
TEST(ShmFaultControlLoopTest, SigkilledReaderPinIsReclaimedAndArenaRewinds) {
  // Plans padded past the arena minimum (4 KB) so "room for one, not two"
  // is expressible: each encodes to a few KB of instructions.
  const auto fat_plan = [](int32_t marker) {
    sim::ExecutionPlan plan = MarkerPlan(marker);
    for (int i = 0; i < 256; ++i) {
      plan.devices[0].instructions.push_back(plan.devices[0].instructions[0]);
    }
    return plan;
  };
  const sim::ExecutionPlan plan_a = fat_plan(41);
  const sim::ExecutionPlan plan_b = fat_plan(42);
  const std::string bytes_a = service::EncodeExecutionPlan(plan_a);
  const std::string bytes_b = service::EncodeExecutionPlan(plan_b);
  const std::string shm_name = UniqueShmName("pin");

  int ready_pipe[2];   // parent -> child: segment exists
  int pinned_pipe[2];  // child -> parent: view acquired, arena pinned
  ASSERT_EQ(::pipe(ready_pipe), 0);
  ASSERT_EQ(::pipe(pinned_pipe), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(ready_pipe[1]);
    ::close(pinned_pipe[0]);
    char go;
    if (!ReadFull(ready_pipe[0], &go, 1)) ::_exit(2);
    auto reader = transport::ShmInstructionStore::Attach(shm_name, 10'000);
    auto view = reader->AcquireView(0, 0);
    if (view.bytes().empty()) ::_exit(3);
    if (!WriteFull(pinned_pipe[1], "p", 1)) ::_exit(4);
    // Park holding the pin until the parent SIGKILLs us: the view's
    // destructor never runs, so only dead-pin reclaim can free the arena.
    ::pause();
    ::_exit(5);
  }
  ::close(ready_pipe[0]);
  ::close(pinned_pipe[1]);

  transport::ShmStoreOptions sopts;
  // Room for one plan, not two: the second Push must wait for a rewind.
  sopts.arena_bytes = bytes_a.size() + bytes_a.size() / 2;
  auto store = transport::ShmInstructionStore::Create(shm_name, sopts);
  store->Push(0, 0, plan_a);
  ASSERT_TRUE(WriteFull(ready_pipe[1], "g", 1));
  char pinned;
  ASSERT_TRUE(ReadFull(pinned_pipe[0], &pinned, 1));

  // The publisher parks: the store is drained (the child consumed the only
  // plan) but the child's unreleased view pins the arena.
  std::atomic<bool> pushed{false};
  std::thread publisher([&] {
    store->Push(1, 0, plan_b);
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(pushed.load());  // a live pin really does hold the publisher
  EXPECT_EQ(store->pin_reclaims(), 0);

  ::kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // The parked publisher's next timed re-evaluation probes the pinner,
  // reclaims the dead pin, rewinds, and completes the push unaided.
  ASSERT_TRUE(WaitUntil([&] { return pushed.load(); }, 10'000));
  publisher.join();
  EXPECT_EQ(store->pin_reclaims(), 1);
  EXPECT_GE(store->arena_rewinds(), 1);
  // The reclaimed arena serves the new plan intact.
  {
    auto view = store->AcquireView(1, 0);
    EXPECT_EQ(view.bytes(), bytes_b);
  }
  ::close(ready_pipe[1]);
  ::close(pinned_pipe[0]);
}

// Shm-native straggler detection, end to end with no socket anywhere: three
// counted executor processes attach to one segment; liveness and completions
// flow only through the segment's heartbeat slots into the publisher-side
// poller. Replica 1 stalls 300 ms inside iteration 1, so its heartbeat
// arrives late and over-wall, and the monitor flags it once the report set
// is full. The flag moves nothing: every plan runs where it was published.
TEST(ShmFaultControlLoopTest, StalledShmExecutorIsFlaggedThroughTheSegment) {
  constexpr int kIterations = 3;
  constexpr int32_t kReplicas = 3;
  constexpr int32_t kVictim = 1;
  const FaultEpoch epoch(400, kIterations, kReplicas);
  const std::string shm_name = UniqueShmName("stall");
  std::vector<pid_t> children;
  for (int32_t r = 0; r < kReplicas; ++r) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      RunFaultChild(shm_name, executor::AttachEndpoint::kSharedMemory, r,
                    epoch.expected, r == kVictim ? "stall:300@1" : nullptr,
                    kIterations, /*require_reconnect=*/false);
    }
    children.push_back(child);
  }

  // Control plane, created only after the forks (no threads cross fork).
  // No death deadline: a stall is a straggle, never a death.
  executor::PublisherOptions pub_opts;
  pub_opts.attach = shm_name;
  pub_opts.fleet.replicas = {0, 1, 2};
  pub_opts.monitor.straggler_multiple = 2.0;
  pub_opts.monitor.min_straggler_gap_ms = 50.0;
  executor::Publisher publisher(pub_opts);
  const std::shared_ptr<runtime::RecoverableStore>& store = publisher.store();
  epoch.PushTo(*store);

  for (const pid_t child : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "executor status " << status;
  }
  ASSERT_TRUE(WaitUntil(
      [&] {
        return publisher.monitor().total_heartbeats() >=
               kIterations * kReplicas;
      },
      10'000));
  EXPECT_EQ(publisher.monitor().total_heartbeats(), kIterations * kReplicas);
  EXPECT_EQ(store->size(), 0u);

  // The stall was detected through the segment alone: iteration 1 saw all
  // three replicas report and flagged exactly the stalled one.
  const service::IterationHeartbeatStats stalled =
      publisher.monitor().ForIteration(1);
  EXPECT_EQ(stalled.replicas_reported, kReplicas);
  EXPECT_EQ(stalled.stragglers, std::vector<int32_t>{kVictim});
  EXPECT_GE(stalled.max_wall_ms, 300.0);
  // Nobody was declared dead, and nothing moved.
  EXPECT_TRUE(publisher.monitor().DeadReplicas().empty());
  const service::FleetReport report = publisher.report();
  EXPECT_EQ(report.replanned_iterations + report.drain_reposted, 0);
}


// ---------- the shm poller ----------

// Counts attaches, beats and drain requests; reports every replica dead, or
// none.
class CountingSink final : public runtime::HeartbeatSink {
 public:
  explicit CountingSink(bool dead) : dead_(dead) {}
  void OnHeartbeat(int32_t, int64_t, double) override { ++beats; }
  void OnReplicaAttached(int32_t) override { ++attaches; }
  void OnReplicaDrainRequested(int32_t) override { ++drains; }
  bool IsReplicaDead(int32_t) const override { return dead_; }
  std::atomic<int> attaches{0};
  std::atomic<int> beats{0};
  std::atomic<int> drains{0};

 private:
  const bool dead_;
};

// A drain requested in the segment is delivered once and acknowledged after
// the sink returns. A replica the sink reports dead gets neither, as on the
// wire, where the server answers kEvicted without a sink call. PollOnce is
// serialized with the poller thread's passes, so by its return the request
// written before it has been delivered, by this pass or the thread's.
TEST(ShmHeartbeatPollerTest, DrainIsDeliveredOnceAndAckedUnlessDead) {
  for (const bool dead : {false, true}) {
    SCOPED_TRACE(dead ? "dead replica" : "live replica");
    const std::string name = UniqueShmName("poll");
    auto store = transport::ShmInstructionStore::Create(name, {});
    auto executor_side = transport::ShmInstructionStore::Attach(name);
    executor_side->AnnounceReplica(3);
    executor_side->RequestDrain(3);
    CountingSink sink(dead);
    transport::ShmHeartbeatPoller poller(store, &sink);
    poller.PollOnce();
    EXPECT_EQ(sink.drains.load(), dead ? 0 : 1);
    EXPECT_EQ(executor_side->DrainAcknowledged(3), !dead);
    EXPECT_EQ(poller.PollOnce(), 0);
    EXPECT_EQ(sink.drains.load(), dead ? 0 : 1);
  }
}

// An executor killed inside its heartbeat's seqlock window leaves the slot's
// seq odd for ever. The poller skips that slot, still delivers a later beat
// from another replica, and tears down. It runs in a forked child, so a
// poller that spins on the odd seq fails the bounded wait instead of hanging
// the suite.
TEST(ShmHeartbeatPollerTest, WriterKilledMidBeatBlocksNoOtherSlot) {
  const std::string name = UniqueShmName("odd");
  auto store = transport::ShmInstructionStore::Create(name, {});
  const pid_t writer = ::fork();
  ASSERT_GE(writer, 0);
  if (writer == 0) {
    common::FaultSpec spec;
    std::string error;
    if (!common::ParseFaultSpec("crash@0#shm.heartbeat", &spec, &error)) {
      ::_exit(9);
    }
    common::FaultInjector::Instance().Arm(spec);
    transport::ShmInstructionStore::Attach(name)->Heartbeat(1, 0, 5.0);
    ::_exit(0);  // the fault did not fire
  }
  int status = 0;
  ASSERT_EQ(::waitpid(writer, &status, 0), writer);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "writer status " << status;

  transport::ShmInstructionStore::Attach(name)->Heartbeat(0, 0, 5.0);
  const pid_t polling = ::fork();
  ASSERT_GE(polling, 0);
  if (polling == 0) {
    CountingSink sink(/*dead=*/false);
    {
      transport::ShmHeartbeatPoller poller(store, &sink);
      poller.PollOnce();
    }
    ::_exit(sink.beats.load() == 1 ? 0 : 4);
  }
  pid_t reaped = 0;
  EXPECT_TRUE(WaitUntil(
      [&] { return (reaped = ::waitpid(polling, &status, WNOHANG)) != 0; },
      10'000))
      << "poller did not tear down";
  if (reaped == 0) {
    ::kill(polling, SIGKILL);
    ::waitpid(polling, &status, 0);
  } else {
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "poller child status " << status;
  }
}

// A restart under the replica id of a writer killed inside its heartbeat's
// seqlock window re-claims that slot with seq odd. The claim closes the dead
// writer's window, so the successor's announce and beats are all heard
// instead of the slot being skipped until the deadline declares it dead.
TEST(ShmHeartbeatPollerTest, RestartAfterAWriterKilledMidBeatIsHeard) {
  const std::string name = UniqueShmName("restart");
  auto store = transport::ShmInstructionStore::Create(name, {});
  const pid_t writer = ::fork();
  ASSERT_GE(writer, 0);
  if (writer == 0) {
    common::FaultSpec spec;
    std::string error;
    if (!common::ParseFaultSpec("crash@0#shm.heartbeat", &spec, &error)) {
      ::_exit(9);
    }
    common::FaultInjector::Instance().Arm(spec);
    transport::ShmInstructionStore::Attach(name)->Heartbeat(1, 0, 5.0);
    ::_exit(0);  // the fault did not fire
  }
  int status = 0;
  // Reaped before the re-claim: a zombie still answers kill(pid, 0).
  ASSERT_EQ(::waitpid(writer, &status, 0), writer);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "writer status " << status;

  // This process is the successor.
  auto successor = transport::ShmInstructionStore::Attach(name);
  successor->AnnounceReplica(1);
  for (int64_t i = 0; i < 5; ++i) {
    successor->Heartbeat(1, i, 5.0);
  }
  CountingSink sink(/*dead=*/false);
  transport::ShmHeartbeatPoller poller(store, &sink);
  poller.PollOnce();
  EXPECT_EQ(sink.attaches.load(), 1);
  EXPECT_EQ(sink.beats.load(), 5);
}

// ---------- the publisher ----------

// Both ends of a deployment from one attach string, in-process: a client
// announces replicas 0 and 1 over the endpoint the string names (the mux
// wire or the segment's heartbeat slots) and beats for 0. The beat reaches
// monitor(); 1's drain is acknowledged only after its backlog moved to 0's
// spare keys, and is recorded; and Stop() with 0 still attached declares
// nobody dead.
class PublisherTest : public ::testing::TestWithParam<bool> {};

TEST_P(PublisherTest, BeatReachesMonitorDrainIsAckedAndStopKillsNobody) {
  const bool over_shm = GetParam();
  executor::PublisherOptions options;
  options.attach = over_shm ? UniqueShmName("pub") : UniqueSocketPath("pub");
  options.fleet.replicas = {0, 1};
  options.fleet.spare_iteration_base = 10;
  executor::Publisher publisher(options);

  std::shared_ptr<transport::MuxInstructionStore> mux;
  std::shared_ptr<transport::ShmInstructionStore> shm;
  bool evicted = false;
  if (over_shm) {
    shm = transport::ShmInstructionStore::Attach(options.attach);
    shm->AnnounceReplica(0);
    shm->AnnounceReplica(1);
    shm->Heartbeat(0, 0, 5.0);
  } else {
    mux = transport::MuxInstructionStore::OverUnixSocket(options.attach);
    ASSERT_TRUE(mux->Attach(0, &evicted));
    ASSERT_TRUE(mux->Attach(1, &evicted));
    ASSERT_TRUE(mux->TryHeartbeat(0, 0, 5.0, &evicted));
  }
  EXPECT_TRUE(WaitUntil(
      [&] { return publisher.monitor().total_heartbeats() == 1; }, 5'000));
  EXPECT_EQ(publisher.monitor().LastIteration(0), 0);
  for (int64_t i = 0; i < 3; ++i) {
    publisher.store()->Push(i, 1, MarkerPlan(static_cast<int32_t>(i)));
  }

  if (over_shm) {
    shm->RequestDrain(1);
    EXPECT_TRUE(WaitUntil([&] { return shm->DrainAcknowledged(1); }, 5'000));
  } else {
    EXPECT_TRUE(mux->TryDrain(1, &evicted));
  }
  EXPECT_FALSE(evicted);
  EXPECT_EQ(publisher.report().drained, std::vector<int32_t>{1});
  EXPECT_TRUE(publisher.store()->PendingIterations(1).empty());
  EXPECT_EQ(publisher.store()->PendingIterations(0).size(), 3u);

  publisher.Stop();
  EXPECT_TRUE(publisher.report().dead_replicas.empty());
  EXPECT_TRUE(publisher.monitor().DeadReplicas().empty());
}

// Stop() stops the deadline with the feeders: a replica attached at Stop()
// and silent for six deadlines afterwards is not declared dead, and its
// plans stay where they were published.
TEST_P(PublisherTest, StopStopsTheDeadline) {
  const bool over_shm = GetParam();
  executor::PublisherOptions options;
  options.attach = over_shm ? UniqueShmName("pub") : UniqueSocketPath("pub");
  options.monitor.dead_after_ms = 50.0;
  options.fleet.replicas = {0};
  executor::Publisher publisher(options);

  std::shared_ptr<transport::MuxInstructionStore> mux;
  std::shared_ptr<transport::ShmInstructionStore> shm;
  if (over_shm) {
    shm = transport::ShmInstructionStore::Attach(options.attach);
    shm->AnnounceReplica(0);
  } else {
    bool evicted = false;
    mux = transport::MuxInstructionStore::OverUnixSocket(options.attach);
    ASSERT_TRUE(mux->Attach(0, &evicted));
  }
  ASSERT_TRUE(WaitUntil(
      [&] {
        return publisher.monitor().Liveness(0) ==
               service::ReplicaLiveness::kAlive;
      },
      5'000));
  for (int64_t i = 0; i < 3; ++i) {
    publisher.store()->Push(i, 0, MarkerPlan(static_cast<int32_t>(i)));
  }
  publisher.Stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const service::FleetReport report = publisher.report();
  EXPECT_TRUE(report.dead_replicas.empty());
  EXPECT_EQ(report.dropped_iterations, 0);
  EXPECT_EQ(publisher.store()->PendingIterations(0).size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Endpoints, PublisherTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Shm" : "Socket";
                         });

}  // namespace
}  // namespace dynapipe
