#include "src/executor/executor.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <utility>

#include "src/common/fault_injection.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/transport/mux.h"
#include "src/transport/shm_store.h"
#include "src/transport/transport.h"

namespace dynapipe::executor {
namespace {

// How long a liveness announcement (kAttach) may wait for its reply. Bounded
// because the one window where a server accepts but never serves is its own
// teardown — an unbounded wait there turns publisher shutdown into an
// executor hang.
constexpr int kAttachReplyTimeoutMs = 1000;

// Publish-before-fetch is the store contract, so the executor polls for its
// plan rather than risking the fatal fetch-before-publish abort. This is the
// initial poll interval; waits back off exponentially to a capped, jittered
// sleep (a daemon parked behind a slow planner must not hammer the publisher
// — and a fleet of daemons must not hammer it in lockstep). The poll probe
// is non-fatal: a vanished publisher reads as end-of-epoch (open-ended runs)
// or an error report (counted runs), never an abort.
constexpr int kPollIntervalMs = 1;
constexpr int kPollCapMs = 64;

// Transport errors mid-run (a dropped or corrupted mux stream) are retried
// with capped, jittered exponential backoff for this many attempts before
// the publisher is declared gone. This is what makes an injected connection
// drop or frame corruption a hiccup instead of an end-of-epoch.
constexpr int kReconnectAttempts = 3;
constexpr int kReconnectBackoffMs = 10;  // initial; doubles, capped
constexpr int kReconnectBackoffCapMs = 500;

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Capped, jittered exponential backoff. The jitter (uniform in
// [0.5, 1.5) x current) decorrelates a fleet of executors that all lost the
// same server at the same moment — without it every retry storm arrives in
// lockstep. Seeded per instance from pid + clock; reproducibility of the
// *sleep pattern* is irrelevant, only boundedness is.
class Backoff {
 public:
  Backoff(int initial_ms, int cap_ms)
      : initial_(std::max(1, initial_ms)),
        cap_(std::max(initial_, cap_ms)),
        current_(initial_),
        rng_(static_cast<uint32_t>(::getpid()) * 2654435761u ^
             static_cast<uint32_t>(std::chrono::steady_clock::now()
                                       .time_since_epoch()
                                       .count())) {}

  void Sleep() {
    std::uniform_real_distribution<double> jitter(0.5, 1.5);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        static_cast<double>(current_) * jitter(rng_)));
    current_ = std::min(current_ * 2, cap_);
  }
  void Reset() { current_ = initial_; }

 private:
  int initial_;
  int cap_;
  int current_;
  std::minstd_rand rng_;
};

bool WaitForShmSegment(const std::string& name, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = ::shm_open(name.c_str(), O_RDWR, 0);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

common::Counter& ReconnectCounter() {
  static common::Counter& c = common::MetricsRegistry::Instance().GetCounter(
      "executor_reconnects_total");
  return c;
}

}  // namespace

// padded_tokens() sums the lengths in int64: a hostile plan's int32 lengths
// may not fit an int32 sum, and ClusterSim admits only non-negative shapes.
double SyntheticGroundTruth::ComputeMs(int32_t /*device*/,
                                       const sim::Instruction& instr) {
  const double forward =
      0.02 + static_cast<double>(instr.shape.padded_tokens()) * 2e-6;
  return instr.type == sim::InstrType::kBackwardPass ? 2.0 * forward : forward;
}

double SyntheticGroundTruth::ActivationMb(int32_t /*device*/,
                                          const sim::Instruction& instr) {
  return static_cast<double>(instr.shape.padded_tokens()) * 1e-3;
}

double SyntheticGroundTruth::TransferMs(int32_t /*src*/, int32_t /*dst*/,
                                        int64_t bytes) {
  return 0.005 + static_cast<double>(bytes) / (100.0 * 1024.0 * 1024.0);
}

AttachEndpoint DetectEndpoint(const std::string& attach) {
  // A POSIX shm name is "/name" — exactly one slash, leading. Socket paths
  // are real filesystem paths ("/tmp/....sock") with interior slashes.
  if (!attach.empty() && attach[0] == '/' &&
      attach.find('/', 1) == std::string::npos) {
    return AttachEndpoint::kSharedMemory;
  }
  return AttachEndpoint::kUnixSocketMux;
}

ExecutorReport RunExecutor(const ExecutorOptions& options) {
  ExecutorReport report;
  const auto fail = [&report](std::string error) {
    report.ok = false;
    report.error = std::move(error);
    return report;
  };
  if (options.attach.empty()) {
    return fail("no --attach endpoint given");
  }

  AttachEndpoint endpoint = options.endpoint;
  if (endpoint == AttachEndpoint::kAuto) {
    endpoint = DetectEndpoint(options.attach);
  }

  // Every mid-run reconnect derives its patience from the attach budget: 1%
  // of it with a 10 ms floor, so one knob scales the executor's whole
  // tolerance for a slow publisher.
  const int connect_timeout_ms = std::max(10, options.attach_timeout_ms / 100);

  // One of the two is set, by the endpoint kind.
  std::shared_ptr<transport::ShmInstructionStore> shm_store;
  std::shared_ptr<transport::MuxInstructionStore> mux_client;
  // Sticky once the server answers kEvicted anywhere: this replica was
  // declared dead and its plans re-published — the only correct move is to
  // stop, and for an open-ended run that is a *clean* stop.
  bool evicted = false;

  switch (endpoint) {
    case AttachEndpoint::kUnixSocketMux: {
      std::unique_ptr<transport::Stream> stream =
          transport::ConnectUnixSocket(options.attach,
                                       options.attach_timeout_ms);
      if (stream == nullptr) {
        return fail("no server listening on socket " + options.attach);
      }
      mux_client = std::make_shared<transport::MuxInstructionStore>(
          std::move(stream));
      // Announce this replica's presence (kAttach/kDetach), so the
      // publisher's liveness machinery can tell a vanished executor
      // (unclean connection drop -> kDead) from a finished one (clean
      // detach).
      if (!mux_client->Attach(options.replica, &evicted,
                              kAttachReplyTimeoutMs)) {
        return fail("liveness attach on " + options.attach + " failed");
      }
      if (!evicted) {
        // Fold the publisher's trace clock into ours so this executor's
        // spans land on the merged timeline. Best effort.
        mux_client->TrySyncClock(kAttachReplyTimeoutMs);
      }
      break;
    }
    case AttachEndpoint::kSharedMemory:
      if (!WaitForShmSegment(options.attach, options.attach_timeout_ms)) {
        return fail("shm segment " + options.attach + " never appeared");
      }
      shm_store = transport::ShmInstructionStore::Attach(
          options.attach, options.attach_timeout_ms);
      // Claims this replica's heartbeat slot in the segment header: the
      // shm-native analogue of the socket kAttach frame. The publisher's
      // poller sees the claim and starts tracking liveness from it.
      shm_store->AnnounceReplica(options.replica);
      break;
    case AttachEndpoint::kAuto:
      return fail("unreachable endpoint kind");
  }

  // Mid-run mux reconnect: bounded attempts with capped, jittered backoff.
  // True restores a working (re-attached) client; false means the publisher
  // is gone or this replica was evicted (check `evicted`).
  const auto reconnect_mux = [&]() -> bool {
    Backoff backoff(kReconnectBackoffMs, kReconnectBackoffCapMs);
    for (int attempt = 0; attempt < kReconnectAttempts; ++attempt) {
      if (attempt > 0) {
        backoff.Sleep();
      }
      std::unique_ptr<transport::Stream> stream =
          transport::ConnectUnixSocket(options.attach, connect_timeout_ms);
      if (stream == nullptr) {
        continue;
      }
      auto fresh = std::make_shared<transport::MuxInstructionStore>(
          std::move(stream));
      bool attach_evicted = false;
      // Bounded: the reconnect window overlaps server teardown, where a
      // connection is accepted by the OS but never served.
      if (!fresh->Attach(options.replica, &attach_evicted,
                         kAttachReplyTimeoutMs)) {
        continue;
      }
      if (attach_evicted) {
        evicted = true;
        return false;
      }
      fresh->TrySyncClock(kAttachReplyTimeoutMs);
      mux_client = fresh;
      ++report.reconnects;
      ReconnectCounter().Add();
      return true;
    }
    return false;
  };

  // --- Per-endpoint operations the main loop drives ---
  // probe: nullopt = publisher gone (or evicted — check the flag).
  std::function<std::optional<bool>(int64_t)> probe;
  // fetch: nullopt with *gone=false means the key vanished (kMissing —
  // recovery reclaimed it); the caller re-polls rather than aborting.
  std::function<std::optional<sim::ExecutionPlan>(int64_t, bool*)> fetch;
  // send_heartbeat: false = could not deliver (publisher gone).
  std::function<bool(int64_t, double)> send_heartbeat;
  std::function<void()> goodbye;
  // request_drain: the graceful-leave handshake. True once the publisher
  // acknowledged (its FleetCoordinator has taken this replica out of the
  // member set and reposted the unfetched backlog); false on a vanished
  // publisher or eviction (check the flag). Called between iterations, so
  // "finish in-flight work" is already satisfied when the ack lands.
  std::function<bool()> request_drain;

  switch (endpoint) {
    case AttachEndpoint::kUnixSocketMux: {
      // Polls ride the persistent mux stream (TryContains). The reply
      // timeout doubles as the wedged-server detector; a lost stream goes
      // through the bounded reconnect.
      probe = [&](int64_t iteration) -> std::optional<bool> {
        for (;;) {
          bool present = false;
          if (mux_client->TryContains(iteration, options.replica, &present,
                                      /*timeout_ms=*/options.idle_timeout_ms)) {
            return present;
          }
          if (!reconnect_mux()) {
            return std::nullopt;
          }
        }
      };
      fetch = [&](int64_t iteration,
                  bool* gone) -> std::optional<sim::ExecutionPlan> {
        *gone = false;
        for (;;) {
          bool lost = false;
          std::optional<sim::ExecutionPlan> plan =
              mux_client->TryFetch(iteration, options.replica, &lost);
          if (plan.has_value()) {
            return plan;
          }
          if (!lost) {
            return std::nullopt;  // kMissing: reclaimed, not a wire problem
          }
          if (!reconnect_mux()) {
            *gone = true;
            return std::nullopt;
          }
        }
      };
      send_heartbeat = [&](int64_t iteration, double wall_ms) {
        for (;;) {
          bool hb_evicted = false;
          if (mux_client->TryHeartbeat(options.replica, iteration, wall_ms,
                                       &hb_evicted)) {
            if (hb_evicted) {
              evicted = true;
            }
            return true;
          }
          if (!reconnect_mux()) {
            return false;
          }
        }
      };
      goodbye = [&] {
        if (!evicted && mux_client->connection_ok()) {
          mux_client->Detach(options.replica);  // best effort
        }
      };
      request_drain = [&]() -> bool {
        bool drain_evicted = false;
        if (!mux_client->TryDrain(options.replica, &drain_evicted,
                                  kAttachReplyTimeoutMs)) {
          return false;
        }
        if (drain_evicted) {
          evicted = true;
          return false;
        }
        return true;
      };
      break;
    }
    default: {
      // Shm: the mapping stays valid in this process even after the owner
      // unlinks the name, so the segment cannot "go away" mid-run. The
      // liveness channel is the segment itself — each probe stamps this
      // replica's heartbeat-slot alive marker, so a replica parked waiting
      // for a slow planner still reads as alive to the publisher's poller.
      probe = [&](int64_t iteration) -> std::optional<bool> {
        shm_store->TouchReplica(options.replica);
        return shm_store->Contains(iteration, options.replica);
      };
      fetch = [&](int64_t iteration,
                  bool* gone) -> std::optional<sim::ExecutionPlan> {
        *gone = false;
        return shm_store->Fetch(iteration, options.replica);
      };
      send_heartbeat = [&](int64_t iteration, double wall_ms) {
        return shm_store->Heartbeat(options.replica, iteration, wall_ms);
      };
      goodbye = [&] {
        // Clean detach: flips the slot's detached flag so the poller reports
        // a deliberate exit instead of ageing into a false death.
        shm_store->DetachReplica(options.replica);
      };
      request_drain = [&]() -> bool {
        // The shm drain word: request (2), then poll for the publisher's
        // acknowledgement (3). Bounded: a publisher that never acks (gone,
        // or the membership loop is not wired) must not wedge the leaver —
        // proceed to the clean detach either way; the handoff just completes
        // without a green light.
        shm_store->RequestDrain(options.replica);
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(std::max(100, options.idle_timeout_ms));
        while (std::chrono::steady_clock::now() < deadline) {
          if (shm_store->DrainAcknowledged(options.replica)) {
            return true;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return false;
      };
      break;
    }
  }

  SyntheticGroundTruth ground_truth;
  for (int64_t iteration = options.start_iteration;
       !evicted && (options.iterations < 0 ||
                    iteration < options.start_iteration + options.iterations);
       ++iteration) {
    if (options.drain_after >= 0 &&
        report.iterations_run >= options.drain_after) {
      // Graceful leave, between iterations: the last one already completed
      // (and heartbeated), so there is no in-flight work to wait out —
      // request the drain, let the publisher hand the unfetched backlog to
      // the survivors, and exit through the clean goodbye below. An
      // unacknowledged drain (publisher gone, or eviction) still exits;
      // `drained` records only the clean handshake.
      report.drained = request_drain();
      break;
    }
    // Publish-before-fetch: poll until the publisher's push lands. Fetching
    // early would burn kMissing round trips. Backoff is exponential with a
    // cap and jitter: an executor parked behind a slow planner must not
    // hammer the publisher — and a fleet of them must not do so in phase.
    const auto poll_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options.idle_timeout_ms);
    Backoff poll_backoff(kPollIntervalMs, kPollCapMs);
    bool available = false;
    bool publisher_gone = false;
    for (;;) {
      const std::optional<bool> published = probe(iteration);
      if (evicted) {
        break;
      }
      if (!published.has_value()) {
        publisher_gone = true;
        break;
      }
      if (*published) {
        available = true;
        break;
      }
      if (std::chrono::steady_clock::now() >= poll_deadline) {
        break;
      }
      poll_backoff.Sleep();
    }
    if (evicted) {
      break;
    }
    if (!available) {
      if (options.iterations < 0) {
        break;  // open-ended run: drained or the publisher shut down
      }
      return fail("iteration " + std::to_string(iteration) + " replica " +
                  std::to_string(options.replica) +
                  (publisher_gone ? ": publisher went away"
                                  : " never published"));
    }

    const auto t0 = std::chrono::steady_clock::now();
    bool gone = false;
    std::optional<sim::ExecutionPlan> plan_opt = fetch(iteration, &gone);
    if (!plan_opt.has_value()) {
      if (evicted) {
        break;
      }
      if (gone) {
        if (options.iterations < 0) {
          break;
        }
        return fail("iteration " + std::to_string(iteration) +
                    ": publisher went away mid-fetch");
      }
      // The key was published a moment ago and is gone now: recovery
      // reclaimed it (we are probably being declared dead). Re-poll the
      // same iteration; the idle timeout or an eviction notice resolves it.
      --iteration;
      continue;
    }
    const sim::ExecutionPlan plan = std::move(*plan_opt);
    const double fetch_ms = MsSince(t0);

    sim::ClusterSim cluster(plan.num_devices(), &ground_truth);
    // The "executed" span covers the cluster run plus any injected slowness
    // — a wedged executor shows up in the trace as one long executed span.
    std::optional<common::TraceSpan> exec_span;
    exec_span.emplace("executed", "plan", iteration, options.replica);
    const sim::SimResult result = cluster.Run(plan);
    if (result.refused || result.deadlocked || result.oom) {
      return fail("iteration " + std::to_string(iteration) + " " +
                  result.diagnostic);
    }
    if (options.slow_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options.slow_ms));
    }
    // Stall site: a wedged executor sleeps *inside* the iteration, past the
    // publisher's liveness deadline, then wakes into the eviction fence.
    common::FaultPoint("executor.iteration", iteration);
    exec_span.reset();
    const double exec_wall_ms = MsSince(t0);

    // Crash site: SIGKILL after executing but before reporting — the
    // worst-timed death, leaving the publisher to infer it from the dropped
    // connection or the missed deadline.
    common::FaultPoint("executor.heartbeat", iteration);
    const auto hb0 = std::chrono::steady_clock::now();
    {
      common::TraceSpan span("heartbeat", "plan", iteration, options.replica);
      if (send_heartbeat(iteration, exec_wall_ms)) {
        ++report.heartbeats_sent;
      }
    }
    report.heartbeat_ms_total += MsSince(hb0);

    ++report.iterations_run;
    for (const auto& device : plan.devices) {
      report.instructions_executed +=
          static_cast<int64_t>(device.instructions.size());
    }
    report.fetch_ms_total += fetch_ms;
    report.exec_wall_ms_total += exec_wall_ms;
    if (options.observer) {
      IterationOutcome outcome;
      outcome.iteration = iteration;
      outcome.plan = &plan;
      outcome.sim = &result;
      outcome.fetch_ms = fetch_ms;
      outcome.exec_wall_ms = exec_wall_ms;
      options.observer(outcome);
    }

  }
  goodbye();
  if (evicted) {
    report.evicted = true;
    if (options.iterations >= 0) {
      return fail("replica " + std::to_string(options.replica) +
                  " evicted: declared dead and its plans re-published");
    }
  }
  report.ok = true;
  return report;
}

}  // namespace dynapipe::executor
