// dynapipe_executor: standalone executor daemon.
//
// Attaches to a plan publisher's instruction store — by Unix-socket path
// (one persistent multiplexed connection) or POSIX shm segment name — fetches
// the execution plans published for its replica, runs each on its own
// ClusterSim, and heartbeats iteration completion back over the transport so
// the publisher's HeartbeatMonitor can flag stragglers. This is the paper's
// §3 deployment shape as an actual separate binary: the only thing that
// crosses the process boundary is serialized plan bytes one way and
// heartbeat frames the other. (Fetch consumes — each plan executes exactly
// once — so the publisher side of a multi-process run does not execute
// in-process; a live Trainer epoch consumes its own plans.)
//
//   dynapipe_executor --attach /tmp/publisher.sock --replica 0
//   dynapipe_executor --attach /tmp/publisher.sock --replica 1 --iterations 50
//   dynapipe_executor --attach /dynapipe-store-1234-0 --replica 0   (shm)
//
// Open-ended runs (no --iterations) drain plans as they appear and exit
// cleanly once none arrives for --idle-timeout-ms.
//
// DYNAPIPE_FAULT=<spec> in the environment arms the fault injector
// (src/common/fault_injection.h) in this process, e.g. crash@1 (SIGKILL at
// iteration 1's heartbeat) or stall:1200@1 (wedge past the publisher's
// liveness deadline). examples/plan_distribution walks through the whole
// multi-process flow; tests/transport_test.cpp spawns this binary.
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/common/fault_injection.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/executor/executor.h"

namespace {

using namespace dynapipe;

void PrintUsage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s --attach <socket-path|shm-name> [options]\n"
      "\n"
      "  --attach <addr>       socket path (contains an interior '/') or shm\n"
      "                        segment name ('/name' with no further '/')\n"
      "  --replica <n>         replica whose plans to fetch (default 0)\n"
      "  --start-iteration <n> first iteration to fetch (default 0)\n"
      "  --iterations <n>      iterations to run; omit to drain until idle\n"
      "  --slow-ms <ms>        artificial per-iteration delay (a straggler)\n"
      "  --join                attach as a mid-epoch joiner: declare the join\n"
      "                        capability so the publisher's fleet coordinator\n"
      "                        admits this replica and seeds it with stolen\n"
      "                        backlog (poll at the epoch's spare base)\n"
      "  --drain-after <n>     after n executed iterations, request a drain:\n"
      "                        hand the unfetched backlog back to the fleet\n"
      "                        and detach cleanly once acknowledged\n"
      "  --idle-timeout-ms <ms> exit/open-ended or fail/counted after this\n"
      "                        long with no new plan (default 10000)\n"
      "  --attach-timeout-ms <ms> connect/attach retry budget (default 10000)\n"
      "  --metrics-dump        print this process's metrics (Prometheus text)\n"
      "                        on exit\n"
      "\n"
      "  DYNAPIPE_FAULT=<spec> arms a fault: kind[:ms]@index[#site], kind in\n"
      "  crash|stall|drop|corrupt (e.g. crash@1, stall:1200@1, corrupt@2)\n"
      "  DYNAPIPE_TRACE=<path> records plan-lifecycle spans into\n"
      "  <path>.<pid>.part for the trace owner to merge\n",
      argv0);
}

// Strict numeric flag parsing: garbage or an out-of-range value must be a
// usage error, not a silent wrap — `--replica 4294967296` quietly fetching
// replica 0's plans (fetch consumes!) would sabotage another executor.
int64_t ParseIntFlag(const char* argv0, const char* flag, const char* value,
                     int64_t min = INT64_MIN, int64_t max = INT64_MAX) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0' || parsed < min ||
      parsed > max) {
    std::fprintf(stderr, "%s wants an integer in [%lld, %lld], got '%s'\n",
                 flag, static_cast<long long>(min),
                 static_cast<long long>(max), value);
    PrintUsage(stderr, argv0);
    std::exit(1);
  }
  return parsed;
}

double ParseDoubleFlag(const char* flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (errno != 0 || end == value || *end != '\0') {
    std::fprintf(stderr, "%s wants a number, got '%s'\n", flag, value);
    std::exit(1);
  }
  return parsed;
}

int RunAttachMode(const executor::ExecutorOptions& options,
                  bool metrics_dump) {
  executor::ExecutorOptions opts = options;
  opts.observer = [](const executor::IterationOutcome& o) {
    std::printf("[executor] iter %lld: %d devices, %d microbatches, "
                "fetch %.3f ms, makespan %.2f ms (sim), wall %.2f ms\n",
                static_cast<long long>(o.iteration), o.plan->num_devices(),
                o.plan->num_microbatches, o.fetch_ms, o.sim->makespan_ms,
                o.exec_wall_ms);
  };
  const executor::ExecutorReport report = executor::RunExecutor(opts);
  // Daemon exit paths hand their spans to the trace owner (no-op when
  // DYNAPIPE_TRACE is unset) and optionally dump this process's metrics —
  // on failure too, since a failed run's counters are the interesting ones.
  common::Tracer::Instance().WritePartFile();
  if (metrics_dump) {
    std::fputs(common::MetricsRegistry::Instance().PrometheusText().c_str(),
               stdout);
  }
  if (!report.ok) {
    std::fprintf(stderr, "dynapipe_executor: %s\n", report.error.c_str());
    return 1;
  }
  std::printf(
      "[executor] done: %lld iterations, %lld instructions, "
      "%lld heartbeats%s (fetch %.2f ms, heartbeat %.2f ms total, "
      "%lld reconnects%s)\n",
      static_cast<long long>(report.iterations_run),
      static_cast<long long>(report.instructions_executed),
      static_cast<long long>(report.heartbeats_sent),
      report.heartbeat_supported ? "" : " (backend has no heartbeat channel)",
      report.fetch_ms_total, report.heartbeat_ms_total,
      static_cast<long long>(report.reconnects),
      report.evicted ? ", evicted" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::FaultInjector::Instance().ArmFromEnv();
  executor::ExecutorOptions options;
  bool metrics_dump = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    const auto next_int = [&](int64_t min = INT64_MIN,
                              int64_t max = INT64_MAX) {
      const char* value = next();
      return ParseIntFlag(argv[0], arg.c_str(), value, min, max);
    };
    if (arg == "--attach") {
      options.attach = next();
    } else if (arg == "--replica") {
      options.replica = static_cast<int32_t>(next_int(0, INT32_MAX));
    } else if (arg == "--start-iteration") {
      options.start_iteration = next_int();
    } else if (arg == "--iterations") {
      options.iterations = next_int();
    } else if (arg == "--slow-ms") {
      options.slow_ms = ParseDoubleFlag("--slow-ms", next());
    } else if (arg == "--join") {
      options.join = true;
    } else if (arg == "--drain-after") {
      options.drain_after = next_int();
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout_ms = static_cast<int>(next_int(0, INT_MAX));
    } else if (arg == "--attach-timeout-ms") {
      options.attach_timeout_ms = static_cast<int>(next_int(0, INT_MAX));
    } else if (arg == "--metrics-dump") {
      metrics_dump = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout, argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      PrintUsage(stderr, argv[0]);
      return 1;
    }
  }
  if (options.attach.empty()) {
    PrintUsage(stderr, argv[0]);
    return 1;
  }
  return RunAttachMode(options, metrics_dump);
}
