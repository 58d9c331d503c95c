// bench_e2e: the seeded end-to-end and per-layer benchmark.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--run-dir <dir>]
//   bench_e2e --describe <name>   (the workload's configuration as JSON)
//
// Prints the metrics by name and unit, then one JSON result line. Usually run
// through bench_e2e.py, which builds this binary first and adds --repeat and
// --compare; README.md is the metric catalog.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/e2e/harness.h"

namespace {

using namespace dynapipe::bench_e2e;

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text, &end);
  return errno == 0 && end != text && *end == '\0' && std::isfinite(*out);
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>] [--run-dir <dir>]\n"
               "       bench_e2e --describe <name>\n");
  return 2;
}

bool Known(const std::string& name) {
  for (const std::string& w : WorkloadNames()) {
    if (w == name) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    double number = 0.0;
    if (arg == "--describe") {
      if (!Known(value)) {
        return Usage();
      }
      const std::string name = value;
      std::printf("%s\n", name == "t5-inline"
                              ? DescribeInlineWorkload().c_str()
                              : DescribeFleetWorkload(name).c_str());
      return 0;
    } else if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseNumber(value, &number) || number < 0 ||
          number != std::floor(number)) {
        return Usage();
      }
      options.seed = static_cast<uint64_t>(number);
    } else if (arg == "--seconds") {
      if (!ParseNumber(value, &number) || number <= 0 || number > 3600) {
        return Usage();
      }
      options.seconds = number;
    } else if (arg == "--trace") {
      if (std::string(value) != "0" && std::string(value) != "1") {
        return Usage();
      }
      options.trace = std::string(value) == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else if (arg == "--run-dir") {
      options.run_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !Known(options.workload)) {
    return Usage();
  }
  if (options.trace && options.trace_out.empty()) {
    options.trace_out = "bench_e2e-" + options.workload + ".trace.json";
  }

  Result result = options.workload == "t5-inline" ? RunInlineWorkload(options)
                                                  : RunFleetWorkload(options);
  if (result.failed != 0) {
    result.Fail(std::to_string(result.failed) + " plans failed");
  }
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.Fail("metric " + m.name + " is not finite");
    }
  }
  PrintResult(options, result);
  return 0;
}
