#include "bench/e2e/harness.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <string_view>

#include "src/common/stats.h"
#include "src/common/trace.h"

namespace dynapipe::bench_e2e {

void Result::Fail(const std::string& why) {
  correct = false;
  notes.push_back("FAILED: " + why);
}

void Result::NoteSetups(const std::vector<double>& setup_s) {
  std::string line = "setup_s per fixture:";
  for (const double s : setup_s) {
    char value[32];
    std::snprintf(value, sizeof(value), " %.4f", s);
    line += value;
  }
  notes.push_back(line);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "t5-inline", "gpt-shm-ahead", "gpt-mux-replay", "gpt-shm-replay"};
  return names;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double Pct(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : Percentile(values, p);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

// Value of `"key":` in one trace-event line, as the text up to the next
// delimiter; empty when absent. The lines are the tracer's own fixed format
// (src/common/trace.cc), so a field scan is enough.
std::string_view Field(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const size_t at = line.find(needle);
  if (at == std::string_view::npos) {
    return {};
  }
  size_t begin = at + needle.size();
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    const size_t end = line.find('"', begin);
    return line.substr(begin, end - begin);
  }
  const size_t end = line.find_first_of(",}", begin);
  return line.substr(begin, end - begin);
}

}  // namespace

std::map<std::string, std::vector<double>> SpanDurationsUs() {
  std::string lines;
  common::Tracer::Instance().DumpJsonl(&lines);
  std::map<std::string, std::vector<double>> out;
  size_t pos = 0;
  while (pos < lines.size()) {
    size_t nl = lines.find('\n', pos);
    if (nl == std::string::npos) {
      nl = lines.size();
    }
    const std::string_view line(lines.data() + pos, nl - pos);
    pos = nl + 1;
    if (Field(line, "ph") != "X") {
      continue;
    }
    out[std::string(Field(line, "name"))].push_back(
        std::strtod(std::string(Field(line, "dur")).c_str(), nullptr));
  }
  return out;
}

void PrintResult(const RunOptions& options, const Result& result) {
  std::printf("bench_e2e workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const Metric& m : result.metrics) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  attempted %lld plans, failed %lld, correct %s\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.correct ? "true" : "false");
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    char value[64];
    // JSON has no NaN/inf; a non-finite value is a harness bug, reported as
    // 0 and flagged by correct=false upstream.
    std::snprintf(value, sizeof(value), "%.12g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace dynapipe::bench_e2e
