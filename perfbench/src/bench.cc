#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/describe.h"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double position = q * static_cast<double>(samples.size() - 1);
  auto lower = static_cast<std::size_t>(std::floor(position));
  std::size_t upper = std::min(lower + 1, samples.size() - 1);
  double fraction = position - static_cast<double>(lower);
  return samples[lower] + (samples[upper] - samples[lower]) * fraction;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string verdict_signature(const core::ProbeVerdict& verdict) {
  std::string s = core::describe(verdict);
  const core::TransportTelemetry& t = verdict.telemetry;
  s += "\nlocation=" + std::string(core::to_string(verdict.location));
  s += " skipped=" + std::to_string(verdict.skipped_stages);
  s += " queries=" + std::to_string(t.queries);
  s += " attempts=" + std::to_string(t.attempts);
  s += " retries=" + std::to_string(t.retries);
  s += " timeouts=" + std::to_string(t.timeouts);
  s += " answered=" + std::to_string(t.answered);
  return s;
}

void emit(const Result& result) {
  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  for (const Metric& m : result.metrics) {
    if (m.samples > 0)
      std::printf("%-28s %16.6g %-6s (n=%zu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    else
      std::printf("%-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const Metric& m : result.metrics) {
    double value = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(number, sizeof number, "%.17g", value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + number + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void remove_tree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

}  // namespace perfbench
