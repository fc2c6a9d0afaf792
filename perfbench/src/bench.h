// Shared pieces of the repository benchmark: options, results, statistics,
// output, and the workload definitions the end-to-end and traced binaries
// both build on.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "atlas/measurement.h"
#include "service/service.h"

namespace perfbench {

using namespace dnslocate;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

inline double micros_since(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Tiny inputs and short windows: the benchmark's own smoke test.
  bool smoke = false;
  /// Damage one reference output so the correctness gate must fire.
  bool corrupt_reference = false;
  /// Scratch directory for journals and daemon state (inside the checkout).
  std::string work_dir = ".";
  /// Traced runs: the untraced probes_per_s the tracing overhead is
  /// measured against (0 = not supplied).
  double untraced_probes_per_s = 0;
  /// Traced runs: skip the traced end-to-end loop (the count self-check's
  /// second run only needs the deterministic counts).
  bool counts_only = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind a percentile or median (0 = a single measured value).
  std::size_t samples = 0;
  /// A deterministic count that must repeat exactly between runs.
  bool exact = false;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed above the result (never on the last line).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit, std::size_t samples = 0) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
  }
};

/// Linearly interpolated quantile, q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

/// Everything the correctness gates compare for one probe: the rendered
/// evidence trail (core::describe), the location, the skipped-stage mask and
/// the transport telemetry counts. RTTs and wall times are not part of it.
std::string verdict_signature(const core::ProbeVerdict& verdict);

/// Print the human-readable table (sample counts beside every percentile),
/// then the result as one JSON object on the last line of stdout.
void emit(const Result& result);

/// Remove a scratch directory tree if it exists.
void remove_tree(const std::string& path);

// --- batch workloads: campaign and hostile --------------------------------

struct BatchWorkload {
  double scale = 0.3;
  unsigned shards = 2;
  bool journal = true;
  /// Burst loss, duplicates and jitter on access links, retries, an on-path
  /// transit spoofer and the fingerprint stage.
  bool adversity = false;
};

/// The batch workload named `name`; false when it is not a batch workload.
bool batch_workload(const std::string& name, bool smoke, BatchWorkload* out);

/// Fleet generation knobs for a batch workload and seed.
atlas::FleetConfig batch_fleet_config(const BatchWorkload& workload, std::uint64_t seed);

/// Measurement options as the CLI (atlas_pilot) sets them for the workload.
atlas::MeasurementOptions batch_options(const BatchWorkload& workload,
                                        const std::string& journal_path);

/// Signatures of a 1-shard reference pass over `fleet`, in fleet order.
std::vector<std::string> reference_signatures(const std::vector<atlas::ProbeSpec>& fleet,
                                              const atlas::MeasurementOptions& options);

Result run_batch(const Options& options, const BatchWorkload& workload);

// --- daemon workload ----------------------------------------------------------

/// Tenants of the daemon workload, one connection each.
constexpr int kDaemonTenants = 2;

/// The service configured as examples/dnslocated.cpp configures it; the
/// HTTP server runs with its defaults (ephemeral port, 50 ms tick), as there.
service::ServiceConfig daemon_service_config(const std::string& state_dir);

/// The fleet plans the daemon's tenants submit, as POST /v1/fleets bodies:
/// `per_tenant` small intercept-heavy plans for each of two tenants.
std::vector<std::string> daemon_plans(std::uint64_t seed, std::size_t per_tenant,
                                      int probes);

/// An uninterrupted in-process run of `plan` with the options
/// MeasurementService uses: its records are the daemon's byte-identity
/// reference.
atlas::MeasurementRun daemon_reference_run(const std::string& plan);

/// The request bytes the benchmark's HTTP client sends.
std::string http_request_bytes(const std::string& method, const std::string& target,
                               const std::string& body);

Result run_daemon(const Options& options);

// --- traced run (perfbench_traced only) ---------------------------------------

Result run_layers(const Options& options);

#ifdef PERFBENCH_TRACED
/// atlas::run_probe with spans around world construction and the pipeline:
/// the MeasurementOptions::runner of the traced workload passes.
atlas::ProbeRecord traced_probe(const atlas::ProbeSpec& spec, const core::CancelToken& cancel);
#endif

}  // namespace perfbench
