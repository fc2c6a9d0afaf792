// Batch workloads: a localization campaign over the built-in calibrated
// fleet, run through atlas::run_fleet exactly as the atlas_pilot CLI runs it.
//
//   campaign  scale 0.3, 2 shards, journal on: scenario construction, the
//             detection stage and the sharded executor
//   hostile   scale 0.2, 1 shard, loss + duplicates + jitter + retries + an
//             on-path spoofer + the fingerprint stage: the exchange kernel,
//             arbitration, the codec and simnet
#include <cstdio>
#include <unordered_map>

#include "bench.h"
#include "trace.h"
#include "report/results_io.h"

namespace perfbench {
namespace {

/// Records per timed export: the probes of one daemon plan.
constexpr std::size_t kExportSlice = 40;

}  // namespace

bool batch_workload(const std::string& name, bool smoke, BatchWorkload* out) {
  BatchWorkload w;
  if (name == "campaign") {
    w.scale = 0.3;
    w.shards = 2;
    w.journal = true;
  } else if (name == "hostile") {
    w.scale = 0.2;
    w.shards = 1;
    w.journal = false;
    w.adversity = true;
  } else {
    return false;
  }
  // Interception quotas are never scaled down, so a tiny scale still keeps
  // every verdict class in the fleet.
  if (smoke) w.scale = 0.01;
  *out = w;
  return true;
}

atlas::FleetConfig batch_fleet_config(const BatchWorkload& workload, std::uint64_t seed) {
  atlas::FleetConfig config;
  config.seed = seed;
  config.scale = workload.scale;
  if (workload.adversity) {
    config.faults = simnet::FaultProfile::burst_loss(0.05);
    config.faults.duplicate_rate = 0.01;
    config.faults.jitter_max = std::chrono::milliseconds(3);
    config.retry = core::RetryPolicy::standard(4);
    simnet::SpooferConfig spoofer;
    spoofer.on_path = true;
    spoofer.injection_delay = std::chrono::milliseconds(5);
    config.adversary.transit_spoofer = spoofer;
    config.run_fingerprint = true;
  }
  return config;
}

atlas::MeasurementOptions batch_options(const BatchWorkload& workload,
                                        const std::string& journal_path) {
  atlas::MeasurementOptions options;
  options.threads = 1;
  options.shards = workload.shards;
  if (workload.journal) options.journal_path = journal_path;
  return options;
}

std::vector<std::string> reference_signatures(const std::vector<atlas::ProbeSpec>& fleet,
                                              const atlas::MeasurementOptions& options) {
  atlas::MeasurementOptions reference = options;
  reference.shards = 1;
  reference.threads = 1;
  reference.journal_path.clear();
  atlas::MeasurementRun run = atlas::run_fleet(fleet, reference);
  std::unordered_map<std::uint32_t, std::string> by_id;
  for (const atlas::ProbeRecord& record : run.records)
    if (record.outcome == atlas::ProbeOutcome::ok)
      by_id[record.probe_id] = verdict_signature(record.verdict);
  std::vector<std::string> signatures;
  signatures.reserve(fleet.size());
  for (const atlas::ProbeSpec& spec : fleet) signatures.push_back(by_id[spec.probe_id]);
  return signatures;
}

Result run_batch(const Options& options, const BatchWorkload& workload) {
  Result result;
  const atlas::FleetConfig config = batch_fleet_config(workload, options.seed);

  // Set-up: fleet generation. It is repeated here and after every timed
  // pass, so its median spans the window the way the other metrics do
  // rather than the process's first milliseconds.
  std::vector<double> setup_s;
  auto generate = [&]() {
    auto start = Clock::now();
    std::vector<atlas::ProbeSpec> generated = atlas::generate_fleet(config);
    setup_s.push_back(seconds_since(start));
    return generated;
  };
  std::vector<atlas::ProbeSpec> fleet = generate();
  for (int i = 0; i < (options.smoke ? 1 : 10); ++i) (void)generate();

  atlas::MeasurementOptions run_options =
      batch_options(workload, options.work_dir + "/" + options.workload + ".journal");
#ifdef PERFBENCH_TRACED
  run_options.runner = traced_probe;
#endif
  std::unordered_map<std::uint32_t, std::string> reference;
  {
    std::vector<std::string> signatures = reference_signatures(fleet, run_options);
    if (options.corrupt_reference) signatures[signatures.size() / 2] += " (corrupted)";
    for (std::size_t i = 0; i < fleet.size(); ++i)
      reference[fleet[i].probe_id] = std::move(signatures[i]);
  }

  // Warm-up: the reference pass already ran the 1-shard, journal-free
  // configuration; anything else gets one discarded pass of its own.
  if (run_options.shards != 1 || !run_options.journal_path.empty())
    (void)atlas::run_fleet(fleet, run_options);

  std::vector<double> probe_us, turnaround_ms, api_ms;
  std::uint64_t ok = 0;
  double pass_total_s = 0;
  const auto window = Clock::now();
  while (turnaround_ms.size() < 3 || seconds_since(window) < options.seconds) {
    auto start = Clock::now();
    atlas::MeasurementRun run;
    {
      TraceSpan span(SpanName::pass);
      run = atlas::run_fleet(fleet, run_options);
    }
    const double pass_s = seconds_since(start);
    pass_total_s += pass_s;
    turnaround_ms.push_back(pass_s * 1e3);

    for (const atlas::ProbeRecord& record : run.records) {
      probe_us.push_back(static_cast<double>(record.elapsed.count()));
      if (record.outcome == atlas::ProbeOutcome::ok &&
          reference[record.probe_id] == verdict_signature(record.verdict))
        ++ok;
    }
    result.attempted += fleet.size();

    // The batch counterpart of the daemon's GET /records: the JSONL export
    // (report::run_to_jsonl) of each consecutive slice of the run the size
    // of one daemon run. A whole-run export builds one multi-megabyte
    // string, whose page faults made its time swing with the host's memory
    // load far more than any probe metric.
    for (std::size_t i = 0; i < run.records.size(); i += kExportSlice) {
      atlas::MeasurementRun slice;
      slice.records.assign(run.records.begin() + static_cast<std::ptrdiff_t>(i),
                           run.records.begin() + static_cast<std::ptrdiff_t>(
                                                     std::min(run.records.size(), i + kExportSlice)));
      start = Clock::now();
      std::string jsonl = report::run_to_jsonl(slice);
      api_ms.push_back(micros_since(start) / 1e3);
      if (jsonl.empty()) result.correct = false;
    }
    for (int rep = 0; rep < 3; ++rep) (void)generate();
  }
  remove_tree(run_options.journal_path);

  result.failed = result.attempted - ok;
  result.correct = result.correct && result.failed == 0;
  result.notes.push_back(options.workload + ": " + std::to_string(fleet.size()) +
                         " probes, " + std::to_string(workload.shards) + " shard(s), " +
                         std::to_string(turnaround_ms.size()) + " timed passes after 1 warm-up");

  result.add("setup_s", median(setup_s), "s", setup_s.size());
  // Probes completed over the time the passes took: the host's speed drifts
  // smoothly over seconds, and the whole window averages that better than a
  // median of a few pass rates.
  result.add("probes_per_s", static_cast<double>(result.attempted) / pass_total_s, "1/s");
  result.add("probe_p50_us", quantile(probe_us, 0.5), "us", probe_us.size());
  result.add("probe_p90_us", quantile(probe_us, 0.9), "us", probe_us.size());
  result.add("ok_ratio", static_cast<double>(ok) / static_cast<double>(result.attempted),
             "ratio");
  result.add("peak_rss_mb", peak_rss_mib(), "MiB");
  result.add("run_turnaround_p50_ms", quantile(turnaround_ms, 0.5), "ms", turnaround_ms.size());
  result.add("run_turnaround_p90_ms", quantile(turnaround_ms, 0.9), "ms", turnaround_ms.size());
  result.add("api_p50_ms", quantile(api_ms, 0.5), "ms", api_ms.size());
  result.add("api_p90_ms", quantile(api_ms, 0.9), "ms", api_ms.size());
  return result;
}

}  // namespace perfbench
