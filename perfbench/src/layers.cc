// The traced run (perfbench_traced): per-layer costs for one workload.
//
// Every number here comes from calls the benchmark makes into a module's
// public functions, timed and allocation-counted from this file; nothing in
// the program is instrumented. Times are medians per call; allocation and
// traffic counts are exact and must repeat between two traced runs (the
// self-check in run.py). The run ends with a traced pass of the workload
// itself, whose throughput against the untraced figure is the tracing
// overhead. Spans stay in memory and are written to
// <work-dir>/trace-<workload>.json (Chrome trace-event format) at the end.
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "atlas/fleet_json.h"
#include "atlas/journal.h"
#include "atlas/scenario.h"
#include "atlas/sharding.h"
#include "bench.h"
#include "dnswire/decoder.h"
#include "dnswire/encoder.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "report/results_io.h"
#include "resolvers/public_resolver.h"
#include "service/api.h"
#include "service/http.h"
#include "trace.h"

namespace perfbench {

// --- span recorder -----------------------------------------------------------

namespace {

struct SpanRecord {
  SpanName name{};
  std::uint32_t trace = 0;
  std::int32_t parent = -1;  // index in the same thread's buffer
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> open;
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_buffers_mutex
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& local_buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = static_cast<std::uint32_t>(g_buffers.size());
    t_buffer->spans.reserve(1 << 14);
  }
  return *t_buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::count_);

/// Durations and self times (duration minus the part covered by direct
/// children) per span name, over spans that started in [from_ns, to_ns).
struct SpanStats {
  std::array<std::vector<double>, kSpanNames> total_us;
  std::array<std::vector<double>, kSpanNames> self_us;
  std::size_t spans = 0;
};

SpanStats span_stats(std::int64_t from_ns, std::int64_t to_ns) {
  SpanStats stats;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : g_buffers) {
    const std::vector<SpanRecord>& spans = buffer->spans;
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& span : spans)
      if (span.parent >= 0)
        child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      if (span.start_ns < from_ns || span.start_ns >= to_ns || span.end_ns == 0) continue;
      auto name = static_cast<std::size_t>(span.name);
      double total = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      stats.total_us[name].push_back(total);
      stats.self_us[name].push_back(total - static_cast<double>(child_ns[i]) / 1e3);
      ++stats.spans;
    }
  }
  return stats;
}

/// Write every recorded span as Chrome trace-event JSON (open in Perfetto).
void write_trace(const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& span : buffer->spans) {
      if (span.end_ns == 0) continue;
      if (!first) out << ",\n";
      first = false;
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"trace\":%u,\"parent\":%d}}",
                    span_label(span.name), buffer->thread,
                    static_cast<double>(span.start_ns) / 1e3,
                    static_cast<double>(span.end_ns - span.start_ns) / 1e3, span.trace,
                    span.parent);
      out << line;
    }
  }
  out << "]}\n";
}

}  // namespace

const char* span_label(SpanName name) {
  static constexpr std::array<const char*, kSpanNames> kLabels = {
      "pass",        "probe",       "atlas.scenario", "core.pipeline",
      "daemon.run",  "http.submit", "http.verdicts",  "http.status",
      "http.records", "http.metrics"};
  return kLabels[static_cast<std::size_t>(name)];
}

TraceSpan::TraceSpan(SpanName name, std::uint32_t trace_id) {
  ThreadBuffer& buffer = local_buffer();
  std::int32_t parent = buffer.open.empty() ? -1 : buffer.open.back();
  if (trace_id == 0 && parent >= 0) trace_id = buffer.spans[static_cast<std::size_t>(parent)].trace;
  index_ = static_cast<std::int32_t>(buffer.spans.size());
  buffer.spans.push_back(SpanRecord{name, trace_id, parent, now_ns(), 0});
  buffer.open.push_back(index_);
}

TraceSpan::~TraceSpan() {
  t_buffer->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  t_buffer->open.pop_back();
}

// --- the traced probe -----------------------------------------------------------

namespace {

/// Costs of one traced probe, measured on the calling thread.
struct ProbeCosts {
  double scenario_us = 0;
  double pipeline_us = 0;
  std::uint64_t scenario_allocs = 0;
  std::uint64_t pipeline_allocs = 0;
};

/// atlas::run_probe, replicated so that world construction and the
/// pipeline can be timed apart: same scenario, same engine, same stripping.
atlas::ProbeRecord run_traced_probe(const atlas::ProbeSpec& spec, const core::CancelToken& cancel,
                                    ProbeCosts* costs) {
  TraceSpan probe_span(SpanName::probe, spec.probe_id);
  atlas::ProbeRecord record;
  record.probe_id = spec.probe_id;
  record.org = spec.org;
  record.tested_v6 = spec.scenario.home_ipv6;

  std::optional<atlas::Scenario> scenario;
  {
    TraceSpan span(SpanName::scenario);
    std::uint64_t allocs = allocations();
    auto start = Clock::now();
    scenario.emplace(spec.scenario);
    if (costs != nullptr) {
      costs->scenario_us = micros_since(start);
      costs->scenario_allocs = allocations() - allocs;
    }
  }
  record.truth = scenario->ground_truth();
  core::LocalizationPipeline pipeline(scenario->pipeline_config());
  {
    TraceSpan span(SpanName::pipeline);
    std::uint64_t allocs = allocations();
    auto start = Clock::now();
    record.verdict =
        pipeline.run(static_cast<core::AsyncQueryTransport&>(scenario->transport()), cancel);
    if (costs != nullptr) {
      costs->pipeline_us = micros_since(start);
      costs->pipeline_allocs = allocations() - allocs;
    }
  }
  record.drops = scenario->sim().drops();
  record.faults = scenario->fault_plan().counters();
  // MeasurementOptions::strip_raw_responses, as run_probe applies it.
  for (auto& probe : record.verdict.detection.probes) probe.result.all_responses.clear();
  if (record.verdict.bogon) {
    for (core::BogonFamilyReport* family : {&record.verdict.bogon->v4, &record.verdict.bogon->v6}) {
      family->a_query.all_responses.clear();
      family->version_query.all_responses.clear();
    }
  }
  return record;
}

}  // namespace

atlas::ProbeRecord traced_probe(const atlas::ProbeSpec& spec, const core::CancelToken& cancel) {
  return run_traced_probe(spec, cancel, nullptr);
}

// --- the per-layer sweep ----------------------------------------------------------

namespace {

/// The workload's inputs, as the layers see them.
struct Inputs {
  std::vector<atlas::ProbeSpec> fleet;
  std::vector<std::size_t> sample;       // fleet indices for per-probe layers
  std::vector<std::string> plans;        // POST /v1/fleets bodies (service layer)
  std::vector<std::string> plan_texts;   // fleet plans as JSON (jsonio layer)
  atlas::MeasurementOptions run_options;  // the workload's options, journal off
};

Inputs make_inputs(const Options& options) {
  Inputs in;
  BatchWorkload batch;
  if (batch_workload(options.workload, options.smoke, &batch)) {
    atlas::FleetConfig config = batch_fleet_config(batch, options.seed);
    in.fleet = atlas::generate_fleet(config);
    in.plan_texts.push_back(atlas::fleet_to_json(atlas::builtin_fleet_plan(), config));
    in.plans = daemon_plans(options.seed, options.smoke ? 1 : 2, options.smoke ? 10 : 40);
    in.run_options = batch_options(batch, "");
  } else {
    in.plans = daemon_plans(options.seed, options.smoke ? 1 : 6, options.smoke ? 10 : 40);
    in.plan_texts = in.plans;
    for (const std::string& plan : in.plans)
      for (atlas::ProbeSpec& spec : atlas::fleet_from_json(plan).generate())
        in.fleet.push_back(std::move(spec));
    in.run_options.threads = 1;
    in.run_options.shards = 1;
  }
  // An even stride over the fleet keeps the sample's mix of probe kinds.
  const std::size_t target = options.smoke ? 40 : 400;
  const std::size_t stride = std::max<std::size_t>(1, in.fleet.size() / target);
  for (std::size_t i = 0; i < in.fleet.size() && in.sample.size() < target; i += stride)
    in.sample.push_back(i);
  return in;
}

double mean_of(double total, std::size_t n) { return n == 0 ? 0 : total / static_cast<double>(n); }

/// Layer metrics collected by one sweep.
struct Sweep {
  Result out;
  void time(const std::string& name, const std::vector<double>& us, const char* unit = "us") {
    out.add(name, median(us), unit, us.size());
  }
  void count(const std::string& name, double value, const char* unit = "count") {
    out.add(name, value, unit);
    out.metrics.back().exact = true;
  }
};

/// Per-probe layers over the sample: scenario, pipeline, stages, one
/// exchange, the codec, and the traffic counts. Deterministic counts only
/// depend on the inputs, so a second call must reproduce them exactly.
void probe_layers(const Inputs& in, Sweep& sweep, bool* correct) {
  std::vector<double> scenario_us, pipeline_us;
  double scenario_allocs = 0, pipeline_allocs = 0;
  std::vector<atlas::ProbeRecord> records;
  const auto phase_start = now_ns();
  for (std::size_t i : in.sample) {
    ProbeCosts costs;
    records.push_back(run_traced_probe(in.fleet[i], core::CancelToken{}, &costs));
    scenario_us.push_back(costs.scenario_us);
    pipeline_us.push_back(costs.pipeline_us);
    scenario_allocs += static_cast<double>(costs.scenario_allocs);
    pipeline_allocs += static_cast<double>(costs.pipeline_allocs);
  }
  const SpanStats spans = span_stats(phase_start, now_ns());
  const std::size_t n = records.size();
  sweep.time("atlas.scenario_us", scenario_us);
  sweep.count("atlas.scenario_allocs", mean_of(scenario_allocs, n));
  sweep.time("core.pipeline_us", pipeline_us);
  sweep.count("core.pipeline_allocs", mean_of(pipeline_allocs, n));

  // Self time per probe layer, from the spans of this phase.
  auto share = [&](SpanName name) {
    double part = 0, whole = 0;
    for (double us : spans.self_us[static_cast<std::size_t>(name)]) part += us;
    for (double us : spans.total_us[static_cast<std::size_t>(SpanName::probe)]) whole += us;
    return whole > 0 ? part / whole : 0;
  };
  sweep.time("trace.probe_self_us", spans.self_us[static_cast<std::size_t>(SpanName::probe)]);
  sweep.out.add("trace.scenario_share", share(SpanName::scenario), "ratio");
  sweep.out.add("trace.pipeline_share", share(SpanName::pipeline), "ratio");

  // Pipeline stages, each called on a fresh scenario for the probes whose
  // verdict shows the stage ran (every sampled probe when none did).
  enum Stage { detection, cpe_check, bogon, transparency, fingerprint, stages };
  std::array<std::vector<double>, stages> stage_us;
  auto stage_ran = [](const core::ProbeVerdict& v, int stage) {
    switch (stage) {
      case detection: return !v.stage_skipped(core::PipelineStage::detection);
      case cpe_check: return v.cpe_check.has_value();
      case bogon: return v.bogon.has_value();
      case transparency: return v.transparency.has_value();
      default: return v.fingerprint.has_value();
    }
  };
  for (int stage = 0; stage < stages; ++stage) {
    bool any = false;
    for (const atlas::ProbeRecord& record : records) any = any || stage_ran(record.verdict, stage);
    for (std::size_t k = 0; k < n; ++k) {
      const core::ProbeVerdict& verdict = records[k].verdict;
      if (any && !stage_ran(verdict, stage)) continue;
      atlas::Scenario scenario(in.fleet[in.sample[k]].scenario);
      core::PipelineConfig config = scenario.pipeline_config();
      auto& engine = static_cast<core::AsyncQueryTransport&>(scenario.transport());
      netbase::IpFamily family = verdict.detection.any_intercepted(netbase::IpFamily::v4)
                                     ? netbase::IpFamily::v4
                                     : netbase::IpFamily::v6;
      auto suspects = verdict.detection.intercepted_kinds(family);
      auto start = Clock::now();
      if (stage == detection) {
        (void)core::InterceptionDetector(config.detection).run(engine);
      } else if (stage == cpe_check) {
        config.cpe_check.family = family;
        netbase::IpAddress cpe_ip = config.cpe_public_ip.value_or(scenario.cpe_wan_v4());
        (void)core::CpeLocalizer(config.cpe_check).run(engine, cpe_ip, suspects);
      } else if (stage == bogon) {
        (void)core::IspLocalizer(config.bogon).run(engine);
      } else if (stage == transparency) {
        config.transparency.family = family;
        (void)core::TransparencyTester(config.transparency).run(engine, suspects);
      } else {
        resolvers::PublicResolverKind target =
            suspects.empty() ? config.fingerprint.default_target : suspects.front();
        (void)core::FingerprintProber(config.fingerprint).run(engine, target);
      }
      stage_us[static_cast<std::size_t>(stage)].push_back(micros_since(start));
    }
  }
  sweep.time("core.detection_us", stage_us[detection]);
  sweep.time("core.cpe_check_us", stage_us[cpe_check]);
  sweep.time("core.bogon_us", stage_us[bogon]);
  sweep.time("core.transparency_us", stage_us[transparency]);
  sweep.time("core.fingerprint_us", stage_us[fingerprint]);

  // One exchange: a Cloudflare location query through SimTransport::query on
  // a fresh world. The second identical query is the one measured, so the
  // transport's first-use set-up is not counted.
  std::vector<double> exchange_us;
  double exchange_allocs = 0;
  const auto& cloudflare =
      resolvers::PublicResolverSpec::get(resolvers::PublicResolverKind::cloudflare);
  const netbase::Endpoint server{cloudflare.service_addrs(netbase::IpFamily::v4)[0],
                                 netbase::kDnsPort};
  const std::size_t exchanges = std::min<std::size_t>(n, 200);
  for (std::size_t k = 0; k < exchanges; ++k) {
    atlas::Scenario scenario(in.fleet[in.sample[k]].scenario);
    const core::QueryOptions query_options = scenario.pipeline_config().detection.query;
    const auto& q = cloudflare.location_query;
    (void)scenario.transport().query(
        server, dnswire::make_query(0x1234, q.name, q.type, q.klass), query_options);
    dnswire::Message query = dnswire::make_query(0x4321, q.name, q.type, q.klass);
    std::uint64_t allocs = allocations();
    auto start = Clock::now();
    (void)scenario.transport().query(server, query, query_options);
    const double elapsed = micros_since(start);
    exchange_allocs += static_cast<double>(allocations() - allocs);
    exchange_us.push_back(elapsed);
  }
  sweep.time("core.exchange_us", exchange_us);
  sweep.count("core.exchange_allocs", mean_of(exchange_allocs, exchanges));

  // Transport and network counts of the sampled probes.
  core::TransportTelemetry telemetry;
  double drops = 0, fault_drops = 0;
  for (const atlas::ProbeRecord& record : records) {
    telemetry += record.verdict.telemetry;
    drops += static_cast<double>(record.drops.total());
    fault_drops += static_cast<double>(record.faults.drops());
  }
  sweep.count("core.attempts_per_probe", mean_of(static_cast<double>(telemetry.attempts), n));
  sweep.count("core.retries_per_probe", mean_of(static_cast<double>(telemetry.retries), n));
  sweep.count("core.answered_ratio",
              mean_of(static_cast<double>(telemetry.answered),
                      static_cast<std::size_t>(telemetry.queries)),
              "ratio");
  sweep.count("simnet.drops_per_probe", mean_of(drops, n));
  sweep.count("simnet.fault_drops_per_probe", mean_of(fault_drops, n));

  // The codec, over the responses the sampled probes received.
  std::vector<double> encode_us, decode_us;
  double encode_allocs = 0, decode_allocs = 0, bytes = 0;
  for (const atlas::ProbeRecord& record : records) {
    for (const core::LocationProbe& probe : record.verdict.detection.probes) {
      if (!probe.result.response) continue;
      const dnswire::Message& message = *probe.result.response;
      std::uint64_t allocs = allocations();
      auto start = Clock::now();
      dnswire::WireBuffer wire = dnswire::encode_message(message);
      const double encode_time = micros_since(start);
      encode_allocs += static_cast<double>(allocations() - allocs);
      allocs = allocations();
      start = Clock::now();
      std::optional<dnswire::Message> decoded =
          dnswire::decode_message(std::span<const std::uint8_t>(wire.data(), wire.size()));
      const double decode_time = micros_since(start);
      decode_allocs += static_cast<double>(allocations() - allocs);
      encode_us.push_back(encode_time);
      decode_us.push_back(decode_time);
      bytes += static_cast<double>(wire.size());
      if (!decoded || !(*decoded == message)) *correct = false;
    }
  }
  sweep.time("dnswire.encode_us", encode_us);
  sweep.time("dnswire.decode_us", decode_us);
  sweep.count("dnswire.encode_allocs", mean_of(encode_allocs, encode_us.size()));
  sweep.count("dnswire.decode_allocs", mean_of(decode_allocs, decode_us.size()));
  sweep.count("dnswire.message_bytes", mean_of(bytes, encode_us.size()), "bytes");
}

/// Fleet-level layers: the sharded executor, the journal and the report
/// serializers, over the workload's whole fleet.
void fleet_layers(const Inputs& in, const Options& options, Sweep& sweep, bool* correct) {
  atlas::MeasurementOptions one = in.run_options;
  one.shards = 1;
  atlas::MeasurementOptions two = in.run_options;
  two.shards = 2;
  atlas::MeasurementRun single = atlas::run_fleet(in.fleet, one);
  auto start = Clock::now();
  atlas::MeasurementRun sharded = atlas::run_fleet(in.fleet, two);
  const double wall_us = micros_since(start);

  std::vector<double> single_us, sharded_us;
  std::array<double, 2> shard_busy{};
  double busy = 0;
  if (single.records.size() != in.fleet.size() || sharded.records.size() != in.fleet.size())
    *correct = false;
  for (std::size_t i = 0; i < single.records.size() && i < sharded.records.size(); ++i) {
    const atlas::ProbeRecord& a = single.records[i];
    const atlas::ProbeRecord& b = sharded.records[i];
    if (a.outcome != atlas::ProbeOutcome::ok || b.outcome != atlas::ProbeOutcome::ok ||
        a.probe_id != b.probe_id || verdict_signature(a.verdict) != verdict_signature(b.verdict))
      *correct = false;
    auto elapsed = static_cast<double>(b.elapsed.count());
    single_us.push_back(static_cast<double>(a.elapsed.count()));
    sharded_us.push_back(elapsed);
    shard_busy[atlas::shard_of(b.probe_id, 2)] += elapsed;
    busy += elapsed;
  }
  sweep.out.add("atlas.shard_imbalance",
                std::max(shard_busy[0], shard_busy[1]) / std::max(1.0, busy / 2), "ratio");
  sweep.out.add("atlas.parallel_efficiency", busy / (2 * wall_us), "ratio");
  sweep.out.add("atlas.probe_inflation", median(sharded_us) / std::max(1.0, median(single_us)),
                "ratio");

  // The journal, over the 1-shard records. Wall times are zeroed so the
  // bytes per record are an exact count.
  std::vector<atlas::ProbeRecord> records = single.records;
  for (atlas::ProbeRecord& record : records) record.elapsed = std::chrono::microseconds(0);
  const std::string journal = options.work_dir + "/layers.journal";
  std::vector<double> append_us;
  {
    atlas::JournalWriter writer(journal, atlas::JournalHeader{1, atlas::fleet_fingerprint(in.fleet),
                                                              in.fleet.size()});
    constexpr std::size_t kBatch = 32;  // run_fleet's journal batch
    for (std::size_t i = 0; i < records.size(); i += kBatch) {
      std::vector<const atlas::ProbeRecord*> batch;
      for (std::size_t j = i; j < std::min(records.size(), i + kBatch); ++j)
        batch.push_back(&records[j]);
      auto t = Clock::now();
      writer.append_batch(batch);
      append_us.push_back(micros_since(t) / static_cast<double>(batch.size()));
    }
    writer.sync();
    if (!writer.ok() || writer.written() != records.size()) *correct = false;
  }
  std::string text;
  {
    std::ifstream in_file(journal, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in_file), std::istreambuf_iterator<char>());
  }
  const std::size_t header = text.find('\n') + 1;
  std::vector<double> load_us;
  for (int rep = 0; rep < 3; ++rep) {
    auto t = Clock::now();
    atlas::JournalLoadResult loaded = atlas::load_journal(journal);
    load_us.push_back(micros_since(t) / static_cast<double>(std::max<std::size_t>(1, records.size())));
    if (!loaded.ok() || loaded.records.size() != records.size() || loaded.damaged != 0)
      *correct = false;
  }
  remove_tree(journal);
  sweep.time("atlas.journal_append_us", append_us);
  sweep.count("atlas.journal_bytes", mean_of(static_cast<double>(text.size() - header),
                                             records.size()), "bytes");
  sweep.time("atlas.journal_load_us", load_us);

  // Report serializers.
  std::vector<double> probe_json_us, jsonl_us;
  for (const atlas::ProbeRecord& record : single.records) {
    auto t = Clock::now();
    jsonio::Value value = report::probe_to_json(record);
    probe_json_us.push_back(micros_since(t));
  }
  for (int rep = 0; rep < 5; ++rep) {
    auto t = Clock::now();
    std::string jsonl = report::run_to_jsonl(single);
    jsonl_us.push_back(micros_since(t));
    if (jsonl.empty()) *correct = false;
  }
  sweep.time("report.probe_json_us", probe_json_us);
  sweep.time("report.jsonl_us", jsonl_us);
}

/// Control-plane layers: plan parsing, the service kernel, the HTTP parser,
/// routing, and the metrics scrape.
void service_layers(const Inputs& in, const Options& options, Sweep& sweep, bool* correct) {
  std::vector<double> parse_us;
  for (int rep = 0; rep < 5; ++rep) {
    for (const std::string& text : in.plan_texts) {
      auto t = Clock::now();
      atlas::FleetJsonResult parsed = atlas::fleet_from_json(text);
      parse_us.push_back(micros_since(t));
      if (!parsed.ok()) *correct = false;
    }
  }
  sweep.time("jsonio.plan_parse_us", parse_us);

  std::vector<double> http_us;
  for (const std::string& plan : in.plans) {
    for (const std::string& bytes :
         {http_request_bytes("POST", "/v1/fleets", plan),
          http_request_bytes("GET", "/v1/fleets/run-000001/records", "")}) {
      service::RequestParser parser;
      auto t = Clock::now();
      service::RequestParser::State state = parser.feed(bytes);
      http_us.push_back(micros_since(t));
      if (state != service::RequestParser::State::done) *correct = false;
    }
  }
  sweep.time("service.http_parse_us", http_us);

  std::vector<std::string> expected;
  for (const std::string& plan : in.plans)
    expected.push_back(report::run_to_jsonl(daemon_reference_run(plan)));

  const std::string state_dir = options.work_dir + "/layers-state";
  remove_tree(state_dir);
  std::vector<double> submit_us, queue_ms, exec_ms, records_us, route_us;
  {
    const service::ServiceConfig svc_config = daemon_service_config(state_dir);
    service::MeasurementService svc(svc_config);
    // Bursts of as many runs per tenant as its admission cap allows, all at
    // once, so runs queue behind the two workers.
    const std::size_t per_tenant = in.plans.size() / static_cast<std::size_t>(kDaemonTenants);
    std::vector<std::size_t> burst;
    for (std::size_t t = 0; t < static_cast<std::size_t>(kDaemonTenants); ++t)
      for (std::size_t j = 0; j < std::min(per_tenant, svc_config.tenant_cap); ++j)
        burst.push_back(t * per_tenant + j);
    const int bursts = options.smoke ? 1 : 3;
    for (int round = 0; round < bursts; ++round) {
      struct Pending {
        std::string id;
        std::size_t plan = 0;
        Clock::time_point admitted, started;
        bool running = false;
        bool done = false;
      };
      std::vector<Pending> pending;
      for (std::size_t k : burst) {
        auto t = Clock::now();
        service::SubmitResult submitted = svc.submit(in.plans[k]);
        submit_us.push_back(micros_since(t));
        if (submitted.status != 202) {
          *correct = false;  // the burst stays within every tenant's cap
          continue;
        }
        pending.push_back(Pending{submitted.id, k, Clock::now(), {}, false, false});
      }
      const auto deadline = Clock::now() + std::chrono::seconds(60);
      for (std::size_t left = pending.size(); left > 0 && Clock::now() < deadline;) {
        for (Pending& p : pending) {
          if (p.done) continue;
          std::optional<service::RunStatus> status = svc.status(p.id);
          if (!status) continue;
          auto now = Clock::now();
          if (!p.running && status->state != service::RunState::queued) {
            p.running = true;
            p.started = now;
            queue_ms.push_back(std::chrono::duration<double, std::milli>(now - p.admitted).count());
          }
          if (status->state == service::RunState::completed ||
              status->state == service::RunState::failed ||
              status->state == service::RunState::cancelled) {
            p.done = true;
            --left;
            exec_ms.push_back(std::chrono::duration<double, std::milli>(now - p.started).count());
            if (status->state != service::RunState::completed) *correct = false;
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      for (const Pending& p : pending) {
        if (!p.done) *correct = false;
        auto t = Clock::now();
        std::optional<std::string> records = svc.records_jsonl(p.id);
        records_us.push_back(micros_since(t));
        if (!records || *records != expected[p.plan]) *correct = false;

        service::HttpRequest request;
        request.method = "GET";
        request.target = request.path = "/v1/fleets/" + p.id;
        t = Clock::now();
        service::HttpResponse response = service::route_request(svc, request);
        route_us.push_back(micros_since(t));
        if (response.status != 200) *correct = false;
      }
    }
  }
  remove_tree(state_dir);
  sweep.time("service.submit_us", submit_us);
  sweep.time("service.queue_wait_ms", queue_ms, "ms");
  sweep.time("service.run_exec_ms", exec_ms, "ms");
  sweep.time("service.records_us", records_us);
  sweep.time("service.route_status_us", route_us);

  std::vector<double> scrape_us;
  for (int rep = 0; rep < 30; ++rep) {
    auto t = Clock::now();
    std::string text = obs::prometheus_text();
    scrape_us.push_back(micros_since(t));
  }
  sweep.time("obs.scrape_us", scrape_us);
}

}  // namespace

Result run_layers(const Options& options) {
  const bool daemon = options.workload == "daemon";
  if (daemon) {
    // As the daemon runs: metrics on before any worker thread exists.
    obs::Config config;
    config.metrics = true;
    obs::enable(config);
  }
  Inputs in = make_inputs(options);
  bool correct = true;

  // The first sweep warms arenas, pools and lazily built tables; the second
  // is the one reported, so its counts are steady-state and repeatable.
  {
    Sweep warm_up;
    probe_layers(in, warm_up, &correct);
  }
  Sweep sweep;
  probe_layers(in, sweep, &correct);
  fleet_layers(in, options, sweep, &correct);
  service_layers(in, options, sweep, &correct);

  // The workload itself, traced, for the tracing overhead.
  double traced_rate = 0;
  std::size_t traced_spans = 0;
  if (!options.counts_only) {
    Options traced = options;
    traced.seconds = std::max(1.0, options.seconds / 2);
    const auto from = now_ns();
    BatchWorkload batch;
    Result e2e = batch_workload(options.workload, options.smoke, &batch)
                     ? run_batch(traced, batch)
                     : run_daemon(traced);
    traced_spans = span_stats(from, now_ns()).spans;
    correct = correct && e2e.correct;
    for (const Metric& m : e2e.metrics)
      if (m.name == "probes_per_s") traced_rate = m.value;
  }
  sweep.out.add("trace.traced_probes_per_s", traced_rate, "1/s");
  sweep.out.add("trace.overhead",
                options.untraced_probes_per_s > 0 && traced_rate > 0
                    ? 1.0 - traced_rate / options.untraced_probes_per_s
                    : 0.0,
                "ratio");
  sweep.out.add("trace.spans", static_cast<double>(traced_spans), "count");

  write_trace(options.work_dir + "/trace-" + options.workload + ".json");

  Result result = std::move(sweep.out);
  result.correct = correct;
  result.attempted = in.sample.size() + in.fleet.size() * 2;
  result.failed = correct ? 0 : 1;
  std::string exact = "exact:";
  for (const Metric& m : result.metrics)
    if (m.exact) exact += " " + m.name;
  result.notes.push_back(options.workload + ": traced run over " + std::to_string(in.fleet.size()) +
                         " probes (sample " + std::to_string(in.sample.size()) + ")");
  result.notes.push_back(exact);
  return result;
}

}  // namespace perfbench
