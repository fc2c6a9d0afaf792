// The daemon workload: an in-process MeasurementService behind an
// HttpServer, configured as examples/dnslocated.cpp configures them, driven
// over loopback by two tenant clients in a closed loop. Each tenant submits
// a small intercept-heavy plan, follows /verdicts to its end, fetches the
// run's status and /records, and every few runs scrapes /metrics.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "atlas/fleet_json.h"
#include "bench.h"
#include "jsonio/json.h"
#include "obs/metrics.h"
#include "report/results_io.h"
#include "service/api.h"
#include "service/http_server.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Every kScrapeEvery-th run of a tenant also scrapes /metrics.
constexpr std::size_t kScrapeEvery = 4;
/// In-process probes timed between two rounds.
constexpr std::size_t kProbesPerRound = 8;

struct HttpReply {
  int status = 0;
  std::string body;  // chunked bodies decoded
};

bool decode_chunked(std::string_view wire, std::string* out) {
  std::size_t pos = 0;
  while (pos < wire.size()) {
    std::size_t line_end = wire.find("\r\n", pos);
    if (line_end == std::string_view::npos) return false;
    std::size_t size = std::strtoul(std::string(wire.substr(pos, line_end - pos)).c_str(),
                                    nullptr, 16);
    pos = line_end + 2;
    if (size == 0) return true;
    if (pos + size + 2 > wire.size()) return false;
    out->append(wire.substr(pos, size));
    pos += size + 2;
  }
  return false;
}

/// One request on its own connection (the server always closes after the
/// response). Returns status 0 on any transport or framing failure.
HttpReply http_call(std::uint16_t port, const std::string& method, const std::string& target,
                    const std::string& body = "") {
  HttpReply reply;
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  timeval timeout{30, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string wire;
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string request = http_request_bytes(method, target, body);
    std::size_t sent = 0;
    while (sent < request.size()) {
      ssize_t n = send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    char buffer[16 * 1024];
    for (;;) {
      ssize_t got = recv(fd, buffer, sizeof buffer, 0);
      if (got <= 0) break;
      wire.append(buffer, static_cast<std::size_t>(got));
    }
  }
  close(fd);

  std::size_t head_end = wire.find("\r\n\r\n");
  if (head_end == std::string::npos || wire.compare(0, 9, "HTTP/1.1 ") != 0) return reply;
  std::string head = wire.substr(0, head_end);
  std::string_view raw_body = std::string_view(wire).substr(head_end + 4);
  for (char& c : head) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (head.find("transfer-encoding: chunked") != std::string::npos) {
    if (!decode_chunked(raw_body, &reply.body)) return reply;
  } else {
    reply.body = std::string(raw_body);
  }
  reply.status = std::atoi(wire.c_str() + 9);
  return reply;
}

/// Samples one tenant client collects.
struct TenantLog {
  std::vector<double> turnaround_ms;
  std::vector<double> api_ms;
  std::uint64_t runs = 0;
  std::uint64_t ok = 0;
  std::uint64_t probes = 0;
};

/// One closed-loop run: submit, follow the verdict stream to its end, fetch
/// status and records. True when every request got its expected status and
/// the records equal the in-process reference byte for byte.
bool tenant_cycle(std::uint16_t port, const std::string& plan, const std::string& expected,
                  std::size_t probes, bool scrape, std::uint32_t trace_id, TenantLog& log) {
  // Latency samples of the requests that neither stream nor write: the
  // submission's latency is its manifest fsync, which the traced run
  // reports as service.submit_us.
  auto timed = [&](SpanName name, const std::string& method, const std::string& target) {
    TraceSpan span(name);
    auto start = Clock::now();
    HttpReply reply = http_call(port, method, target);
    log.api_ms.push_back(micros_since(start) / 1e3);
    return reply;
  };

  TraceSpan run_span(SpanName::daemon_run, trace_id);
  const auto start = Clock::now();
  HttpReply submitted;
  {
    TraceSpan span(SpanName::http_submit);
    submitted = http_call(port, "POST", "/v1/fleets", plan);
  }
  if (submitted.status != 202) return false;
  auto parsed = jsonio::parse(submitted.body);
  if (!parsed) return false;
  const std::string id = (*parsed)["id"].as_string();
  const std::string base = "/v1/fleets/" + id;

  HttpReply verdicts;
  {
    TraceSpan span(SpanName::http_verdicts);
    verdicts = http_call(port, "GET", base + "/verdicts");
  }
  std::size_t lines = 0;
  for (char c : verdicts.body) lines += c == '\n' ? 1 : 0;
  HttpReply status = timed(SpanName::http_status, "GET", base);
  HttpReply records = timed(SpanName::http_records, "GET", base + "/records");
  log.turnaround_ms.push_back(micros_since(start) / 1e3);

  bool ok = verdicts.status == 200 && lines == probes && status.status == 200 &&
            status.body.find("\"state\":\"completed\"") != std::string::npos &&
            records.status == 200 && records.body == expected;
  if (scrape) {
    HttpReply metrics = timed(SpanName::http_metrics, "GET", "/metrics");
    ok = ok && metrics.status == 200 && !metrics.body.empty();
  }
  return ok;
}

}  // namespace

service::ServiceConfig daemon_service_config(const std::string& state_dir) {
  service::ServiceConfig config;
  config.state_dir = state_dir;
  config.workers = 2;
  config.run_threads = 1;
  return config;
}

std::vector<std::string> daemon_plans(std::uint64_t seed, std::size_t per_tenant, int probes) {
  // Nine in ten probes intercept: CPE interceptors of three software
  // families, ISP middleboxes, and a partial pattern. CPE verdicts stop
  // before the bogon stage and are the cheaper class, so the mix of 24 CPE
  // to 8 ISP probes in 40 puts probe_p50_us inside the CPE class and
  // probe_p90_us inside the ISP class, not on the step between two classes.
  // Homes are IPv4-only, so per-probe times do not hinge on each plan's
  // random share of dual-stack homes (which double a probe's queries).
  const int q = probes / 10;
  std::vector<std::string> plans;
  for (int tenant = 0; tenant < kDaemonTenants; ++tenant) {
    for (std::size_t i = 0; i < per_tenant; ++i) {
      std::uint64_t plan_seed = (seed % 100000) * 1000 + static_cast<std::uint64_t>(tenant) * 100 + i;
      plans.push_back(
          "{\"seed\": " + std::to_string(plan_seed) + ", \"ipv6_fraction\": 0, \"tenant\": \"tenant-" +
          std::to_string(tenant) + "\", \"orgs\": [{\"org\": \"Bench ISP " +
          std::to_string(tenant) + "\", \"asn\": " + std::to_string(64600 + tenant) +
          ", \"country\": \"US\", \"probes\": " + std::to_string(probes) +
          ", \"cpe_dnsmasq\": " + std::to_string(3 * q) + ", \"cpe_xb6\": " + std::to_string(q) +
          ", \"cpe_pihole\": " + std::to_string(2 * q) + ", \"isp_allfour\": " +
          std::to_string(q) + ", \"isp_both\": " + std::to_string(q) +
          ", \"one_intercepted\": " + std::to_string(q) + "}]}");
    }
  }
  return plans;
}

atlas::MeasurementRun daemon_reference_run(const std::string& plan) {
  atlas::FleetJsonResult parsed = atlas::fleet_from_json(plan);
  if (!parsed.ok()) throw std::runtime_error("daemon plan does not parse: " + plan);
  atlas::MeasurementOptions options;
  options.strip_raw_responses = true;
  options.threads = 1;
  return atlas::run_fleet(parsed.generate(), options);
}

std::string http_request_bytes(const std::string& method, const std::string& target,
                               const std::string& body) {
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "Connection: close\r\n\r\n" + body;
  return request;
}

Result run_daemon(const Options& options) {
  Result result;
  // dnslocated turns metrics on before any worker thread exists.
  obs::Config obs_config;
  obs_config.metrics = true;
  obs::enable(obs_config);

  const std::vector<std::string> plans =
      daemon_plans(options.seed, options.smoke ? 1 : 6, options.smoke ? 10 : 40);
  auto handler_for = [](service::MeasurementService& svc) {
    return [&svc](const service::HttpRequest& request) {
      return service::route_request(svc, request);
    };
  };

  // Set-up: generate the plans' fleets and start the daemon. It is repeated
  // before the window and between rounds in it, so its median spans the run.
  std::vector<double> setup_s;
  std::vector<std::size_t> plan_probes;
  auto set_up = [&]() {
    const std::string dir = options.work_dir + "/daemon-setup";
    remove_tree(dir);
    auto start = Clock::now();
    plan_probes.clear();
    for (const std::string& plan : plans)
      plan_probes.push_back(atlas::fleet_from_json(plan).generate().size());
    {
      service::MeasurementService svc(daemon_service_config(dir));
      service::HttpServer server(service::HttpServer::Config{}, handler_for(svc));
      setup_s.push_back(seconds_since(start));
    }
    remove_tree(dir);
  };
  for (int rep = 0; rep < (options.smoke ? 1 : 8); ++rep) set_up();

  // References: the records of an in-process run of every plan.
  std::vector<std::string> expected;
  std::vector<atlas::ProbeSpec> probes;
  for (const std::string& plan : plans) {
    expected.push_back(report::run_to_jsonl(daemon_reference_run(plan)));
    for (atlas::ProbeSpec& spec : atlas::fleet_from_json(plan).generate())
      probes.push_back(std::move(spec));
  }
  if (options.corrupt_reference) expected.front().back() = '?';

  // The service exposes per-probe wall times only as a bucketed histogram,
  // so probe_p50_us/probe_p90_us come from ProbeRecord::elapsed of the
  // plans' probes run in-process between rounds, a few at a time, while the
  // daemon is idle: the samples span the window like the daemon's own.
  std::vector<double> probe_us;
  std::size_t next_probe = 0;
  auto sample_probes = [&]() {
    std::vector<atlas::ProbeSpec> batch;
    for (std::size_t i = 0; i < kProbesPerRound; ++i)
      batch.push_back(probes[next_probe++ % probes.size()]);
    atlas::MeasurementOptions run_options;
    run_options.threads = 1;
    for (const atlas::ProbeRecord& record : atlas::run_fleet(batch, run_options).records)
      probe_us.push_back(static_cast<double>(record.elapsed.count()));
  };

  const std::string state_dir = options.work_dir + "/daemon-state";
  remove_tree(state_dir);
  std::vector<TenantLog> logs(kDaemonTenants);
  double window_s = 0;
  {
    service::MeasurementService svc(daemon_service_config(state_dir));
    service::HttpServer server(service::HttpServer::Config{}, handler_for(svc));
    const std::uint16_t port = server.port();
    const std::size_t per_tenant = plans.size() / kDaemonTenants;

    // The tenants run in lockstep rounds: both submit, follow their streams
    // and fetch, and the next round starts when both are done, so no read
    // waits behind the other tenant's submission (its manifest fsync runs on
    // the server's event thread). Round 0 is a discarded warm-up.
    std::size_t started = 0;
    bool stop = false;
    Clock::time_point window;
    std::barrier sync(kDaemonTenants, [&]() noexcept {
      if (started == 1) window = Clock::now();
      if (started >= 3 && seconds_since(window) >= options.seconds) {
        stop = true;
        window_s = seconds_since(window);
      }
      if (started >= 1 && !stop) {
        // Between rounds, outside the timed requests; the window's
        // throughput and turnaround include this small, constant pause.
        sample_probes();
        if (started % kScrapeEvery == 0) set_up();
      }
      ++started;
    });
    auto client = [&](int tenant) {
      TenantLog& log = logs[static_cast<std::size_t>(tenant)];
      for (;;) {
        sync.arrive_and_wait();
        if (stop) break;
        const std::size_t round = started - 1;
        const std::size_t k = static_cast<std::size_t>(tenant) * per_tenant + round % per_tenant;
        TenantLog warm_up;
        TenantLog& into = round == 0 ? warm_up : log;
        bool ok = tenant_cycle(port, plans[k], expected[k], plan_probes[k],
                               round % kScrapeEvery == 0,
                               static_cast<std::uint32_t>(tenant * 1000000 + round + 1), into);
        if (round == 0) continue;
        ++log.runs;
        if (ok) {
          ++log.ok;
          log.probes += plan_probes[k];
        }
      }
    };
    std::vector<std::thread> tenants;
    for (int t = 0; t < kDaemonTenants; ++t) tenants.emplace_back(client, t);
    for (auto& thread : tenants) thread.join();
  }
  remove_tree(state_dir);

  TenantLog all;
  for (TenantLog& log : logs) {
    all.turnaround_ms.insert(all.turnaround_ms.end(), log.turnaround_ms.begin(),
                             log.turnaround_ms.end());
    all.api_ms.insert(all.api_ms.end(), log.api_ms.begin(), log.api_ms.end());
    all.runs += log.runs;
    all.ok += log.ok;
    all.probes += log.probes;
  }
  result.attempted = all.runs;
  result.failed = all.runs - all.ok;
  result.correct = result.failed == 0;
  result.notes.push_back("daemon: " + std::to_string(plans.size()) + " plans, " +
                         std::to_string(kDaemonTenants) + " tenant connections, " +
                         std::to_string(all.runs) + " timed runs after 1 warm-up run each");

  result.add("setup_s", median(setup_s), "s", setup_s.size());
  result.add("probes_per_s", static_cast<double>(all.probes) / window_s, "1/s");
  result.add("probe_p50_us", quantile(probe_us, 0.5), "us", probe_us.size());
  result.add("probe_p90_us", quantile(probe_us, 0.9), "us", probe_us.size());
  result.add("ok_ratio", static_cast<double>(all.ok) / static_cast<double>(all.runs), "ratio");
  result.add("peak_rss_mb", peak_rss_mib(), "MiB");
  result.add("run_turnaround_p50_ms", quantile(all.turnaround_ms, 0.5), "ms",
             all.turnaround_ms.size());
  result.add("run_turnaround_p90_ms", quantile(all.turnaround_ms, 0.9), "ms",
             all.turnaround_ms.size());
  result.add("api_p50_ms", quantile(all.api_ms, 0.5), "ms", all.api_ms.size());
  result.add("api_p90_ms", quantile(all.api_ms, 0.9), "ms", all.api_ms.size());
  return result;
}

}  // namespace perfbench
