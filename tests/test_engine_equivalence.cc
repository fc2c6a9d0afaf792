// The refactor's central promise: the batched engine and the historical
// sequential loop produce byte-identical evidence. Checked three ways —
// the full scenario corpus through SimTransport under both engines, the
// UdpEngine against UdpTransport over real loopback sockets, and the
// cancellation path (a drained batch reports honest timeouts and skipped
// stages, never fabricated answers).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "atlas/scenario.h"
#include "scenario_corpus.h"
#include "core/describe.h"
#include "core/mapped_transport.h"
#include "core/pipeline.h"
#include "dnswire/debug_queries.h"
#include "sockets/loopback_server.h"
#include "sockets/udp_engine.h"
#include "sockets/udp_transport.h"

namespace dnslocate {
namespace {

using namespace std::chrono_literals;
using atlas::CpeStyle;
using atlas::Scenario;
using atlas::ScenarioConfig;
using core::LocalizationPipeline;
using resolvers::PublicResolverKind;

using testing_corpus::Case;
using testing_corpus::corpus;
using testing_corpus::signature;

/// Run one scenario through the chosen engine. Each call builds a fresh
/// world from the config, so both engines see bit-identical simulations.
core::ProbeVerdict run_with(const ScenarioConfig& config, bool async) {
  Scenario scenario(config);
  LocalizationPipeline pipeline(scenario.pipeline_config());
  if (async) return pipeline.run(scenario.transport());
  core::BlockingBatchAdapter blocking(scenario.transport());
  return pipeline.run(blocking);
}

TEST(EngineEquivalence, SimCorpusVerdictsAreByteIdentical) {
  for (const Case& c : corpus()) {
    auto blocking = run_with(c.config, /*async=*/false);
    auto async = run_with(c.config, /*async=*/true);
    EXPECT_EQ(signature(blocking), signature(async)) << c.name;
  }
}

TEST(EngineEquivalence, AsyncEngineStillMatchesGroundTruth) {
  // Equality alone could hide two engines that are identically wrong; pin a
  // few corpus verdicts to the simulator's ground truth under the async path.
  for (const Case& c : corpus()) {
    Scenario scenario(c.config);
    if (scenario.ground_truth().expected == core::InterceptorLocation::unknown) continue;
    auto verdict = run_with(c.config, /*async=*/true);
    EXPECT_EQ(verdict.location, scenario.ground_truth().expected) << c.name;
  }
}

TEST(EngineEquivalence, UdpEngineMatchesUdpTransportOverLoopback) {
  resolvers::ResolverConfig behavior;
  behavior.software = resolvers::custom_string("engine-check");
  sockets::LoopbackDnsServer server(std::make_shared<resolvers::ResolverBehavior>(behavior));

  core::QueryOptions options;
  options.timeout = 1500ms;
  auto query = dnswire::make_chaos_query(0x1234, dnswire::version_bind());

  sockets::UdpTransport udp;
  auto blocking = udp.query(server.endpoint(), query, options);
  sockets::UdpEngine engine;
  auto batched = engine.query(server.endpoint(), query, options);

  ASSERT_TRUE(blocking.answered());
  ASSERT_TRUE(batched.answered());
  EXPECT_EQ(blocking.response->first_txt(), "engine-check");
  EXPECT_EQ(batched.response->first_txt(), blocking.response->first_txt());
  EXPECT_EQ(batched.retry.attempts, blocking.retry.attempts);
  EXPECT_EQ(batched.retry.timeouts, blocking.retry.timeouts);
  EXPECT_EQ(batched.all_responses.size(), blocking.all_responses.size());
}

TEST(EngineEquivalence, BatchOverlapsQueriesInsteadOfSummingDelays) {
  // Six queries against a server that delays every answer by 100ms and then
  // each sits out the 200ms duplicate window: sequentially that is ~1.8s,
  // in one fan-out it is the max (~0.3s). The generous 1s bound still only
  // passes if the queries genuinely overlapped.
  resolvers::ResolverConfig behavior;
  behavior.software = resolvers::custom_string("overlap");
  sockets::LoopbackDnsServer server(std::make_shared<resolvers::ResolverBehavior>(behavior),
                                    /*serve_tcp=*/false, 100ms);

  sockets::UdpEngine engine;
  core::QueryOptions options;
  options.timeout = 2000ms;
  core::QueryBatch batch;
  for (std::uint16_t i = 0; i < 6; ++i)
    batch.add(server.endpoint(), dnswire::make_chaos_query(static_cast<std::uint16_t>(0x2000 + i),
                                                           dnswire::version_bind()),
              options);

  auto start = std::chrono::steady_clock::now();
  engine.run(batch);
  auto elapsed = std::chrono::steady_clock::now() - start;

  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch.result(i).answered()) << "slot " << i;
    EXPECT_EQ(batch.result(i).response->first_txt(), "overlap");
  }
  EXPECT_FALSE(batch.drained());
  EXPECT_LT(elapsed, 1000ms);
  EXPECT_EQ(server.queries_served(), 6u);
}

TEST(EngineEquivalence, CancellationMidBatchDrainsWithHonestTimeouts) {
  // Answers are held back for 600ms but the token expires at 100ms: the
  // engine must abandon the in-flight queries promptly, report them as
  // timeouts (the attempt WAS sent), and mark the batch drained — without
  // waiting out the 5s per-query timeout and without inventing answers.
  resolvers::ResolverConfig behavior;
  behavior.software = resolvers::custom_string("too-late");
  sockets::LoopbackDnsServer server(std::make_shared<resolvers::ResolverBehavior>(behavior),
                                    /*serve_tcp=*/false, 600ms);

  sockets::UdpEngine engine;
  core::QueryOptions options;
  options.timeout = 5000ms;
  options.cancel = core::CancelToken::after(100ms);
  core::QueryBatch batch;
  for (std::uint16_t i = 0; i < 4; ++i)
    batch.add(server.endpoint(), dnswire::make_chaos_query(static_cast<std::uint16_t>(0x3000 + i),
                                                           dnswire::version_bind()),
              options);

  auto start = std::chrono::steady_clock::now();
  engine.run(batch);
  auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_TRUE(batch.drained());
  EXPECT_LT(elapsed, 500ms);  // drained at the next cancel slice, not at 5s
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& result = batch.result(i);
    EXPECT_FALSE(result.answered()) << "slot " << i;
    EXPECT_FALSE(result.response.has_value());
    EXPECT_TRUE(result.all_responses.empty());
    EXPECT_EQ(result.retry.attempts, 1u);
    EXPECT_GE(result.retry.timeouts, 1u);
  }
}

TEST(EngineEquivalence, PreCancelledBatchNeverTouchesTheWire) {
  sockets::UdpEngine engine;
  core::QueryOptions options;
  options.cancel = core::CancelToken::manual();
  options.cancel.cancel();
  core::QueryBatch batch;
  batch.add({*netbase::IpAddress::parse("127.0.0.1"), 9},
            dnswire::make_chaos_query(1, dnswire::version_bind()), options);
  batch.add({*netbase::IpAddress::parse("127.0.0.1"), 9},
            dnswire::make_chaos_query(2, dnswire::version_bind()), options);

  engine.run(batch);

  EXPECT_TRUE(batch.drained());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_FALSE(batch.result(i).answered());
    // Nothing hit the wire: no timeout was ever observed. (Both engines
    // report the RetryTelemetry default of one nominal attempt here —
    // UdpTransport breaks out of its attempt loop the same way.)
    EXPECT_EQ(batch.result(i).retry.attempts, 1u);
    EXPECT_EQ(batch.result(i).retry.timeouts, 0u);
  }
}

TEST(EngineEquivalence, PipelineOverEngineSkipsDrainedStages) {
  // Full pipeline over the async engine with a budget that expires while
  // detection's batch is in flight (answers arrive at 600ms, token dies at
  // 120ms): the drained detection stage is marked skipped, the tail never
  // runs, and the partial verdict claims nothing it did not observe.
  resolvers::ResolverConfig alternate;
  alternate.software = resolvers::dnsmasq("2.78");
  alternate.egress_v4 = *netbase::IpAddress::parse("127.0.0.1");
  sockets::LoopbackDnsServer interceptor(
      std::make_shared<resolvers::ResolverBehavior>(alternate), /*serve_tcp=*/false, 600ms);

  sockets::UdpEngine engine;
  core::MappedBatchTransport transport(engine);
  for (PublicResolverKind kind : resolvers::all_public_resolvers())
    transport.map_address(resolvers::PublicResolverSpec::get(kind).service_v4[0],
                          interceptor.endpoint());

  core::PipelineConfig config;
  config.detection.test_v6 = false;
  config.detection.use_secondary_addresses = false;
  core::QueryOptions slow;
  slow.timeout = 5000ms;
  config.detection.query = slow;
  config.cpe_public_ip = *netbase::IpAddress::parse("203.0.113.7");

  LocalizationPipeline pipeline(config);
  auto start = std::chrono::steady_clock::now();
  auto verdict = pipeline.run(transport, core::CancelToken::after(120ms));
  auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_LT(elapsed, 1000ms);
  EXPECT_TRUE(verdict.partial());
  EXPECT_TRUE(verdict.stage_skipped(core::PipelineStage::detection));
  EXPECT_TRUE(verdict.stage_skipped(core::PipelineStage::cpe_check));
  EXPECT_TRUE(verdict.stage_skipped(core::PipelineStage::bogon));
  EXPECT_TRUE(verdict.stage_skipped(core::PipelineStage::transparency));
  // Nothing answered, so nothing is claimed beyond "no evidence".
  EXPECT_EQ(verdict.location, core::InterceptorLocation::not_intercepted);
  EXPECT_EQ(verdict.telemetry.answered, 0u);
  EXPECT_FALSE(verdict.cpe_check.has_value());
  EXPECT_FALSE(verdict.bogon.has_value());
  EXPECT_FALSE(verdict.transparency.has_value());
}

}  // namespace
}  // namespace dnslocate
