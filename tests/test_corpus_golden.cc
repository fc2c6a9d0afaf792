// Golden pin for the 13-scenario equivalence corpus: the rendered evidence
// signatures are checked into tests/golden/scenario_signatures.txt and every
// run diffs the live signatures (blocking AND async engines) against that
// file. test_engine_equivalence proves the two engines agree with each other;
// this suite proves they both still agree with the *recorded* pre-refactor
// bytes, so a refactor that drifts the evidence trail fails loudly instead of
// silently re-pinning equivalence at the new behaviour.
//
// Regeneration (deliberate behaviour changes only):
//   DNSLOCATE_UPDATE_GOLDEN=1 ./build/tests/test_corpus_golden
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "atlas/scenario.h"
#include "scenario_corpus.h"
#include "core/pipeline.h"

namespace dnslocate {
namespace {

using atlas::Scenario;
using atlas::ScenarioConfig;
using core::LocalizationPipeline;
using testing_corpus::Case;
using testing_corpus::corpus;
using testing_corpus::signature;

core::ProbeVerdict run_with(const ScenarioConfig& config, bool async) {
  Scenario scenario(config);
  LocalizationPipeline pipeline(scenario.pipeline_config());
  if (async) return pipeline.run(scenario.transport());
  core::BlockingBatchAdapter blocking(scenario.transport());
  return pipeline.run(blocking);
}

/// Render the whole corpus as one diffable document. One block per case,
/// delimited so a textual diff names the scenario that drifted.
std::string render_corpus(bool async) {
  std::ostringstream out;
  for (const Case& c : corpus()) {
    out << "=== " << c.name << " ===\n";
    out << signature(run_with(c.config, async)) << "\n";
  }
  return out.str();
}

std::string read_golden() {
  std::ifstream file(DNSLOCATE_GOLDEN_SIGNATURES);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(CorpusGolden, BlockingEngineMatchesRecordedSignatures) {
  std::string live = render_corpus(/*async=*/false);
  if (std::getenv("DNSLOCATE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(DNSLOCATE_GOLDEN_SIGNATURES);
    ASSERT_TRUE(file.good()) << "cannot write " << DNSLOCATE_GOLDEN_SIGNATURES;
    file << live;
    GTEST_SKIP() << "golden regenerated at " << DNSLOCATE_GOLDEN_SIGNATURES;
  }
  std::string golden = read_golden();
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << DNSLOCATE_GOLDEN_SIGNATURES
      << " — regenerate with DNSLOCATE_UPDATE_GOLDEN=1";
  EXPECT_EQ(live, golden)
      << "evidence signatures drifted from the recorded corpus; if the change "
         "is deliberate, regenerate with DNSLOCATE_UPDATE_GOLDEN=1";
}

TEST(CorpusGolden, AsyncEngineMatchesRecordedSignatures) {
  if (std::getenv("DNSLOCATE_UPDATE_GOLDEN") != nullptr)
    GTEST_SKIP() << "golden regenerated from the blocking engine";
  std::string golden = read_golden();
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << DNSLOCATE_GOLDEN_SIGNATURES
      << " — regenerate with DNSLOCATE_UPDATE_GOLDEN=1";
  EXPECT_EQ(render_corpus(/*async=*/true), golden)
      << "async engine signatures drifted from the recorded corpus";
}

}  // namespace
}  // namespace dnslocate
