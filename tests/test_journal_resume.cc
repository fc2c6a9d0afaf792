// The checkpoint journal and resume path: record round trips, kill-and-
// resume byte-identity against an uninterrupted run, and salvage of
// truncated / corrupted / mismatched journals.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "atlas/fleet_json.h"
#include "atlas/journal.h"
#include "atlas/measurement.h"
#include "jsonio/json.h"
#include "report/html_report.h"
#include "report/results_io.h"
#include "resolvers/public_resolver.h"

namespace dnslocate {
namespace {

std::vector<atlas::ProbeSpec> study_fleet(std::uint64_t seed = 7) {
  std::string plan = R"({"seed": )" + std::to_string(seed) + R"(, "ipv6_fraction": 0.5,
    "orgs": [
      {"org": "TestNet", "asn": 64601, "country": "US", "probes": 24,
       "cpe_xb6": 2, "isp_allfour": 1, "one_intercepted": 1},
      {"org": "OtherNet", "asn": 64602, "country": "DE", "probes": 12,
       "cpe_custom": "weird-box 9"}
    ]})";
  auto parsed = atlas::fleet_from_json(plan);
  EXPECT_TRUE(parsed.ok());
  return parsed.generate();
}

std::string read_file(const std::string& path) {
  std::ifstream input(path);
  std::stringstream buffer;
  buffer << input.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream output(path, std::ios::trunc);
  output << text;
}

// --- Golden record shapes ---------------------------------------------------
//
// tests/golden/probe_records.{journal,export}.jsonl pin both byte shapes of a
// probe record: the checksummed journal line and the exported dataset line.
// They were recorded from the hand-written serializers the field-table codec
// replaced, and change only with a deliberate change of format.

atlas::ProbeRecord failed_record() {
  atlas::ProbeRecord failed;
  failed.probe_id = 77;
  failed.org = {"X (AS1)", 1, "US"};
  failed.outcome = atlas::ProbeOutcome::failed;
  failed.error = "injected crash";
  failed.verdict.skipped_stages = 0b110;
  for (auto kind : resolvers::all_public_resolvers())
    failed.verdict.detection.per_resolver[static_cast<std::size_t>(kind)].kind = kind;
  return failed;
}

atlas::ProbeRecord deadline_record() {
  atlas::ProbeRecord late;
  late.probe_id = 99;
  late.org = {"Y \"quoted\" (AS2)", 2, "BR"};
  late.outcome = atlas::ProbeOutcome::deadline_exceeded;
  late.error = "probe exceeded its deadline of 50ms\n\t\"partial\"\x01";
  late.verdict.skipped_stages = 0b111;
  for (auto kind : resolvers::all_public_resolvers())
    late.verdict.detection.per_resolver[static_cast<std::size_t>(kind)].kind = kind;
  return late;
}

// A crashed probe keeps its default-constructed verdict: every per_resolver
// entry carries the same display name, which both shapes collapse to one
// "detection" member, the last entry winning.
atlas::ProbeRecord crashed_record() {
  atlas::ProbeRecord crashed;
  crashed.probe_id = 100;
  crashed.org = {"Z (AS3)", 3, "JP"};
  crashed.outcome = atlas::ProbeOutcome::failed;
  crashed.error = "injected crash";
  return crashed;
}

// Every field set and every counter distinct, so a mis-wired accessor shows
// in the bytes. One counter sits at 2^53, the largest integer a JSON number
// (an IEEE double) carries exactly.
atlas::ProbeRecord distinct_record() {
  atlas::ProbeRecord r;
  r.probe_id = 4242;
  r.org = {"W \\back\\slash\x1f (AS4)", 4, "DE"};
  r.tested_v6 = true;
  r.elapsed = std::chrono::microseconds(123456);
  r.verdict.location = core::InterceptorLocation::contested;
  std::size_t i = 0;
  for (auto kind : resolvers::all_public_resolvers()) {
    auto& summary = r.verdict.detection.per_resolver[i];
    summary.kind = kind;
    summary.tested_v4 = i != 0;
    summary.tested_v6 = i != 1;
    summary.intercepted_v4 = i == 2;
    summary.intercepted_v6 = i == 3;
    summary.unreachable_v4 = i == 1;
    summary.unreachable_v6 = i == 0;
    ++i;
  }
  r.verdict.transparency.emplace().overall = core::TransparencyClass::status_modified;
  auto& check = r.verdict.cpe_check.emplace();
  check.cpe.answered = true;
  check.cpe.txt = "box \"v2\"\x7f";
  r.verdict.bogon.emplace().v4.tested = true;
  r.truth.cpe_intercepts = true;
  r.truth.isp_intercepts_v6 = true;
  r.truth.isp_answers_bogons = true;
  r.truth.expected = core::InterceptorLocation::isp;
  r.drops.by_hook = 1;
  r.drops.fault_burst = 2;
  r.drops.fault_random = 3;
  r.drops.link_loss = 4;
  r.drops.no_listener = 5;
  r.drops.no_route = 6;
  r.drops.queue_overflow = 7;
  r.drops.ttl_expired = 9007199254740992ull;
  r.faults.burst_drops = 11;
  r.faults.duplicated = 12;
  r.faults.jittered = 13;
  r.faults.random_drops = 14;
  r.faults.reordered = 15;
  r.faults.truncated = 16;
  r.verdict.telemetry.answered = 21;
  r.verdict.telemetry.attempts = 22;
  r.verdict.telemetry.queries = 23;
  r.verdict.telemetry.retries = 24;
  r.verdict.telemetry.timeouts = 25;
  return r;
}

std::vector<atlas::ProbeRecord> golden_records() {
  auto parsed = atlas::fleet_from_json(R"json({"seed": 11, "ipv6_fraction": 0.5, "orgs": [
      {"org": "GoldenNet", "asn": 64601, "country": "US", "probes": 10,
       "cpe_xb6": 2, "isp_allfour": 1, "isp_allfour_nobogon": 1, "external": 1,
       "one_intercepted": 1}]})json");
  EXPECT_TRUE(parsed.ok());
  std::vector<atlas::ProbeRecord> records;
  for (const auto& spec : parsed.generate()) {
    records.push_back(atlas::run_probe(spec, {}, true));
    records.back().elapsed = std::chrono::microseconds(1000 + records.back().probe_id);
  }
  records.push_back(failed_record());
  records.push_back(deadline_record());
  records.push_back(crashed_record());
  records.push_back(distinct_record());
  return records;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream input(text);
  for (std::string line; std::getline(input, line);) lines.push_back(line);
  return lines;
}

/// Journal lines as JournalWriter writes them, header dropped.
std::vector<std::string> journal_lines(const std::vector<atlas::ProbeRecord>& records) {
  std::string path = testing::TempDir() + "golden_shapes.journal";
  {
    atlas::JournalWriter writer(path, {1, 0, records.size()});
    for (const auto& record : records) writer.append(record);
  }
  auto lines = split_lines(read_file(path));
  std::remove(path.c_str());
  if (!lines.empty()) lines.erase(lines.begin());
  return lines;
}

std::vector<std::string> export_lines(const std::vector<atlas::ProbeRecord>& records) {
  atlas::MeasurementRun run;
  run.records = records;
  return split_lines(report::run_to_jsonl(run));
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

void check_golden(const std::string& name, const std::vector<std::string>& live) {
  const std::string path = std::string(DNSLOCATE_GOLDEN_DIR) + "/" + name;
  std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << path;
  EXPECT_EQ(join_lines(live), golden) << name << " drifted from the recorded shape";
}

TEST(GoldenShapes, RecordSetCoversEveryField) {
  auto records = golden_records();
  std::set<core::InterceptorLocation> locations;
  bool version_bind = false, bogon = false, transparency = false;
  for (const auto& record : records) {
    if (record.outcome != atlas::ProbeOutcome::ok) continue;
    locations.insert(record.verdict.location);
    version_bind |= record.verdict.cpe_check && record.verdict.cpe_check->cpe.has_string();
    bogon |= record.verdict.bogon.has_value();
    transparency |= record.verdict.transparency.has_value();
  }
  EXPECT_EQ(locations.count(core::InterceptorLocation::not_intercepted), 1u);
  EXPECT_EQ(locations.count(core::InterceptorLocation::cpe), 1u);
  EXPECT_EQ(locations.count(core::InterceptorLocation::isp), 1u);
  EXPECT_EQ(locations.count(core::InterceptorLocation::unknown), 1u);
  EXPECT_TRUE(version_bind);
  EXPECT_TRUE(bogon);
  EXPECT_TRUE(transparency);
}

std::vector<std::string> golden_lines(const std::string& name) {
  return split_lines(read_file(std::string(DNSLOCATE_GOLDEN_DIR) + "/" + name));
}

/// The first golden line (the seeded fleet's first CPE probe), "" if missing.
std::string first_golden_line(const std::string& name) {
  auto lines = golden_lines(name);
  return lines.empty() ? std::string() : lines[0];
}

constexpr std::string_view kJournalHeader =
    R"({"fingerprint":"0000000000000000","fleet_size":0,"format":"dnslocate-journal","version":1})";

/// The record object inside a journal line.
std::string record_of(const std::string& journal_line) {
  const std::string prefix = R"({"crc":"0123456789abcdef","record":)";
  return journal_line.substr(prefix.size(), journal_line.size() - prefix.size() - 1);
}

/// A journal line around `record_json` whose checksum (FNV-1a 64 over the
/// record's JSON) is valid, so only the record codec can reject it.
std::string checksummed_line(const std::string& record_json) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : record_json) h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ull;
  char crc[17];
  std::snprintf(crc, sizeof crc, "%016llx", static_cast<unsigned long long>(h));
  return std::string(R"({"crc":")") + crc + R"(","record":)" + record_json + "}";
}

TEST(GoldenShapes, EmittersMatchTheRecordedBytes) {
  auto records = golden_records();
  check_golden("probe_records.journal.jsonl", journal_lines(records));
  check_golden("probe_records.export.jsonl", export_lines(records));
}

// The journal loader checks each checksum against the dump of the parsed
// record object, so the emitter's bytes must be jsonio's canonical form.
TEST(GoldenShapes, LinesAreInCanonicalForm) {
  auto journal = golden_lines("probe_records.journal.jsonl");
  auto exported = golden_lines("probe_records.export.jsonl");
  ASSERT_EQ(journal.size(), exported.size());
  for (const auto& line : journal) {
    EXPECT_EQ(checksummed_line(record_of(line)), line);
    auto parsed = jsonio::parse(record_of(line));
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->dump(), record_of(line));
  }
  for (const auto& line : exported) {
    auto parsed = jsonio::parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->dump(), line);
  }
}

TEST(GoldenShapes, ParseThenEmitReproducesEachLine) {
  auto journal = golden_lines("probe_records.journal.jsonl");
  auto exported = golden_lines("probe_records.export.jsonl");
  auto live = golden_records();

  auto loaded = atlas::parse_journal(std::string(kJournalHeader) + "\n" + join_lines(journal));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.damaged, 0u);
  ASSERT_EQ(loaded.records.size(), live.size());
  EXPECT_EQ(journal_lines(loaded.records), journal);
  // The dataset shape is a projection of the journal shape.
  EXPECT_EQ(export_lines(loaded.records), exported);
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(loaded.records[i].probe_id, live[i].probe_id);
    EXPECT_EQ(loaded.records[i].elapsed, live[i].elapsed);
    EXPECT_EQ(loaded.records[i].outcome, live[i].outcome);
    EXPECT_EQ(loaded.records[i].error, live[i].error);
    EXPECT_EQ(loaded.records[i].verdict.skipped_stages, live[i].verdict.skipped_stages);
    EXPECT_EQ(loaded.records[i].drops.ttl_expired, live[i].drops.ttl_expired);
    EXPECT_EQ(loaded.records[i].verdict.telemetry.queries, live[i].verdict.telemetry.queries);
  }

  auto reloaded = report::run_from_jsonl(join_lines(exported));
  ASSERT_TRUE(reloaded.ok()) << reloaded.errors[0];
  EXPECT_EQ(export_lines(reloaded.run.records), exported);
}

// An unknown name is a damaged line, never a default: a dataset reloaded
// years later must not turn a crashed probe into a clean one.
TEST(GoldenShapes, UnknownNamesRejectTheLine) {
  const std::string journal = first_golden_line("probe_records.journal.jsonl");
  const std::string exported = first_golden_line("probe_records.export.jsonl");
  ASSERT_FALSE(journal.empty() || exported.empty());
  const std::pair<std::string, std::string> edits[] = {
      {R"("outcome":"ok")", R"("outcome":"crashed_badly")"},
      {R"("transparency":"transparent")", R"("transparency":"opaque")"},
      {R"("expected":"cpe")", R"("expected":"elsewhere")"},
  };
  for (const auto& [from, to] : edits) {
    std::string record = record_of(journal);
    ASSERT_NE(record.find(from), std::string::npos) << from;
    record.replace(record.find(from), from.size(), to);
    auto loaded =
        atlas::parse_journal(std::string(kJournalHeader) + "\n" + checksummed_line(record) + "\n");
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    EXPECT_EQ(loaded.damaged, 1u) << to;
    EXPECT_TRUE(loaded.records.empty()) << to;
    ASSERT_EQ(loaded.warnings.size(), 1u);
    EXPECT_NE(loaded.warnings[0].find("malformed record"), std::string::npos);

    // The dataset leaves out an ok outcome, so add the bad one.
    std::string line = exported;
    if (line.find(from) != std::string::npos) line.replace(line.find(from), from.size(), to);
    else line.insert(line.find(R"("probe_id")"), to + ",");
    auto reloaded = report::run_from_jsonl(line + "\n");
    EXPECT_TRUE(reloaded.run.records.empty()) << to;
    ASSERT_EQ(reloaded.errors.size(), 1u) << to;
  }
}

// A record without a location, or a journal record without an outcome,
// would otherwise default to a verdict and a clean run nobody measured.
TEST(GoldenShapes, MissingRequiredMembersRejectTheLine) {
  const std::string journal = first_golden_line("probe_records.journal.jsonl");
  ASSERT_FALSE(journal.empty());
  for (const std::string cut : {R"("location":"cpe",)", R"("outcome":"ok",)"}) {
    std::string record = record_of(journal);
    ASSERT_NE(record.find(cut), std::string::npos) << cut;
    record.erase(record.find(cut), cut.size());
    auto loaded =
        atlas::parse_journal(std::string(kJournalHeader) + "\n" + checksummed_line(record) + "\n");
    EXPECT_EQ(loaded.damaged, 1u) << cut;
    EXPECT_TRUE(loaded.records.empty()) << cut;
  }
  std::string line = first_golden_line("probe_records.export.jsonl");
  const std::string cut = R"("location":"cpe",)";
  ASSERT_NE(line.find(cut), std::string::npos);
  line.erase(line.find(cut), cut.size());
  auto reloaded = report::run_from_jsonl(line + "\n");
  EXPECT_TRUE(reloaded.run.records.empty());
  EXPECT_EQ(reloaded.errors.size(), 1u);
}

TEST(GoldenShapes, BadNumbersRejectTheLine) {
  const std::string exported = first_golden_line("probe_records.export.jsonl");
  const std::string from = R"("probe_id":1000)";
  ASSERT_NE(exported.find(from), std::string::npos);
  for (const char* bad : {R"("probe_id":4294967297)", R"("probe_id":2.75)", R"("probe_id":-1)",
                          R"("probe_id":1e300)", R"("probe_id":"1000")"}) {
    std::string line = exported;
    line.replace(line.find(from), from.size(), bad);
    auto reloaded = report::run_from_jsonl(line + "\n");
    EXPECT_TRUE(reloaded.run.records.empty()) << bad;
    ASSERT_EQ(reloaded.errors.size(), 1u) << bad;
    EXPECT_NE(reloaded.errors[0].find("probe_id"), std::string::npos) << reloaded.errors[0];
  }
}

TEST(Journal, KillAndResumeIsByteIdentical) {
  auto fleet = study_fleet();
  auto baseline = atlas::run_fleet(fleet, {});
  std::string baseline_jsonl = report::run_to_jsonl(baseline);
  std::string baseline_html = report::html_report(baseline);

  // "Kill" the run deterministically: three rigged probes throw and
  // max_failures stops the campaign partway, journal intact.
  std::string journal = testing::TempDir() + "kill_resume.journal";
  std::set<std::uint32_t> rigged = {fleet[5].probe_id, fleet[12].probe_id,
                                    fleet[20].probe_id};
  atlas::MeasurementOptions interrupted;
  interrupted.threads = 1;
  interrupted.max_failures = 3;
  interrupted.journal_path = journal;
  interrupted.runner = [&rigged](const atlas::ProbeSpec& spec,
                                 const core::CancelToken& token) {
    if (rigged.count(spec.probe_id) != 0) throw std::runtime_error("injected crash");
    return atlas::run_probe(spec, token, true);
  };
  auto partial = atlas::run_fleet(fleet, interrupted);
  EXPECT_TRUE(partial.stopped_early());
  EXPECT_EQ(partial.count_outcome(atlas::ProbeOutcome::failed), 3u);
  EXPECT_GT(partial.not_run, 0u);

  // Resume with the default (healthy) runner: journaled ok records are
  // reused, the rigged failures get a fresh attempt, the rest run anew.
  atlas::ResumeReport resume_report;
  auto resumed = atlas::resume_fleet(journal, fleet, {}, &resume_report);
  EXPECT_TRUE(resume_report.journal_matched);
  EXPECT_GT(resume_report.reused, 0u);
  EXPECT_EQ(resume_report.rerun_failed, 3u);
  EXPECT_EQ(resume_report.damaged, 0u);
  EXPECT_EQ(resumed.not_run, 0u);
  EXPECT_EQ(resumed.records.size(), fleet.size());

  // Byte-identical to the uninterrupted run, through both export paths.
  EXPECT_EQ(report::run_to_jsonl(resumed), baseline_jsonl);
  EXPECT_EQ(report::html_report(resumed), baseline_html);

  // A resumed run keeps journaling: the journal now covers the whole fleet
  // and can seed another resume that re-runs nothing.
  atlas::ResumeReport second;
  auto again = atlas::resume_fleet(journal, fleet, {}, &second);
  EXPECT_EQ(second.reused, fleet.size());
  EXPECT_EQ(second.rerun_failed, 0u);
  EXPECT_EQ(report::run_to_jsonl(again), baseline_jsonl);
  std::remove(journal.c_str());
}

TEST(Journal, TruncatedFinalLineIsSalvaged) {
  auto fleet = study_fleet();
  std::string journal = testing::TempDir() + "truncated.journal";
  atlas::MeasurementOptions options;
  options.journal_path = journal;
  auto baseline = atlas::run_fleet(fleet, options);

  // A crash mid-append leaves a partial final line (no trailing newline).
  std::string text = read_file(journal);
  ASSERT_FALSE(text.empty());
  text.resize(text.size() - 25);
  write_file(journal, text);

  auto loaded = atlas::load_journal(journal);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.damaged, 1u);
  EXPECT_EQ(loaded.records.size(), fleet.size() - 1);
  ASSERT_FALSE(loaded.warnings.empty());

  // Resume salvages everything intact and re-runs only the lost probe.
  atlas::ResumeReport resume_report;
  auto resumed = atlas::resume_fleet(journal, fleet, {}, &resume_report);
  EXPECT_TRUE(resume_report.journal_matched);
  EXPECT_EQ(resume_report.reused, fleet.size() - 1);
  EXPECT_EQ(resume_report.damaged, 1u);
  EXPECT_EQ(report::run_to_jsonl(resumed), report::run_to_jsonl(baseline));
  std::remove(journal.c_str());
}

TEST(Journal, CorruptedChecksumIsDetected) {
  auto fleet = study_fleet();
  std::string journal = testing::TempDir() + "corrupt.journal";
  atlas::MeasurementOptions options;
  options.journal_path = journal;
  auto baseline = atlas::run_fleet(fleet, options);

  // Bit-rot inside the second record's body: its checksum no longer matches.
  std::string text = read_file(journal);
  std::size_t line2 = text.find('\n', text.find('\n') + 1) + 1;
  std::size_t field = text.find("\"probe_id\":", line2);
  ASSERT_NE(field, std::string::npos);
  std::size_t digit = field + std::string("\"probe_id\":").size();
  text[digit] = text[digit] == '9' ? '8' : static_cast<char>(text[digit] + 1);
  write_file(journal, text);

  auto loaded = atlas::load_journal(journal);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.damaged, 1u);
  EXPECT_EQ(loaded.records.size(), fleet.size() - 1);
  ASSERT_FALSE(loaded.warnings.empty());
  EXPECT_NE(loaded.warnings[0].find("checksum"), std::string::npos);

  // The damaged record is simply re-measured on resume.
  atlas::ResumeReport resume_report;
  auto resumed = atlas::resume_fleet(journal, fleet, {}, &resume_report);
  EXPECT_EQ(resume_report.reused, fleet.size() - 1);
  EXPECT_EQ(report::run_to_jsonl(resumed), report::run_to_jsonl(baseline));
  std::remove(journal.c_str());
}

TEST(Journal, MismatchedFleetInvalidatesJournal) {
  auto fleet_a = study_fleet(7);
  auto fleet_b = study_fleet(8);
  ASSERT_NE(atlas::fleet_fingerprint(fleet_a), atlas::fleet_fingerprint(fleet_b));

  std::string journal = testing::TempDir() + "mismatch.journal";
  atlas::MeasurementOptions options;
  options.journal_path = journal;
  atlas::run_fleet(fleet_a, options);

  // Resuming a *different* study from this journal must not mix records.
  auto baseline_b = atlas::run_fleet(fleet_b, {});
  atlas::ResumeReport resume_report;
  auto resumed = atlas::resume_fleet(journal, fleet_b, {}, &resume_report);
  EXPECT_FALSE(resume_report.journal_matched);
  EXPECT_EQ(resume_report.reused, 0u);
  ASSERT_FALSE(resume_report.warnings.empty());
  EXPECT_NE(resume_report.warnings[0].find("fingerprint"), std::string::npos);
  EXPECT_EQ(report::run_to_jsonl(resumed), report::run_to_jsonl(baseline_b));
  std::remove(journal.c_str());
}

TEST(Journal, MissingJournalRunsFromScratch) {
  auto fleet = study_fleet();
  std::string journal = testing::TempDir() + "does_not_exist.journal";
  std::remove(journal.c_str());

  atlas::ResumeReport resume_report;
  auto resumed = atlas::resume_fleet(journal, fleet, {}, &resume_report);
  EXPECT_FALSE(resume_report.journal_matched);
  EXPECT_EQ(resume_report.reused, 0u);
  ASSERT_FALSE(resume_report.warnings.empty());
  EXPECT_EQ(resumed.records.size(), fleet.size());

  // The path is adopted for checkpointing, so the run is now resumable.
  auto loaded = atlas::load_journal(journal);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.records.size(), fleet.size());
  std::remove(journal.c_str());
}

TEST(ResultsIo, SupervisionFieldsRoundTripThroughJsonl) {
  auto fleet = study_fleet();
  atlas::MeasurementRun run;
  run.records.push_back(atlas::run_probe(fleet[0], {}, true));

  atlas::ProbeRecord failed;
  failed.probe_id = 4242;
  failed.org = {"X (AS1)", 1, "US"};
  failed.outcome = atlas::ProbeOutcome::failed;
  failed.error = "injected crash";
  for (auto kind : resolvers::all_public_resolvers())
    failed.verdict.detection.per_resolver[static_cast<std::size_t>(kind)].kind = kind;
  run.records.push_back(failed);

  atlas::ProbeRecord late = run.records[0];
  late.probe_id = 4243;
  late.outcome = atlas::ProbeOutcome::deadline_exceeded;
  late.error = "probe exceeded its deadline of 50ms";
  late.verdict.skipped_stages = 0b100;
  run.records.push_back(late);

  std::string jsonl = report::run_to_jsonl(run);
  // Clean records carry no supervision noise (old exports stay identical).
  std::size_t first_newline = jsonl.find('\n');
  EXPECT_EQ(jsonl.substr(0, first_newline).find("outcome"), std::string::npos);

  auto loaded = report::run_from_jsonl(jsonl);
  ASSERT_TRUE(loaded.errors.empty());
  ASSERT_EQ(loaded.run.records.size(), 3u);
  EXPECT_EQ(loaded.run.records[0].outcome, atlas::ProbeOutcome::ok);
  EXPECT_EQ(loaded.run.records[1].outcome, atlas::ProbeOutcome::failed);
  EXPECT_EQ(loaded.run.records[1].error, "injected crash");
  EXPECT_EQ(loaded.run.records[2].outcome, atlas::ProbeOutcome::deadline_exceeded);
  EXPECT_EQ(loaded.run.records[2].verdict.skipped_stages, 0b100);
  // The reload reproduces the same bytes.
  EXPECT_EQ(report::run_to_jsonl(loaded.run), jsonl);
}

}  // namespace
}  // namespace dnslocate
