#include "atlas/journal.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "atlas/record_codec.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace dnslocate::atlas {
namespace {

/// fsync the journal file, timing the call. Durability syncs are the one
/// genuinely slow operation on the checkpoint path, so their latency gets
/// its own histogram and span.
void fsync_journal(std::FILE* file) {
  obs::Span fsync_span("journal/fsync");
  if (obs::metrics_enabled()) {
    static obs::Counter& fsyncs = obs::registry().counter("journal_fsyncs_total");
    static obs::Histogram& fsync_us = obs::registry().histogram("journal_fsync_us");
    std::uint64_t start = obs::now_ns();
    ::fsync(::fileno(file));
    fsync_us.record_always((obs::now_ns() - start) / 1000);
    fsyncs.add_always(1);
    return;
  }
  ::fsync(::fileno(file));
}

using jsonio::Object;
using jsonio::Value;

constexpr std::string_view kFormatName = "dnslocate-journal";
constexpr std::uint32_t kFormatVersion = 1;

std::uint64_t fnv1a(std::string_view text, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (char c : text) h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ull;
  return h;
}

std::string to_hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

std::optional<std::uint64_t> from_hex(const std::string& text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return std::nullopt;
  }
  return value;
}

/// Field folding for the fleet fingerprint.
struct Fold {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void operator()(std::string_view s) {
    h = fnv1a(s, h);
    h = (h ^ 0x1f) * 0x100000001b3ull;  // delimit, so ("ab","c") != ("a","bc")
  }
  void operator()(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  void operator()(double d) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof d);
    std::memcpy(&bits, &d, sizeof bits);
    (*this)(bits);
  }
  void operator()(bool b) { (*this)(static_cast<std::uint64_t>(b)); }
};

Value header_to_json(const JournalHeader& header) {
  Object out;
  out["fingerprint"] = to_hex(header.fingerprint);
  out["fleet_size"] = header.fleet_size;
  out["format"] = std::string(kFormatName);
  out["version"] = static_cast<std::uint64_t>(header.version);
  return Value(std::move(out));
}

}  // namespace

std::uint64_t fleet_fingerprint(const std::vector<ProbeSpec>& fleet) {
  Fold fold;
  fold(static_cast<std::uint64_t>(fleet.size()));
  for (const ProbeSpec& spec : fleet) {
    fold(static_cast<std::uint64_t>(spec.probe_id));
    fold(spec.org.org);
    fold(static_cast<std::uint64_t>(spec.org.asn));
    fold(spec.org.country);
    const ScenarioConfig& sc = spec.scenario;
    fold(sc.seed);
    fold(sc.isp_name);
    fold(static_cast<std::uint64_t>(sc.asn));
    fold(static_cast<std::uint64_t>(sc.home_index));
    fold(static_cast<std::uint64_t>(sc.cpe.kind));
    fold(sc.cpe.version);
    fold(sc.cpe.identity ? *sc.cpe.identity : std::string_view("\x01"));
    fold(sc.isp_policy.middlebox_enabled);
    fold(sc.isp_policy.intercept_all_port53);
    fold(static_cast<std::uint64_t>(sc.isp_policy.target_actions.size()));
    for (const auto& [kind, action] : sc.isp_policy.target_actions) {
      fold(static_cast<std::uint64_t>(kind));
      fold(static_cast<std::uint64_t>(action));
    }
    fold(static_cast<std::uint64_t>(sc.isp_policy.target_actions_v6.size()));
    for (const auto& [kind, action] : sc.isp_policy.target_actions_v6) {
      fold(static_cast<std::uint64_t>(kind));
      fold(static_cast<std::uint64_t>(action));
    }
    fold(sc.isp_policy.scoped_answers_bogons);
    fold(sc.isp_policy.intercept_v4);
    fold(sc.isp_policy.intercept_v6);
    fold(sc.isp_policy.ignore_bogon_queries);
    fold(static_cast<std::uint64_t>(sc.blocking_rcode));
    fold(sc.external_interceptor);
    fold(sc.home_ipv6);
    fold(static_cast<std::uint64_t>(sc.site_index));
    fold(static_cast<std::uint64_t>(sc.instance));
    fold(sc.faults.p_good_to_bad);
    fold(sc.faults.p_bad_to_good);
    fold(sc.faults.loss_good);
    fold(sc.faults.loss_bad);
    fold(sc.faults.reorder_rate);
    fold(sc.faults.duplicate_rate);
    fold(sc.faults.truncate_rate);
    fold(static_cast<std::uint64_t>(sc.faults.jitter_max.count()));
    fold(static_cast<std::uint64_t>(sc.fault_classes.size()));
    for (const std::string& fault_class : sc.fault_classes) fold(fault_class);
    fold(sc.fault_seed);
    fold(static_cast<std::uint64_t>(sc.retry.max_attempts));
    fold(static_cast<std::uint64_t>(sc.retry.initial_backoff.count()));
    fold(sc.retry.backoff_multiplier);
    fold(static_cast<std::uint64_t>(sc.retry.max_backoff.count()));
    fold(sc.retry.fresh_id_per_attempt);
    fold(sc.retry.rerandomize_0x20);
  }
  return fold.h;
}

JournalWriter::JournalWriter(const std::string& path, const JournalHeader& header,
                             std::chrono::milliseconds sync_interval)
    : sync_interval_(sync_interval) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) return;
  std::string line = header_to_json(header).dump() + "\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  sync();
}

JournalWriter::~JournalWriter() {
  netbase::MutexLock lock(mutex_);
  if (file_ != nullptr) {
    std::fflush(file_);
    fsync_journal(file_);
    std::fclose(file_);
    file_ = nullptr;
  }
}

namespace {

// The checksum covers the record's canonical JSON, which the loader
// recomputes as the dump of the parsed record object.
void append_record_line(std::string& lines, const ProbeRecord& record) {
  std::string inner = record_json(record, RecordShape::journal);
  lines.append("{\"crc\":");
  lines.append(jsonio::escape(to_hex(fnv1a(inner))));
  lines.append(",\"record\":");
  lines.append(inner);
  lines.append("}\n");
}

}  // namespace

void JournalWriter::append(const ProbeRecord& record) {
  append_batch({&record});
}

void JournalWriter::append_batch(const std::vector<const ProbeRecord*>& batch) {
  if (batch.empty()) return;
  obs::Span append_span("journal/append_batch");
  std::string lines;
  lines.reserve(batch.size() * 1400);
  for (const ProbeRecord* record : batch) append_record_line(lines, *record);
  netbase::MutexLock lock(mutex_);
  if (file_ == nullptr) return;
  if (obs::metrics_enabled()) {
    static obs::Counter& records = obs::registry().counter("journal_records_total");
    static obs::Counter& bytes = obs::registry().counter("journal_bytes_total");
    records.add_always(batch.size());
    bytes.add_always(lines.size());
  }
  std::fwrite(lines.data(), 1, lines.size(), file_);
  // Hand the batch to the OS right away: page cache survives a killed
  // process, so a crash of *this* program loses at most one partial line
  // beyond whatever the caller had not yet appended. The fsync below only
  // bounds loss on power failure / kernel panic, so it can run on a much
  // coarser, time-based cadence without weakening crash tolerance.
  std::fflush(file_);
  written_ += batch.size();
  auto now = std::chrono::steady_clock::now();
  if (now - last_sync_ >= sync_interval_) {
    fsync_journal(file_);
    last_sync_ = now;
  }
}

void JournalWriter::sync() {
  netbase::MutexLock lock(mutex_);
  if (file_ == nullptr) return;
  std::fflush(file_);
  fsync_journal(file_);
  last_sync_ = std::chrono::steady_clock::now();
}

bool JournalWriter::ok() const {
  netbase::MutexLock lock(mutex_);
  return file_ != nullptr;
}

std::size_t JournalWriter::written() const {
  netbase::MutexLock lock(mutex_);
  return written_;
}

JournalLoadResult parse_journal(std::string_view text) {
  JournalLoadResult result;
  if (text.empty()) {
    result.error = "empty journal";
    return result;
  }

  std::size_t line_number = 0;
  std::size_t start = 0;
  bool saw_header = false;
  auto drop = [&](const std::string& why) {
    result.warnings.push_back("line " + std::to_string(line_number) + ": " + why);
    ++result.damaged;
  };
  while (start < text.size()) {
    std::size_t newline = text.find('\n', start);
    bool complete = newline != std::string_view::npos;
    std::string_view line =
        complete ? text.substr(start, newline - start) : text.substr(start);
    start = complete ? newline + 1 : text.size();
    ++line_number;
    if (line.empty()) continue;

    if (!complete) {
      // A crash mid-append leaves at most one partial line, always the last.
      drop("truncated final line dropped");
      break;
    }

    const auto value = jsonio::parse(line);
    if (!saw_header) {
      saw_header = true;
      if (!value || !value->is_object() ||
          (*value)["format"].as_string() != kFormatName) {
        result.error = "line 1: not a journal header";
        return result;
      }
      if ((*value)["version"].as_int() != kFormatVersion) {
        result.error = "line 1: unsupported journal version " +
                       std::to_string((*value)["version"].as_int());
        return result;
      }
      result.header.version =
          static_cast<std::uint32_t>((*value)["version"].as_int());
      auto fingerprint = from_hex((*value)["fingerprint"].as_string());
      if (!fingerprint) {
        result.error = "line 1: bad fingerprint";
        return result;
      }
      result.header.fingerprint = *fingerprint;
      result.header.fleet_size =
          static_cast<std::uint64_t>((*value)["fleet_size"].as_int());
      continue;
    }

    if (!value || !value->is_object()) {
      drop("unparseable record dropped");
      continue;
    }
    auto crc = from_hex((*value)["crc"].as_string());
    const Value& record_value = (*value)["record"];
    if (!crc || !record_value.is_object() || fnv1a(record_value.dump()) != *crc) {
      drop("checksum mismatch, record dropped");
      continue;
    }
    std::string error;
    auto record = record_from_json(record_value, RecordShape::journal, &error);
    if (!record) {
      drop("malformed record dropped (" + error + ")");
      continue;
    }
    result.records.push_back(std::move(*record));
  }

  if (!saw_header) result.error = "no journal header";
  return result;
}

JournalLoadResult load_journal(const std::string& path) {
  std::ifstream input(path, std::ios::binary);
  if (!input) {
    JournalLoadResult result;
    result.error = "cannot open " + path;
    return result;
  }
  std::stringstream buffer;
  buffer << input.rdbuf();
  return parse_journal(buffer.str());
}

}  // namespace dnslocate::atlas
