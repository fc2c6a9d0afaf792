#include "report/results_io.h"

#include "atlas/record_codec.h"

namespace dnslocate::report {

using atlas::RecordShape;

jsonio::Value probe_to_json(const atlas::ProbeRecord& record) {
  return *jsonio::parse(atlas::record_json(record, RecordShape::dataset));
}

std::string run_to_jsonl(const atlas::MeasurementRun& run) {
  std::string out;
  out.reserve(run.records.size() * 900);
  for (const auto& record : run.records) {
    out += atlas::record_json(record, RecordShape::dataset);
    out.push_back('\n');
  }
  return out;
}

JsonlLoadResult run_from_jsonl(std::string_view text) {
  JsonlLoadResult result;
  std::size_t line_number = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t newline = text.find('\n', start);
    std::string_view line = newline == std::string_view::npos
                                ? text.substr(start)
                                : text.substr(start, newline - start);
    start = newline == std::string_view::npos ? text.size() : newline + 1;
    ++line_number;
    if (line.empty()) continue;

    jsonio::ParseError parse_error;
    const auto value = jsonio::parse(line, &parse_error);
    std::string error = parse_error.message;
    std::optional<atlas::ProbeRecord> record;
    if (value) record = atlas::record_from_json(*value, RecordShape::dataset, &error);
    if (!record) {
      result.errors.push_back("line " + std::to_string(line_number) + ": " + error);
      continue;
    }
    result.run.records.push_back(std::move(*record));
  }
  return result;
}

}  // namespace dnslocate::report
