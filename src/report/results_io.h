// Measurement-result persistence: one JSON object per probe (JSONL), with
// enough detail to re-aggregate every table and figure offline — the
// equivalent of publishing the pilot study's dataset.
#pragma once

#include <string>
#include <vector>

#include "atlas/measurement.h"
#include "jsonio/json.h"

namespace dnslocate::report {

/// One probe record as a JSON object: the dataset shape of
/// atlas/record_codec.h.
jsonio::Value probe_to_json(const atlas::ProbeRecord& record);

/// Whole run -> JSONL text (one dataset-shape record per line, trailing
/// newline).
std::string run_to_jsonl(const atlas::MeasurementRun& run);

/// Parse JSONL back into records. Fields the JSON lacks (raw responses)
/// stay default; everything the aggregators consume round-trips. Lines
/// that fail to parse or that the record codec rejects (an unknown name, a
/// bad number) are reported in `errors` (line numbers, 1-based).
struct JsonlLoadResult {
  atlas::MeasurementRun run;
  std::vector<std::string> errors;

  [[nodiscard]] bool ok() const { return errors.empty(); }
};

JsonlLoadResult run_from_jsonl(std::string_view text);

}  // namespace dnslocate::report
