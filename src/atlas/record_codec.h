// The probe record codec. dnslocate writes a ProbeRecord in two byte shapes:
// the checksummed resume journal (atlas/journal.h) and the JSONL dataset that
// report::run_to_jsonl exports and dnslocated serves. One sorted field table
// (record_codec.cc) drives both the emitter and the parser for both shapes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "atlas/measurement.h"
#include "jsonio/json.h"

namespace dnslocate::atlas {

/// The two byte shapes of a record. The dataset shape is the journal shape
/// minus elapsed_us, telemetry, drops, faults, cpe_is_interceptor, the
/// per-resolver unreachable flags and the truth flags isp_answers_bogons and
/// isp_intercepts_v6. It names `error` "probe_error" and leaves out an `ok`
/// outcome, so exports from before supervision existed stay byte-identical.
enum class RecordShape : std::uint8_t { journal = 1, dataset = 2 };

/// `record` as canonical JSON: compact, keys sorted, the bytes jsonio's
/// dump gives for the same object, so parse(json)->dump() == json.
std::string record_json(const ProbeRecord& record, RecordShape shape);

/// Parse one record object. A missing member keeps its default, except that
/// `location`, and `outcome` in the journal shape, are required. A member of
/// the wrong type, a non-integral or out-of-range number, or an unknown name
/// rejects the record, and `error` (when given) names the member.
std::optional<ProbeRecord> record_from_json(const jsonio::Value& value, RecordShape shape,
                                            std::string* error = nullptr);

}  // namespace dnslocate::atlas
