// libFuzzer harness for journal salvage/resume — the crash-tolerance layer
// must never fabricate evidence, whatever bytes a crash left on disk.
// Properties enforced:
//
//  1. parse_journal never crashes or overreads on arbitrary journal text;
//     damaged lines are dropped with warnings, never invented.
//  2. Every record it salvages is emitted in canonical form, in both record
//     shapes: jsonio::parse(json)->dump() == json. The journal checksum is
//     checked against the dump of the parsed record, so a non-canonical
//     emission would fail every record on resume.
//  3. Every salvaged record round-trips: emit -> parse -> record_from_json
//     -> emit is byte-identical, in both shapes.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "atlas/journal.h"
#include "atlas/record_codec.h"
#include "jsonio/json.h"

namespace {

void fail(const char* what) {
  std::fprintf(stderr, "%s\n", what);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  using dnslocate::atlas::RecordShape;
  std::string_view text(reinterpret_cast<const char*>(data), size);
  dnslocate::atlas::JournalLoadResult result = dnslocate::atlas::parse_journal(text);
  if (!result.ok()) return 0;

  for (const dnslocate::atlas::ProbeRecord& record : result.records) {
    for (RecordShape shape : {RecordShape::journal, RecordShape::dataset}) {
      std::string json = dnslocate::atlas::record_json(record, shape);
      auto parsed = dnslocate::jsonio::parse(json);
      if (!parsed) fail("salvaged record's JSON is not valid JSON");
      if (parsed->dump() != json) fail("record JSON is not in jsonio's canonical form");
      auto restored = dnslocate::atlas::record_from_json(*parsed, shape);
      if (!restored) fail("salvaged record does not re-parse");
      if (dnslocate::atlas::record_json(*restored, shape) != json)
        fail("record round-trip is not byte-stable");
    }
  }
  return 0;
}
