#include "atlas/record_codec.h"

#include <charconv>
#include <type_traits>
#include <variant>

namespace dnslocate::atlas {
namespace {

using core::DetectionReport;
using core::InterceptorLocation;
using core::ProbeVerdict;
using core::ResolverInterception;
using core::TransparencyClass;
using core::TransportTelemetry;
using jsonio::Value;
using resolvers::PublicResolverKind;
using simnet::DropCounters;
using FaultCounters = simnet::FaultPlan::Counters;

enum : std::uint8_t {
  kJournal = static_cast<std::uint8_t>(RecordShape::journal),
  kDataset = static_cast<std::uint8_t>(RecordShape::dataset),
  kBoth = kJournal | kDataset,
};

// A member that is not a plain flag or counter. `put` appends its value
// (false leaves the member out of the line); `get` reads it back from the
// member's JSON value, null when missing (false rejects the record).
template <class S>
struct Codec {
  bool (*put)(std::string& out, const S& s, RecordShape shape);
  bool (*get)(const Value& value, S& s, RecordShape shape);
};

// One row of a field table: the JSON key, the member it maps to, and the
// shapes that carry it. Each table is sorted by key, the order in which
// jsonio's std::map-backed objects dump.
template <class S>
struct Field {
  std::string_view key;
  std::variant<bool S::*, std::uint64_t S::*, InterceptorLocation S::*, Codec<S>> access;
  std::uint8_t shapes = kBoth;
};

// Append one value / read one member's value; defined below the tables.
template <class T>
bool put(std::string& out, const T& value, RecordShape shape);
template <class T>
bool get(const Value& value, T& field, RecordShape shape);

constexpr Field<DropCounters> kDropFields[] = {
    {"by_hook", &DropCounters::by_hook},
    {"fault_burst", &DropCounters::fault_burst},
    {"fault_random", &DropCounters::fault_random},
    {"link_loss", &DropCounters::link_loss},
    {"no_listener", &DropCounters::no_listener},
    {"no_route", &DropCounters::no_route},
    {"queue_overflow", &DropCounters::queue_overflow},
    {"ttl_expired", &DropCounters::ttl_expired},
};

constexpr Field<FaultCounters> kFaultFields[] = {
    {"burst_drops", &FaultCounters::burst_drops},
    {"duplicated", &FaultCounters::duplicated},
    {"jittered", &FaultCounters::jittered},
    {"random_drops", &FaultCounters::random_drops},
    {"reordered", &FaultCounters::reordered},
    {"truncated", &FaultCounters::truncated},
};

constexpr Field<TransportTelemetry> kTelemetryFields[] = {
    {"answered", &TransportTelemetry::answered},
    {"attempts", &TransportTelemetry::attempts},
    {"queries", &TransportTelemetry::queries},
    {"retries", &TransportTelemetry::retries},
    {"timeouts", &TransportTelemetry::timeouts},
};

constexpr Field<ResolverInterception> kResolverFields[] = {
    {"intercepted_v4", &ResolverInterception::intercepted_v4},
    {"intercepted_v6", &ResolverInterception::intercepted_v6},
    {"tested_v4", &ResolverInterception::tested_v4},
    {"tested_v6", &ResolverInterception::tested_v6},
    {"unreachable_v4", &ResolverInterception::unreachable_v4, kJournal},
    {"unreachable_v6", &ResolverInterception::unreachable_v6, kJournal},
};

// One resolver's entry in "detection". Entries sharing a kind collapse to
// the last one, as in a std::map keyed by name: a crashed probe's default
// verdict holds four entries of the first kind. A resolver missing from the
// object keeps its default entry, so such a record parses back unchanged.
template <PublicResolverKind kind>
constexpr Codec<DetectionReport> resolver() {
  return {[](std::string& out, const DetectionReport& d, RecordShape shape) {
            const ResolverInterception* last = nullptr;
            for (const auto& summary : d.per_resolver)
              if (summary.kind == kind) last = &summary;
            return last != nullptr && put(out, *last, shape);
          },
          [](const Value& v, DetectionReport& d, RecordShape shape) {
            auto& summary = d.per_resolver[static_cast<std::size_t>(kind)];
            if (!v.is_null()) summary.kind = kind;
            return get(v, summary, shape);
          }};
}

// The keys are the resolvers' display names, as the format has always
// written them; they are pinned here so that the format does not follow
// the display.
constexpr Field<DetectionReport> kDetectionFields[] = {
    {"Cloudflare DNS", resolver<PublicResolverKind::cloudflare>()},
    {"Google DNS", resolver<PublicResolverKind::google>()},
    {"OpenDNS", resolver<PublicResolverKind::opendns>()},
    {"Quad9", resolver<PublicResolverKind::quad9>()},
};

constexpr Field<GroundTruth> kTruthFields[] = {
    {"cpe_intercepts", &GroundTruth::cpe_intercepts},
    {"expected", &GroundTruth::expected},
    {"external_intercepts", &GroundTruth::external_intercepts},
    {"isp_answers_bogons", &GroundTruth::isp_answers_bogons, kJournal},
    {"isp_intercepts_v4", &GroundTruth::isp_intercepts_v4},
    {"isp_intercepts_v6", &GroundTruth::isp_intercepts_v6, kJournal},
};

// The nested objects, by the struct each one holds.
const auto& fields_of(const DropCounters&) { return kDropFields; }
const auto& fields_of(const FaultCounters&) { return kFaultFields; }
const auto& fields_of(const TransportTelemetry&) { return kTelemetryFields; }
const auto& fields_of(const ResolverInterception&) { return kResolverFields; }
const auto& fields_of(const DetectionReport&) { return kDetectionFields; }
const auto& fields_of(const GroundTruth&) { return kTruthFields; }

// The names the enums a record carries are written as, and their inverses.
constexpr std::string_view kLocationNames[] = {"not_intercepted", "cpe", "isp", "unknown",
                                               "contested"};
constexpr std::string_view kTransparencyNames[] = {"transparent", "status_modified", "both",
                                                   "indeterminate"};

template <class Enum, std::size_t N>
std::optional<Enum> named(const std::string_view (&names)[N], std::string_view name) {
  for (std::size_t i = 0; i < N; ++i)
    if (names[i] == name) return static_cast<Enum>(i);
  return std::nullopt;
}

std::string_view wire_name(InterceptorLocation location) {
  return kLocationNames[static_cast<std::size_t>(location)];
}
std::string_view wire_name(TransparencyClass klass) {
  return kTransparencyNames[static_cast<std::size_t>(klass)];
}
std::string_view wire_name(ProbeOutcome outcome) { return to_string(outcome); }

std::optional<InterceptorLocation> location_from(std::string_view name) {
  return named<InterceptorLocation>(kLocationNames, name);
}
auto from_wire(std::string_view name, InterceptorLocation) { return location_from(name); }
auto from_wire(std::string_view name, TransparencyClass) {
  return named<TransparencyClass>(kTransparencyNames, name);
}
auto from_wire(std::string_view name, ProbeOutcome) { return probe_outcome_from(name); }

template <class S, std::size_t N>
void put_object(std::string& out, const S& s, const Field<S> (&fields)[N], RecordShape shape) {
  out.push_back('{');
  bool first = true;
  for (const Field<S>& field : fields) {
    if ((field.shapes & static_cast<std::uint8_t>(shape)) == 0) continue;
    const std::size_t mark = out.size();
    out.append(first ? "\"" : ",\"").append(field.key).append("\":");
    const bool present = std::visit(
        [&](const auto& access) {
          if constexpr (std::is_member_object_pointer_v<std::decay_t<decltype(access)>>)
            return put(out, s.*access, shape);
          else
            return access.put(out, s, shape);
        },
        field.access);
    if (present) first = false;
    else out.resize(mark);
  }
  out.push_back('}');
}

// A missing object keeps every default; members the table does not name
// are ignored. On a rejected member `error` (when given) names it.
template <class S, std::size_t N>
bool get_object(const Value& value, S& s, const Field<S> (&fields)[N], RecordShape shape,
                std::string* error = nullptr) {
  if (value.is_null()) return true;
  if (!value.is_object()) {
    if (error != nullptr) *error = "not an object";
    return false;
  }
  for (const Field<S>& field : fields) {
    if ((field.shapes & static_cast<std::uint8_t>(shape)) == 0) continue;
    const Value& member = value[std::string(field.key)];
    const bool ok = std::visit(
        [&](const auto& access) {
          if constexpr (std::is_member_object_pointer_v<std::decay_t<decltype(access)>>)
            return get(member, s.*access, shape);
          else
            return access.get(member, s, shape);
        },
        field.access);
    if (!ok) {
      if (error != nullptr) *error = "bad \"" + std::string(field.key) + "\"";
      return false;
    }
  }
  return true;
}

// Appends the value in jsonio's canonical form and returns true, so a row
// can write `return present && put(...)`. Integers up to 2^53, the range the
// parser admits, print the same digits as jsonio's dump of the equal double.
template <class T>
bool put(std::string& out, const T& value, RecordShape shape) {
  if constexpr (std::is_same_v<T, bool>) {
    out.append(value ? "true" : "false");
  } else if constexpr (std::is_integral_v<T>) {
    char buffer[24];
    out.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
  } else if constexpr (std::is_same_v<T, std::chrono::microseconds>) {
    put(out, static_cast<std::uint64_t>(value.count()), shape);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out.append(jsonio::escape(value));
  } else if constexpr (std::is_enum_v<T>) {
    out.append(jsonio::escape(wire_name(value)));
  } else {
    put_object(out, value, fields_of(value), shape);
  }
  return true;
}

// Reads a member's JSON value into `field`. A null (missing) member leaves
// the field as it is; a value of the wrong type, a non-integral or
// out-of-range number, or an unknown name returns false.
template <class T>
bool get(const Value& value, T& field, RecordShape shape) {
  if (value.is_null()) return true;
  std::optional<T> parsed;
  if constexpr (std::is_same_v<T, bool>) {
    if (value.is_bool()) parsed = value.as_bool();
  } else if constexpr (std::is_integral_v<T>) {
    parsed = value.as_integral<T>();
  } else if constexpr (std::is_same_v<T, std::chrono::microseconds>) {
    if (const auto us = value.as_integral<std::uint64_t>()) parsed = T(static_cast<std::int64_t>(*us));
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (value.is_string()) parsed = value.as_string();
  } else if constexpr (std::is_enum_v<T>) {
    parsed = from_wire(value.as_string(), field);
  } else {
    return get_object(value, field, fields_of(field), shape);
  }
  if (parsed) field = std::move(*parsed);
  return parsed.has_value();
}

enum Presence { always, required, unless_default };

// A record member reached through a chain of member pointers, as in
// at<always, &ProbeRecord::org, &OrgInfo::asn>(). `required` rejects a
// record that lacks it; `unless_default` leaves it out while it holds its
// type's default.
template <Presence presence, auto... path>
constexpr Codec<ProbeRecord> at() {
  return {[](std::string& out, const ProbeRecord& r, RecordShape shape) {
            const auto& value = (r .* ... .* path);
            if constexpr (presence == unless_default) {
              if (value == std::decay_t<decltype(value)>{}) return false;
            }
            return put(out, value, shape);
          },
          [](const Value& v, ProbeRecord& r, RecordShape shape) {
            if (presence == required && v.is_null()) return false;
            return get(v, (r .* ... .* path), shape);
          }};
}

// Only whether a bogon probe was answered survives; it comes back as a
// tested v4 family with an answered (or unanswered) A query.
bool put_bogon(std::string& out, const ProbeRecord& r, RecordShape shape) {
  return r.verdict.bogon && put(out, r.verdict.bogon->within_isp(), shape);
}
bool get_bogon(const Value& v, ProbeRecord& r, RecordShape) {
  if (!v.is_bool()) return v.is_null();
  auto& bogon = r.verdict.bogon.emplace();
  bogon.v4.tested = true;
  if (v.as_bool()) bogon.v4.a_query.status = core::QueryResult::Status::answered;
  return true;
}

// The CPE check survives as its version.bind string and verdict, both
// written only when the CPE answered with a string.
bool has_version_bind(const ProbeRecord& r) {
  return r.verdict.cpe_check && r.verdict.cpe_check->cpe.has_string();
}

core::CpeCheckReport& cpe_check(ProbeRecord& r) {
  return r.verdict.cpe_check ? *r.verdict.cpe_check : r.verdict.cpe_check.emplace();
}

bool put_cpe_is_interceptor(std::string& out, const ProbeRecord& r, RecordShape shape) {
  return has_version_bind(r) && put(out, r.verdict.cpe_check->cpe_is_interceptor, shape);
}
bool get_cpe_is_interceptor(const Value& v, ProbeRecord& r, RecordShape shape) {
  return v.is_null() || get(v, cpe_check(r).cpe_is_interceptor, shape);
}

bool put_version_bind(std::string& out, const ProbeRecord& r, RecordShape shape) {
  return has_version_bind(r) && put(out, *r.verdict.cpe_check->cpe.txt, shape);
}
bool get_version_bind(const Value& v, ProbeRecord& r, RecordShape) {
  if (!v.is_string()) return v.is_null();
  auto& cpe = cpe_check(r).cpe;
  cpe.answered = true;
  cpe.txt = cpe.display = v.as_string();
  return true;
}

bool put_transparency(std::string& out, const ProbeRecord& r, RecordShape shape) {
  return r.verdict.transparency && put(out, r.verdict.transparency->overall, shape);
}
bool get_transparency(const Value& v, ProbeRecord& r, RecordShape shape) {
  return v.is_null() || get(v, r.verdict.transparency.emplace().overall, shape);
}

using RecordCodec = Codec<ProbeRecord>;

// The dataset writes `error` as `probe_error` and leaves out an ok outcome;
// the journal always writes the outcome.
constexpr Field<ProbeRecord> kRecordFields[] = {
    {"asn", at<always, &ProbeRecord::org, &OrgInfo::asn>()},
    {"bogon_answered", RecordCodec{put_bogon, get_bogon}},
    {"country", at<always, &ProbeRecord::org, &OrgInfo::country>()},
    {"cpe_is_interceptor", RecordCodec{put_cpe_is_interceptor, get_cpe_is_interceptor}, kJournal},
    {"cpe_version_bind", RecordCodec{put_version_bind, get_version_bind}},
    {"detection", at<always, &ProbeRecord::verdict, &ProbeVerdict::detection>()},
    {"drops", at<always, &ProbeRecord::drops>(), kJournal},
    {"elapsed_us", at<always, &ProbeRecord::elapsed>(), kJournal},
    {"error", at<unless_default, &ProbeRecord::error>(), kJournal},
    {"faults", at<always, &ProbeRecord::faults>(), kJournal},
    {"location", at<required, &ProbeRecord::verdict, &ProbeVerdict::location>()},
    {"org", at<always, &ProbeRecord::org, &OrgInfo::org>()},
    {"outcome", at<required, &ProbeRecord::outcome>(), kJournal},
    {"outcome", at<unless_default, &ProbeRecord::outcome>(), kDataset},
    {"probe_error", at<unless_default, &ProbeRecord::error>(), kDataset},
    {"probe_id", at<always, &ProbeRecord::probe_id>()},
    {"skipped_stages", at<unless_default, &ProbeRecord::verdict, &ProbeVerdict::skipped_stages>()},
    {"telemetry", at<always, &ProbeRecord::verdict, &ProbeVerdict::telemetry>(), kJournal},
    {"tested_v6", &ProbeRecord::tested_v6},
    {"transparency", RecordCodec{put_transparency, get_transparency}},
    {"truth", at<always, &ProbeRecord::truth>()},
};

}  // namespace

std::string record_json(const ProbeRecord& record, RecordShape shape) {
  std::string out;
  out.reserve(1400);
  put_object(out, record, kRecordFields, shape);
  return out;
}

std::optional<ProbeRecord> record_from_json(const Value& value, RecordShape shape,
                                            std::string* error) {
  ProbeRecord record;
  if (!get_object(value, record, kRecordFields, shape, error)) return std::nullopt;
  return record;
}

}  // namespace dnslocate::atlas
