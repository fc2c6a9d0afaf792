#include "atlas/fleet_json.h"

namespace dnslocate::atlas {
namespace {

using jsonio::Value;

/// Reads an optional integer member into `field` (left as is when missing).
/// A non-integral or out-of-range value is an error naming the member.
template <class Int>
void read_int(const Value& object, const std::string& key, Int& field, const std::string& where,
              std::vector<std::string>& errors) {
  const Value& value = object[key];
  if (value.is_null()) return;
  if (const auto number = value.as_integral<Int>()) {
    field = *number;
    return;
  }
  errors.push_back(where + "\"" + key + "\" is not an integer in range");
}

}  // namespace

FleetJsonResult fleet_from_json(std::string_view text) {
  FleetJsonResult result;
  jsonio::ParseError parse_error;
  auto document = jsonio::parse(text, &parse_error);
  if (!document || !document->is_object()) {
    result.errors.push_back(document ? "top level must be an object"
                                     : "parse error: " + jsonio::describe(parse_error));
    return result;
  }

  read_int(*document, "seed", result.config.seed, "", result.errors);
  if ((*document)["scale"].is_number()) result.config.scale = (*document)["scale"].as_number();
  if ((*document)["ipv6_fraction"].is_number())
    result.config.ipv6_fraction = (*document)["ipv6_fraction"].as_number();
  if (result.config.scale <= 0 || result.config.scale > 1)
    result.errors.push_back("scale must be in (0, 1]");
  if (result.config.ipv6_fraction < 0 || result.config.ipv6_fraction > 1)
    result.errors.push_back("ipv6_fraction must be in [0, 1]");

  const auto& orgs = (*document)["orgs"];
  if (!orgs.is_array() || orgs.as_array().empty()) {
    result.errors.push_back("\"orgs\" must be a non-empty array");
    return result;
  }

  std::size_t index = 0;
  for (const Value& entry : orgs.as_array()) {
    ++index;
    auto where = "orgs[" + std::to_string(index - 1) + "]";
    if (!entry.is_object()) {
      result.errors.push_back(where + " is not an object");
      continue;
    }
    OrgQuota quota;
    quota.org = entry["org"].as_string();
    if (quota.org.empty()) {
      result.errors.push_back(where + " is missing \"org\"");
      continue;
    }
    quota.country = entry["country"].is_string() ? entry["country"].as_string() : "--";
    if (entry["cpe_custom"].is_string()) quota.cpe_custom = entry["cpe_custom"].as_string();
    const std::size_t errors_before = result.errors.size();
    where += ": ";
    read_int(entry, "asn", quota.asn, where, result.errors);
    read_int(entry, "probes", quota.probes, where, result.errors);
    read_int(entry, "cpe_xb6", quota.cpe_xb6, where, result.errors);
    read_int(entry, "cpe_dnsmasq", quota.cpe_dnsmasq, where, result.errors);
    read_int(entry, "cpe_pihole", quota.cpe_pihole, where, result.errors);
    read_int(entry, "cpe_unbound", quota.cpe_unbound, where, result.errors);
    read_int(entry, "cpe_redhat", quota.cpe_redhat, where, result.errors);
    read_int(entry, "isp_allfour", quota.isp_allfour, where, result.errors);
    read_int(entry, "isp_allfour_nobogon", quota.isp_allfour_nobogon, where, result.errors);
    read_int(entry, "isp_block", quota.isp_block, where, result.errors);
    read_int(entry, "isp_both", quota.isp_both, where, result.errors);
    read_int(entry, "external", quota.external, where, result.errors);
    read_int(entry, "one_intercepted", quota.one_intercepted, where, result.errors);
    read_int(entry, "one_allowed", quota.one_allowed, where, result.errors);
    read_int(entry, "v6_intercept", quota.v6_intercept, where, result.errors);
    if (result.errors.size() != errors_before) continue;

    if (quota.probes < 0) {
      result.errors.push_back(where + "probes must be >= 0");
      continue;
    }
    int negatives = quota.cpe_xb6 | quota.cpe_dnsmasq | quota.cpe_pihole | quota.cpe_unbound |
                    quota.cpe_redhat | quota.isp_allfour | quota.isp_allfour_nobogon |
                    quota.isp_block | quota.isp_both | quota.external |
                    quota.one_intercepted | quota.one_allowed | quota.v6_intercept;
    if (negatives < 0) {
      result.errors.push_back(where + "quotas must be >= 0");
      continue;
    }
    result.plan.push_back(std::move(quota));
  }
  return result;
}

std::string fleet_to_json(const std::vector<OrgQuota>& plan, const FleetConfig& config) {
  jsonio::Object document;
  document["seed"] = static_cast<std::uint64_t>(config.seed);
  document["scale"] = config.scale;
  document["ipv6_fraction"] = config.ipv6_fraction;
  jsonio::Array orgs;
  for (const OrgQuota& quota : plan) {
    jsonio::Object entry;
    entry["org"] = quota.org;
    entry["asn"] = static_cast<std::uint64_t>(quota.asn);
    entry["country"] = quota.country;
    entry["probes"] = quota.probes;
    auto set_if = [&entry](const char* key, int value) {
      if (value != 0) entry[key] = value;
    };
    set_if("cpe_xb6", quota.cpe_xb6);
    set_if("cpe_dnsmasq", quota.cpe_dnsmasq);
    set_if("cpe_pihole", quota.cpe_pihole);
    set_if("cpe_unbound", quota.cpe_unbound);
    set_if("cpe_redhat", quota.cpe_redhat);
    if (quota.cpe_custom) entry["cpe_custom"] = *quota.cpe_custom;
    set_if("isp_allfour", quota.isp_allfour);
    set_if("isp_allfour_nobogon", quota.isp_allfour_nobogon);
    set_if("isp_block", quota.isp_block);
    set_if("isp_both", quota.isp_both);
    set_if("external", quota.external);
    set_if("one_intercepted", quota.one_intercepted);
    set_if("one_allowed", quota.one_allowed);
    set_if("v6_intercept", quota.v6_intercept);
    orgs.push_back(jsonio::Value(std::move(entry)));
  }
  document["orgs"] = std::move(orgs);
  return jsonio::Value(std::move(document)).dump();
}

}  // namespace dnslocate::atlas
