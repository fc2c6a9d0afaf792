#include "core/dns0x20.h"

#include <vector>

namespace dnslocate::core {

std::string_view to_string(CaseEchoResult result) {
  switch (result) {
    case CaseEchoResult::preserved: return "preserved";
    case CaseEchoResult::rewritten: return "rewritten";
    case CaseEchoResult::no_question: return "no question";
    case CaseEchoResult::timed_out: return "timeout";
  }
  return "?";
}

std::string Dns0x20Prober::encode_0x20(const std::string& name, simnet::Rng& rng) {
  std::string out = name;
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') {
      if (rng.bernoulli(0.5)) c = static_cast<char>(c - 'a' + 'A');
    } else if (c >= 'A' && c <= 'Z') {
      if (rng.bernoulli(0.5)) c = static_cast<char>(c - 'A' + 'a');
    }
  }
  return out;
}

Dns0x20Report Dns0x20Prober::run(AsyncQueryTransport& engine) {
  Dns0x20Report report;
  simnet::Rng rng(config_.seed);
  // One query per resolver whose encoded name parses, in resolver order; a
  // name that does not parse is reported as a timeout without a query.
  QueryBatch batch;
  std::vector<resolvers::PublicResolverKind> kinds;  // per batch slot
  for (resolvers::PublicResolverKind kind : resolvers::all_public_resolvers()) {
    const auto& spec = resolvers::PublicResolverSpec::get(kind);
    netbase::Endpoint server{spec.service_v4[0], netbase::kDnsPort};

    std::string encoded = encode_0x20(config_.base_name, rng);
    report.sent_names.emplace(kind, encoded);
    auto name = dnswire::DnsName::parse(encoded);
    if (!name) {
      report.per_resolver.emplace(kind, CaseEchoResult::timed_out);
      continue;
    }
    batch.add(server, dnswire::make_query(next_id_++, *name, dnswire::RecordType::A),
              config_.query);
    kinds.push_back(kind);
  }

  engine.run(batch);

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const QueryResult& result = batch.result(i);
    CaseEchoResult echo;
    if (!result.answered()) {
      echo = CaseEchoResult::timed_out;
    } else if (!result.response->question()) {
      echo = CaseEchoResult::no_question;
    } else {
      // Byte-exact comparison: the whole point of 0x20 is case sensitivity.
      const dnswire::DnsName& sent = batch.spec(i).message.question()->name;
      echo = result.response->question()->name == sent ? CaseEchoResult::preserved
                                                       : CaseEchoResult::rewritten;
    }
    report.per_resolver.emplace(kinds[i], echo);
  }
  return report;
}

}  // namespace dnslocate::core
