// Master-file parser and pcap exporter tests.
#include <gtest/gtest.h>

#include <cstdio>

#include "resolvers/zone_parser.h"
#include "simnet/pcap.h"

namespace dnslocate {
namespace {

dnswire::DnsName name(const char* text) { return *dnswire::DnsName::parse(text); }

TEST(ZoneParser, ParsesARepresentativeZone) {
  const char* zone_text = R"($ORIGIN example.com.
$TTL 300
@       IN SOA ns1 hostmaster 2021110201 7200 900 1209600 300
@       IN NS  ns1
ns1     IN A   192.0.2.53
www     600 IN A 192.0.2.80
        IN AAAA 2001:db8::80          ; same owner as previous line
alias   IN CNAME www
txt     IN TXT "hello world" "second string"
ptr     IN PTR www.example.com.
)";
  resolvers::ZoneStore store;
  auto result = resolvers::parse_master_file(zone_text, store);
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0].to_string());
  EXPECT_EQ(result.records_added, 8u);

  auto www = store.lookup(name("www.example.com"), dnswire::RecordType::A);
  ASSERT_EQ(www.answers.size(), 1u);
  EXPECT_EQ(std::get<dnswire::ARecord>(www.answers[0].rdata).address.to_string(), "192.0.2.80");
  EXPECT_EQ(www.answers[0].ttl, 600u);  // per-record TTL beats $TTL

  // Owner reuse: the AAAA attached to www.
  auto aaaa = store.lookup(name("www.example.com"), dnswire::RecordType::AAAA);
  ASSERT_EQ(aaaa.answers.size(), 1u);

  // CNAME chain resolves.
  auto alias = store.lookup(name("alias.example.com"), dnswire::RecordType::A);
  EXPECT_EQ(alias.answers.size(), 2u);

  // TXT strings preserved separately.
  auto txt = store.lookup(name("txt.example.com"), dnswire::RecordType::TXT);
  ASSERT_EQ(txt.answers.size(), 1u);
  EXPECT_EQ(std::get<dnswire::TxtRecord>(txt.answers[0].rdata).strings.size(), 2u);

  // SOA on the apex with $TTL default.
  auto soa = store.lookup(name("example.com"), dnswire::RecordType::SOA);
  ASSERT_EQ(soa.answers.size(), 1u);
  EXPECT_EQ(soa.answers[0].ttl, 300u);
  EXPECT_EQ(std::get<dnswire::SoaRecord>(soa.answers[0].rdata).serial, 2021110201u);
}

TEST(ZoneParser, RelativeAndAbsoluteNames) {
  resolvers::ZoneStore store;
  auto result = resolvers::parse_master_file(
      "$ORIGIN zone.test.\nrel IN A 192.0.2.1\nabs.other.test. IN A 192.0.2.2\n", store);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(store.has_name(name("rel.zone.test")));
  EXPECT_TRUE(store.has_name(name("abs.other.test")));
  EXPECT_FALSE(store.has_name(name("abs.other.test.zone.test")));
}

TEST(ZoneParser, RecoverableErrorsAreReportedWithLines) {
  const char* zone_text =
      "$ORIGIN t.\n"
      "good IN A 192.0.2.1\n"
      "bad IN A not-an-address\n"
      "weird IN WKS whatever\n"
      "short IN CNAME\n"
      "unterminated IN TXT \"oops\n";
  resolvers::ZoneStore store;
  auto result = resolvers::parse_master_file(zone_text, store);
  EXPECT_EQ(result.records_added, 1u);
  ASSERT_EQ(result.errors.size(), 4u);
  EXPECT_EQ(result.errors[0].line, 3u);
  EXPECT_NE(result.errors[0].to_string().find("IPv4"), std::string::npos);
  EXPECT_EQ(result.errors[1].line, 4u);
  EXPECT_EQ(result.errors[2].line, 5u);
  EXPECT_EQ(result.errors[3].line, 6u);
}

TEST(ZoneParser, DirectiveErrors) {
  resolvers::ZoneStore store;
  auto result = resolvers::parse_master_file("$TTL banana\n$ORIGIN\n", store);
  EXPECT_EQ(result.errors.size(), 2u);
}

TEST(ZoneParser, EmptyAndCommentOnlyInput) {
  resolvers::ZoneStore store;
  auto result = resolvers::parse_master_file("; nothing here\n\n   ; still nothing\n", store);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.records_added, 0u);
}

// --- pcap ---

simnet::UdpPacket sample_packet(bool v6 = false) {
  simnet::UdpPacket packet;
  if (v6) {
    packet.src = *netbase::IpAddress::parse("2001:db8::1");
    packet.dst = *netbase::IpAddress::parse("2001:db8::2");
  } else {
    packet.src = *netbase::IpAddress::parse("192.0.2.1");
    packet.dst = *netbase::IpAddress::parse("192.0.2.2");
  }
  packet.sport = 5555;
  packet.dport = 53;
  packet.payload = {0xde, 0xad, 0xbe, 0xef};
  return packet;
}

TEST(Pcap, GlobalHeaderAndRecordFraming) {
  simnet::TraceSink trace;
  trace.record(std::chrono::milliseconds(1500), "a", simnet::TraceEvent::transmitted,
               sample_packet());
  trace.record(std::chrono::milliseconds(1500), "a", simnet::TraceEvent::received,
               sample_packet());  // not exported by default
  auto bytes = simnet::to_pcap(trace);

  ASSERT_GE(bytes.size(), 24u);
  // Little-endian magic.
  EXPECT_EQ(bytes[0], 0xd4);
  EXPECT_EQ(bytes[1], 0xc3);
  EXPECT_EQ(bytes[2], 0xb2);
  EXPECT_EQ(bytes[3], 0xa1);
  // Linktype 101 (raw IP) at offset 20.
  EXPECT_EQ(bytes[20], 101);
  EXPECT_EQ(simnet::pcap_packet_count(trace), 1u);

  // One record: header 16 + IPv4 20 + UDP 8 + payload 4.
  EXPECT_EQ(bytes.size(), 24u + 16u + 32u);
  // Timestamp: 1.5s -> seconds field 1, micros field 500000.
  auto byte = [&](std::size_t i) { return static_cast<std::uint32_t>(bytes[i]); };
  std::uint32_t seconds = byte(24) | byte(25) << 8 | byte(26) << 16 | byte(27) << 24;
  EXPECT_EQ(seconds, 1u);
  // IPv4 version nibble of the frame body.
  EXPECT_EQ(bytes[24 + 16] >> 4, 4);
}

TEST(Pcap, Ipv6FramesUseVersionSix) {
  simnet::TraceSink trace;
  trace.record({}, "a", simnet::TraceEvent::transmitted, sample_packet(true));
  auto bytes = simnet::to_pcap(trace);
  // header 24 + record header 16, then the v6 frame: 40 + 8 + 4.
  ASSERT_EQ(bytes.size(), 24u + 16u + 52u);
  EXPECT_EQ(bytes[24 + 16] >> 4, 6);
}

TEST(Pcap, IcmpAndMixedFamilyRecordsAreSkipped) {
  simnet::TraceSink trace;
  auto icmp = sample_packet();
  icmp.kind = simnet::PacketKind::icmp_ttl_exceeded;
  trace.record({}, "a", simnet::TraceEvent::transmitted, icmp);
  auto mixed = sample_packet();
  mixed.dst = *netbase::IpAddress::parse("2001:db8::2");
  trace.record({}, "a", simnet::TraceEvent::transmitted, mixed);
  EXPECT_EQ(simnet::pcap_packet_count(trace), 0u);
  EXPECT_EQ(simnet::to_pcap(trace).size(), 24u);  // header only
}

TEST(Pcap, WritesAFile) {
  simnet::TraceSink trace;
  trace.record({}, "a", simnet::TraceEvent::transmitted, sample_packet());
  std::string path = "/tmp/dnslocate_test.pcap";
  ASSERT_TRUE(simnet::write_pcap_file(trace, path));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  long size = std::ftell(file);
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_EQ(static_cast<std::size_t>(size), simnet::to_pcap(trace).size());
}

}  // namespace
}  // namespace dnslocate

namespace dnslocate {
namespace {

TEST(ZoneParser, ParenthesizedMultiLineSoa) {
  const char* zone_text = R"($ORIGIN multi.test.
@ IN SOA ns1 hostmaster (
        2021110201 ; serial
        7200       ; refresh
        900        ; retry
        1209600    ; expire
        300 )      ; minimum
www IN A 192.0.2.1
)";
  resolvers::ZoneStore store;
  auto result = resolvers::parse_master_file(zone_text, store);
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0].to_string());
  EXPECT_EQ(result.records_added, 2u);
  auto soa = store.lookup(name("multi.test"), dnswire::RecordType::SOA);
  ASSERT_EQ(soa.answers.size(), 1u);
  const auto& rdata = std::get<dnswire::SoaRecord>(soa.answers[0].rdata);
  EXPECT_EQ(rdata.serial, 2021110201u);
  EXPECT_EQ(rdata.minimum, 300u);
  EXPECT_TRUE(store.has_name(name("www.multi.test")));
}

TEST(ZoneParser, SemicolonInsideQuotedTxtIsNotAComment) {
  resolvers::ZoneStore store;
  auto result =
      resolvers::parse_master_file("t.test. IN TXT \"v=spf1 a; all\"\n", store);
  EXPECT_TRUE(result.ok());
  auto txt = store.lookup(name("t.test"), dnswire::RecordType::TXT);
  ASSERT_EQ(txt.answers.size(), 1u);
  EXPECT_EQ(std::get<dnswire::TxtRecord>(txt.answers[0].rdata).strings[0], "v=spf1 a; all");
}

TEST(ZoneParser, UnbalancedParenthesesDoNotCrash) {
  resolvers::ZoneStore store;
  auto open_only = resolvers::parse_master_file("a.test. IN A ( 192.0.2.1\n", store);
  (void)open_only;  // one record or one error; either way no crash/hang
  auto close_only = resolvers::parse_master_file("b.test. IN A 192.0.2.2 )\n", store);
  EXPECT_TRUE(store.has_name(name("b.test")));
  (void)close_only;
}

}  // namespace
}  // namespace dnslocate
