#include "netsim/packet.h"

#include <gtest/gtest.h>

namespace vpna::netsim {
namespace {

Packet sample_packet() {
  Packet p;
  p.src = IpAddr::v4(10, 8, 0, 2);
  p.dst = IpAddr::v4(8, 8, 8, 8);
  p.proto = Proto::kUdp;
  p.src_port = 50000;
  p.dst_port = 53;
  p.ttl = 61;
  p.payload = "DNSQ|1|0|example.com";
  return p;
}

TEST(Packet, SummaryMentionsEndpoints) {
  const auto s = sample_packet().summary();
  EXPECT_NE(s.find("10.8.0.2"), std::string::npos);
  EXPECT_NE(s.find("8.8.8.8"), std::string::npos);
  EXPECT_NE(s.find("udp"), std::string::npos);
}

TEST(TunnelEncoding, RoundTripsExactly) {
  const auto p = sample_packet();
  const auto encoded = encode_inner(p);
  const auto decoded = decode_inner(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->src, p.src);
  EXPECT_EQ(decoded->dst, p.dst);
  EXPECT_EQ(decoded->proto, p.proto);
  EXPECT_EQ(decoded->src_port, p.src_port);
  EXPECT_EQ(decoded->dst_port, p.dst_port);
  EXPECT_EQ(decoded->ttl, p.ttl);
  EXPECT_EQ(decoded->payload, p.payload);
}

TEST(TunnelEncoding, PayloadWithDelimiters) {
  auto p = sample_packet();
  p.payload = "a|b|c||d\nwith|pipes";
  const auto decoded = decode_inner(encode_inner(p));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload, p.payload);
}

TEST(TunnelEncoding, EmptyPayload) {
  auto p = sample_packet();
  p.payload.clear();
  const auto decoded = decode_inner(encode_inner(p));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(TunnelEncoding, NestedEncapsulation) {
  // A tunnel within a tunnel (VPN-over-VPN) round-trips.
  const auto inner = sample_packet();
  Packet mid;
  mid.src = IpAddr::v4(1, 1, 1, 1);
  mid.dst = IpAddr::v4(2, 2, 2, 2);
  mid.proto = Proto::kUdp;
  mid.payload = encode_inner(inner);
  const auto outer = encode_inner(mid);
  const auto mid2 = decode_inner(outer);
  ASSERT_TRUE(mid2.has_value());
  const auto inner2 = decode_inner(mid2->payload);
  ASSERT_TRUE(inner2.has_value());
  EXPECT_EQ(inner2->payload, inner.payload);
}

TEST(TunnelEncoding, RejectsGarbage) {
  EXPECT_FALSE(decode_inner(""));
  EXPECT_FALSE(decode_inner("not a tunnel frame"));
  EXPECT_FALSE(is_tunnel_frame("not a tunnel frame"));
  EXPECT_FALSE(is_tunnel_frame(sample_packet().payload));
  EXPECT_TRUE(is_tunnel_frame(encode_inner(sample_packet())));
  EXPECT_FALSE(decode_inner("TUN1|only|three|fields"));
  // Truncated payload (length field larger than remaining bytes).
  auto enc = encode_inner(sample_packet());
  enc.pop_back();
  EXPECT_FALSE(decode_inner(enc));
}

TEST(TunnelEncoding, RejectsCorruptAddresses) {
  auto enc = encode_inner(sample_packet());
  const auto pos = enc.find("10.8.0.2");
  enc.replace(pos, 8, "10.8.0.x");
  EXPECT_FALSE(decode_inner(enc));
}

TEST(ProtoName, AllValuesNamed) {
  EXPECT_EQ(proto_name(Proto::kUdp), "udp");
  EXPECT_EQ(proto_name(Proto::kTcp), "tcp");
  EXPECT_EQ(proto_name(Proto::kIcmpEcho), "icmp-echo");
  EXPECT_EQ(proto_name(Proto::kIcmpEchoReply), "icmp-echo-reply");
  EXPECT_EQ(proto_name(Proto::kIcmpTimeExceeded), "icmp-time-exceeded");
}

TEST(TunnelEncoding, V6InnerPacket) {
  Packet p;
  p.src = *IpAddr::parse("2001:db8::1");
  p.dst = *IpAddr::parse("2001:db8::2");
  p.proto = Proto::kTcp;
  p.payload = "x";
  const auto decoded = decode_inner(encode_inner(p));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->src.is_v6());
  EXPECT_EQ(decoded->dst.str(), "2001:db8::2");
}

}  // namespace
}  // namespace vpna::netsim
