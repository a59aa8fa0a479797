// Decoder robustness: every wire-format decoder in the library must
// survive arbitrary bytes — returning nullopt, never crashing or reading
// out of bounds. Inputs are seeded-random strings plus mutations of valid
// encodings (the harder case: almost-valid frames).
#include <gtest/gtest.h>

#include "core/report_codec.h"
#include "dns/message.h"
#include "http/message.h"
#include "http/url.h"
#include "netsim/packet.h"
#include "obs/trace_codec.h"
#include "tlssim/cert.h"
#include "tlssim/handshake.h"
#include "util/rng.h"
#include "vpn/ovpn_config.h"

namespace vpna {
namespace {

std::string random_bytes(util::Rng& rng, std::size_t max_len) {
  std::string out;
  const auto len = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    out += static_cast<char>(rng.uniform_int(0, 255));
  return out;
}

// Flip/insert/delete a few bytes of a valid encoding.
std::string mutate(util::Rng& rng, std::string valid) {
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < edits && !valid.empty(); ++i) {
    const auto pos = rng.index(valid.size());
    switch (rng.uniform_int(0, 2)) {
      case 0:
        valid[pos] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 1:
        valid.insert(valid.begin() + static_cast<std::ptrdiff_t>(pos),
                     static_cast<char>(rng.uniform_int(32, 126)));
        break;
      default:
        valid.erase(valid.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
    }
  }
  return valid;
}

class FuzzDecoders : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // Exercise every decoder on one input; crashes/UB are the failure mode,
  // so the assertions are merely "it returned".
  static void feed(const std::string& input) {
    (void)netsim::decode_inner(input);
    (void)netsim::IpAddr::parse(input);
    (void)netsim::Cidr::parse(input);
    (void)dns::DnsQuery::decode(input);
    (void)dns::DnsResponse::decode(input);
    (void)http::HttpRequest::decode(input);
    (void)http::HttpResponse::decode(input);
    (void)http::Url::parse(input);
    (void)tlssim::Certificate::decode(input);
    (void)tlssim::CertChain::decode(input);
    (void)tlssim::decode_client_hello(input);
    (void)tlssim::decode_server_hello(input);
    (void)vpn::OvpnConfig::parse(input);
    obs::ShardTrace trace;
    (void)obs::decode_shard_trace(input, &trace);
    core::ProviderReport report;
    (void)core::decode_traced_shard(input, &report, &trace);
    SUCCEED();
  }
};

TEST_P(FuzzDecoders, RandomBytesNeverCrash) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) feed(random_bytes(rng, 400));
}

TEST_P(FuzzDecoders, MutatedValidFramesNeverCrash) {
  util::Rng rng(GetParam() ^ 0xfeed);

  // Valid seeds for each format.
  netsim::Packet p;
  p.src = netsim::IpAddr::v4(10, 8, 0, 2);
  p.dst = netsim::IpAddr::v4(8, 8, 8, 8);
  p.payload = "DNSQ|1|0|example.com";
  const std::string tunnel_frame = netsim::encode_inner(p);

  dns::DnsResponse resp;
  resp.id = 3;
  resp.name = "a.example.com";
  resp.addresses = {netsim::IpAddr::v4(1, 2, 3, 4)};
  const std::string dns_frame = resp.encode();

  http::HttpRequest req;
  req.host = "example.com";
  req.headers = {{"User-Agent", "x"}};
  const std::string http_frame = req.encode();

  const std::string cert_frame =
      tlssim::issue_chain("example.com", "CA", 7).encode();

  vpn::OvpnConfig config;
  config.remote_host = "45.0.0.1";
  config.dhcp_dns = {netsim::IpAddr::v4(10, 8, 0, 1)};
  const std::string ovpn_text = config.serialize();

  obs::ShardTrace trace;
  trace.shard = "NordVPN";
  obs::TraceEvent span;
  span.id = 1;
  span.name = "shard.run";
  span.category = "campaign";
  span.sim_dur_us = 1500;
  span.args = {{"provider", "NordVPN"}};
  trace.events = {span};
  trace.metrics.add("net.transact.ok", 3);
  trace.metrics.set_gauge("queue.depth", -0.0);
  trace.metrics.observe("net.rtt_ms", 12.5, obs::kRttBucketsMs);
  trace.metrics.set_volatile("net.rtt_ms");
  const std::string trace_frame = obs::encode_shard_trace(trace);

  for (int i = 0; i < 100; ++i) {
    feed(mutate(rng, tunnel_frame));
    feed(mutate(rng, dns_frame));
    feed(mutate(rng, http_frame));
    feed(mutate(rng, cert_frame));
    feed(mutate(rng, ovpn_text));
    feed(mutate(rng, trace_frame));
  }
}

TEST_P(FuzzDecoders, DecodedValidFramesReencodeStably) {
  // For inputs that DO decode, re-encoding and re-decoding must agree —
  // the "no silent mangling" property.
  util::Rng rng(GetParam() ^ 0xc0de);
  for (int i = 0; i < 100; ++i) {
    const auto input = random_bytes(rng, 200);
    if (const auto q = dns::DnsQuery::decode(input)) {
      const auto again = dns::DnsQuery::decode(q->encode());
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(again->name, q->name);
      EXPECT_EQ(again->id, q->id);
    }
    if (const auto r = http::HttpResponse::decode(input)) {
      const auto again = http::HttpResponse::decode(r->encode());
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(again->status, r->status);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecoders,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace vpna
