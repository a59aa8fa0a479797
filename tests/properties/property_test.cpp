// Property-based sweeps (parameterized gtest): invariants that must hold
// across whole input families, not just hand-picked cases.
#include <gtest/gtest.h>

#include <cmath>

#include "dns/client.h"
#include "ecosystem/testbed.h"
#include "geo/geodb.h"
#include "http/message.h"
#include "netsim/ip.h"
#include "util/rng.h"
#include "vpn/client.h"

namespace vpna {
namespace {

// ---------------------------------------------------------------------------
// Physics invariant: between any two cities, the simulated network can never
// beat the speed of light through fiber, and never exceeds a sane stretch.
// ---------------------------------------------------------------------------

class RttPhysicsProperty : public ::testing::TestWithParam<std::size_t> {
 protected:
  static inet::World& world() {
    static inet::World w(31337);
    return w;
  }
};

TEST_P(RttPhysicsProperty, RttBoundedBelowBySpeedOfLight) {
  const auto all = geo::cities();
  const auto& from = all[GetParam() % all.size()];
  const auto& to = all[(GetParam() * 7 + 13) % all.size()];
  if (from.name == to.name) GTEST_SKIP();

  auto& a = world().spawn_client(
      from.name, "prop-a-" + std::to_string(GetParam()));
  auto& b = world().spawn_client(
      to.name, "prop-b-" + std::to_string(GetParam()));
  const auto rtt =
      world().network().ping(a, *b.primary_addr(netsim::IpFamily::kV4));
  ASSERT_TRUE(rtt.has_value()) << from.name << " -> " << to.name;

  const double bound = geo::min_rtt_ms(from.location, to.location);
  EXPECT_GE(*rtt + 1e-6, bound) << from.name << " -> " << to.name;
  // And paths are not absurd: under 6x the great-circle bound plus fixed
  // overhead slack for nearby cities.
  EXPECT_LE(*rtt, bound * 6 + 60) << from.name << " -> " << to.name;
}

INSTANTIATE_TEST_SUITE_P(CityPairs, RttPhysicsProperty,
                         ::testing::Range<std::size_t>(0, 40));

// ---------------------------------------------------------------------------
// Provider invariants: for EVERY evaluated provider, connecting to its first
// vantage point yields egress identity, leak behaviour consistent with its
// flags, and clean state restoration on disconnect.
// ---------------------------------------------------------------------------

class ProviderInvariants : public ::testing::TestWithParam<std::string> {
 protected:
  struct Env {
    ecosystem::Testbed tb = ecosystem::build_testbed();
    std::uint32_t session = 7000;
  };
  static Env& env() {
    static Env e;
    return e;
  }
};

TEST_P(ProviderInvariants, ConnectLeakProfileAndRestore) {
  auto& e = env();
  const auto* provider = e.tb.provider(GetParam());
  ASSERT_NE(provider, nullptr);
  auto& client_host = *e.tb.client;
  auto& world = *e.tb.world;

  const auto routes_before = client_host.routes().routes().size();
  const auto dns_before = client_host.dns_servers();

  vpn::VpnClient client(world.network(), client_host, provider->spec,
                        ++e.session);
  const auto conn = client.connect(provider->vantage_points.front().addr);
  ASSERT_TRUE(conn.connected) << conn.error_message;

  // Invariant 1: the tunnel-internal address is in 10.8/16 and a tun
  // interface exists.
  EXPECT_TRUE(netsim::Cidr::parse("10.8.0.0/16")->contains(conn.assigned_addr));
  EXPECT_NE(client_host.find_interface("tun0"), nullptr);

  // Invariant 2: IPv4 web traffic rides the tunnel (via_tunnel set).
  netsim::Packet probe;
  probe.dst = world.anchors().front().addr;
  probe.proto = netsim::Proto::kIcmpEcho;
  const auto res = world.network().transact(client_host, std::move(probe));
  EXPECT_TRUE(res.ok());
  EXPECT_TRUE(res.via_tunnel);

  // Invariant 3: DNS leak occurs exactly when the client does not redirect
  // the OS resolvers.
  client_host.capture().clear();
  (void)dns::resolve_system(world.network(), client_host,
                            "daily-courier-news.com", dns::RrType::kA);
  int clear_dns = 0;
  for (const auto& rec : client_host.capture().on_interface("eth0")) {
    if (rec.direction == netsim::Direction::kOut &&
        rec.packet.dst_port == netsim::kPortDns &&
        !netsim::is_tunnel_frame(rec.packet.payload))
      ++clear_dns;
  }
  if (provider->spec.behavior.redirects_dns) {
    EXPECT_EQ(clear_dns, 0) << GetParam();
  } else {
    EXPECT_GT(clear_dns, 0) << GetParam();
  }

  // Invariant 4: disconnect restores routes, resolvers and interfaces.
  client.disconnect();
  EXPECT_EQ(client_host.routes().routes().size(), routes_before) << GetParam();
  EXPECT_EQ(client_host.dns_servers(), dns_before) << GetParam();
  EXPECT_EQ(client_host.find_interface("tun0"), nullptr);
  EXPECT_FALSE(client_host.has_tunnel_hook());
  client_host.capture().clear();
}

INSTANTIATE_TEST_SUITE_P(
    AllEvaluatedProviders, ProviderInvariants,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const auto& p : ecosystem::evaluated_providers())
        names.push_back(p.spec.name);
      return names;
    }()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

// ---------------------------------------------------------------------------
// Wire-format round-trips over generated inputs.
// ---------------------------------------------------------------------------

class WireRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireRoundTripProperty, IpAddrStringRoundTrip) {
  util::Rng rng(GetParam());
  // Random v4.
  const auto v4 = netsim::IpAddr::v4(static_cast<std::uint32_t>(rng.next()));
  EXPECT_EQ(*netsim::IpAddr::parse(v4.str()), v4);
  // Random v6.
  std::array<std::uint8_t, 16> bytes{};
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  const auto v6 = netsim::IpAddr::v6(bytes);
  const auto parsed = netsim::IpAddr::parse(v6.str());
  ASSERT_TRUE(parsed.has_value()) << v6.str();
  EXPECT_EQ(*parsed, v6);
}

TEST_P(WireRoundTripProperty, TunnelEncapsulationRoundTrip) {
  util::Rng rng(GetParam() ^ 0xabcdef);
  netsim::Packet p;
  p.src = netsim::IpAddr::v4(static_cast<std::uint32_t>(rng.next()));
  p.dst = netsim::IpAddr::v4(static_cast<std::uint32_t>(rng.next()));
  p.proto = static_cast<netsim::Proto>(rng.uniform_int(0, 4));
  p.src_port = static_cast<std::uint16_t>(rng.next());
  p.dst_port = static_cast<std::uint16_t>(rng.next());
  p.ttl = static_cast<int>(rng.uniform_int(0, 255));
  const auto len = static_cast<std::size_t>(rng.uniform_int(0, 300));
  for (std::size_t i = 0; i < len; ++i)
    p.payload += static_cast<char>(rng.uniform_int(32, 126));

  const auto decoded = netsim::decode_inner(netsim::encode_inner(p));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->src, p.src);
  EXPECT_EQ(decoded->dst, p.dst);
  EXPECT_EQ(decoded->proto, p.proto);
  EXPECT_EQ(decoded->src_port, p.src_port);
  EXPECT_EQ(decoded->dst_port, p.dst_port);
  EXPECT_EQ(decoded->ttl, p.ttl);
  EXPECT_EQ(decoded->payload, p.payload);
}

TEST_P(WireRoundTripProperty, HttpRequestRoundTripIsByteStable) {
  util::Rng rng(GetParam() ^ 0x1234);
  http::HttpRequest req;
  req.method = rng.chance(0.5) ? "GET" : "POST";
  req.host = "host-" + std::to_string(rng.uniform_int(0, 999)) + ".example";
  req.path = "/p" + std::to_string(rng.uniform_int(0, 999));
  const auto header_count = rng.uniform_int(0, 6);
  for (int i = 0; i < header_count; ++i) {
    req.headers.emplace_back("X-H" + std::to_string(i),
                             "value " + std::to_string(rng.next() % 1000));
  }
  if (req.method == "POST") req.body = "k=v&n=" + std::to_string(rng.next());

  const auto once = req.encode();
  const auto decoded = http::HttpRequest::decode(once);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->encode(), once);  // byte-stable: the proxy-test anchor
}

TEST_P(WireRoundTripProperty, DnsResponseRoundTrip) {
  util::Rng rng(GetParam() ^ 0x777);
  dns::DnsResponse r;
  r.id = static_cast<std::uint16_t>(rng.next());
  r.type = static_cast<dns::RrType>(rng.uniform_int(0, 1));
  r.name = "n" + std::to_string(rng.uniform_int(0, 99)) + ".example.com";
  const auto answer_count = rng.uniform_int(0, 4);
  for (int i = 0; i < answer_count; ++i) {
    r.addresses.push_back(
        r.type == dns::RrType::kA
            ? netsim::IpAddr::v4(static_cast<std::uint32_t>(rng.next()))
            : netsim::IpAddr::v6_groups(
                  {static_cast<std::uint16_t>(rng.next()), 1, 2, 3, 4, 5, 6,
                   static_cast<std::uint16_t>(rng.next())}));
  }
  const auto decoded = dns::DnsResponse::decode(r.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, r.id);
  EXPECT_EQ(decoded->addresses, r.addresses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTripProperty,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---------------------------------------------------------------------------
// Cidr containment properties over generated prefixes.
// ---------------------------------------------------------------------------

class CidrProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CidrProperty, NetworkAddressIsContainedAndCanonical) {
  util::Rng rng(GetParam());
  const auto addr = netsim::IpAddr::v4(static_cast<std::uint32_t>(rng.next()));
  const int plen = static_cast<int>(rng.uniform_int(0, 32));
  const netsim::Cidr c(addr, plen);
  EXPECT_TRUE(c.contains(addr));
  EXPECT_TRUE(c.contains(c.network()));
  // Masking is idempotent: rebuilding from the network is identical.
  EXPECT_EQ(netsim::Cidr(c.network(), plen), c);
  // Parse round-trip.
  EXPECT_EQ(*netsim::Cidr::parse(c.str()), c);
}

TEST_P(CidrProperty, SubPrefixesNestProperly) {
  util::Rng rng(GetParam() ^ 0x55);
  const auto addr = netsim::IpAddr::v4(static_cast<std::uint32_t>(rng.next()));
  const int outer = static_cast<int>(rng.uniform_int(0, 24));
  const int inner = outer + static_cast<int>(rng.uniform_int(1, 8));
  const netsim::Cidr big(addr, outer);
  const netsim::Cidr small(addr, inner);
  // Everything in the small prefix is in the big one.
  EXPECT_TRUE(big.contains(small.network()));
  EXPECT_TRUE(big.contains(addr));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CidrProperty,
                         ::testing::Range<std::uint64_t>(1, 25));

// ---------------------------------------------------------------------------
// Geo-database invariants across every registered allocation.
// ---------------------------------------------------------------------------

class GeoDbInvariant : public ::testing::TestWithParam<int> {
 protected:
  static inet::World& world() {
    static inet::World w(2025);
    return w;
  }
};

TEST_P(GeoDbInvariant, HonestBlocksNeverReportSpoofedData) {
  auto& w = world();
  const auto& allocations = w.geo_registry()->allocations();
  const auto& db = GetParam() == 0   ? w.db_maxmind()
                   : GetParam() == 1 ? w.db_ip2location()
                                     : w.db_google();
  int answered = 0, truthful = 0;
  for (const auto& alloc : allocations) {
    if (alloc.spoofed()) continue;
    const auto rec = db.lookup(alloc.block.host_at(1));
    if (!rec) continue;
    ++answered;
    // For honest allocations the answer is either the truth or the
    // database's independent error — never a *systematically* different
    // location; errors stay a small minority.
    if (rec->country_code == alloc.true_location.country_code) ++truthful;
  }
  ASSERT_GT(answered, 20);
  EXPECT_GT(static_cast<double>(truthful) / answered, 0.90);
}

TEST_P(GeoDbInvariant, RepeatedLookupsAgree) {
  auto& w = world();
  const auto& db = GetParam() == 0   ? w.db_maxmind()
                   : GetParam() == 1 ? w.db_ip2location()
                                     : w.db_google();
  for (const auto& dc : w.datacenters()) {
    const auto addr = dc.pool4.host_at(3);
    const auto first = db.lookup(addr);
    const auto second = db.lookup(addr);
    ASSERT_EQ(first.has_value(), second.has_value());
    if (first) {
      EXPECT_EQ(first->country_code, second->country_code);
      EXPECT_EQ(first->city, second->city);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreeDatabases, GeoDbInvariant,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace vpna
