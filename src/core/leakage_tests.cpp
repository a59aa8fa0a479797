#include "core/leakage_tests.h"

#include "dns/client.h"
#include "transport/flow.h"

namespace vpna::core {

namespace {

// Counts un-encapsulated packets matching `pred` captured outbound on the
// physical interface since `since_index`.
template <typename Pred>
int count_clear_on_eth0(const netsim::Host& client, std::size_t since_index,
                        Pred pred) {
  int n = 0;
  const auto& records = client.capture().records();
  for (std::size_t i = since_index; i < records.size(); ++i) {
    const auto& rec = records[i];
    if (rec.interface_name != "eth0") continue;
    if (rec.direction != netsim::Direction::kOut) continue;
    if (netsim::is_tunnel_frame(rec.packet.payload)) continue;  // encapsulated
    if (pred(rec.packet)) ++n;
  }
  return n;
}

}  // namespace

DnsLeakResult run_dns_leak_test(inet::World& world, netsim::Host& client) {
  DnsLeakResult out;
  const std::size_t mark = client.capture().records().size();

  const std::vector<std::string> names = {
      "daily-courier-news.com", "wikipedia.org", "chatter-square.com",
      "kernel-patch-news.net", "stock-ticker-watch.com"};
  // System resolver path plus explicit public resolvers. Failed lookups are
  // tallied (not swallowed): the capture scan below still decides "leaked",
  // but a dead resolver no longer masquerades as a clean result.
  const auto tally = [&out](const dns::LookupResult& res) {
    ++out.queries_issued;
    if (!res.ok()) {
      ++out.queries_failed;
      out.last_error = res.error;
    }
  };
  for (const auto& name : names)
    tally(dns::resolve_system(world.network(), client, name, dns::RrType::kA));
  for (const auto& name : names) {
    tally(dns::query(world.network(), client, world.google_dns(), name,
                     dns::RrType::kA));
    tally(dns::query(world.network(), client, world.quad9_dns(), name,
                     dns::RrType::kA));
  }

  out.plaintext_dns_on_physical_interface =
      count_clear_on_eth0(client, mark, [](const netsim::Packet& p) {
        return p.proto == netsim::Proto::kUdp &&
               p.dst_port == netsim::kPortDns;
      });
  return out;
}

Ipv6LeakResult run_ipv6_leak_test(inet::World& world, netsim::Host& client) {
  Ipv6LeakResult out;
  const std::size_t mark = client.capture().records().size();

  // Resolve AAAA records for dual-stack sites, then attempt direct v6
  // connections to them.
  const std::vector<std::string> names = {
      "daily-courier-news.com", "metro-herald.net", "worldwire-report.com",
      "capital-dispatch.org", "policy-tribune.net"};
  for (const auto& name : names) {
    const auto aaaa =
        dns::resolve_system(world.network(), client, name, dns::RrType::kAaaa);
    if (!aaaa.ok() || aaaa.addresses.empty()) {
      if (!aaaa.ok()) {
        ++out.lookup_failures;
        out.last_error = aaaa.error;
      }
      continue;
    }
    ++out.attempts;
    transport::Flow conn(world.network(), client, netsim::Proto::kTcp,
                         aaaa.addresses.front(), netsim::kPortHttp);
    const auto res = conn.exchange("GET / HTTP/1.1\nHost: " + name + "\n\n");
    if (res.ok() && !res.via_tunnel) ++out.v6_connections_succeeded_outside_tunnel;
    if (!res.error.ok()) {
      ++out.connect_failures;
      out.last_error = res.error;
    }
  }

  out.v6_packets_on_physical_interface = count_clear_on_eth0(
      client, mark, [](const netsim::Packet& p) { return p.dst.is_v6(); });
  return out;
}

TunnelFailureResult run_tunnel_failure_test(inet::World& world,
                                            netsim::Host& client,
                                            vpn::VpnClient& vpn_client,
                                            double window_seconds) {
  TunnelFailureResult out;
  out.window_seconds = window_seconds;
  if (vpn_client.state() != vpn::ClientState::kConnected) return out;

  // Block all outbound traffic to the VPN server on the hardware path.
  netsim::FwRule deny;
  deny.action = netsim::FwAction::kDeny;
  deny.direction = netsim::Direction::kOut;
  deny.remote_addr = vpn_client.server_addr();
  deny.label = "induced-failure";
  client.firewall().add_rule(deny);
  out.failure_induced = true;

  // Fixed probe set: the first three anchors.
  std::vector<netsim::IpAddr> probes;
  for (std::size_t i = 0; i < 3 && i < world.anchors().size(); ++i)
    probes.push_back(world.anchors()[i].addr);

  const auto t_end = world.clock().now() +
                     util::SimTime::from_seconds(window_seconds);
  while (world.clock().now() < t_end) {
    vpn_client.tick();
    for (const auto& dst : probes) {
      transport::FlowOptions fopts;
      fopts.timeout_ms = 500.0;
      transport::Flow probe(world.network(), client, netsim::Proto::kIcmpEcho,
                            dst, 0, fopts);
      const auto res = probe.exchange({});
      ++out.probes_sent;
      if (res.ok() && !res.via_tunnel) ++out.probes_escaped_clear;
      if (!res.error.ok()) {
        ++out.probes_failed;
        out.last_probe_error = res.error;
      }
    }
    world.clock().advance_seconds(10);
  }

  client.firewall().remove_label("induced-failure");
  out.final_state = vpn_client.state();
  return out;
}

WebRtcLeakResult run_webrtc_leak_test(inet::World& world,
                                      netsim::Host& client) {
  WebRtcLeakResult out;
  out.connected_via_vpn = client.has_tunnel_hook();

  // Host candidates: every global address on an up interface, exactly what
  // 2018-era browsers handed to any page through RTCPeerConnection.
  for (const auto& iface : client.interfaces()) {
    if (iface.name == "lo" || !iface.up) continue;
    if (iface.addr4) out.host_candidates.push_back(*iface.addr4);
    if (iface.addr6) out.host_candidates.push_back(*iface.addr6);
  }

  // Server-reflexive candidate: a STUN binding request through whatever
  // route the system gives it (the tunnel, when one is up).
  const auto lookup = dns::resolve_system(world.network(), client,
                                          inet::stun_host(), dns::RrType::kA);
  if (lookup.ok() && !lookup.addresses.empty()) {
    transport::Flow stun(world.network(), client, netsim::Proto::kUdp,
                         lookup.addresses.front(), inet::kPortStun);
    const auto res = stun.exchange("STUN-BINDING");
    if (res.ok() && res.reply.starts_with("MAPPED|"))
      out.reflexive_candidate = netsim::IpAddr::parse(res.reply.substr(7));
  }

  // The leak: a site scripting ICE gathering learns the physical
  // interface's address even though every packet rides the tunnel.
  if (out.connected_via_vpn) {
    const auto* eth0 = client.find_interface("eth0");
    if (eth0 != nullptr && eth0->addr4) {
      for (const auto& candidate : out.host_candidates)
        if (candidate == *eth0->addr4) out.reveals_true_address = true;
    }
  }
  return out;
}

}  // namespace vpna::core
