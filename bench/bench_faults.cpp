// Fault-plane microbench: the disabled check must be free.
//
// The fault injector hangs off `Network::deliver`, which sits on the
// transact fast path — so the acceptance bar for the PR is that a network
// with no injector installed stays within noise (≤5%) of the pre-fault
// baseline, and even an installed-but-idle plan (empty schedule) costs only
// a couple of predictable branches per packet. The active-plan row prices
// what a flaky campaign actually pays: per-packet counter-PRNG rolls plus
// window checks.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.h"
#include "faults/injector.h"
#include "faults/plan.h"
#include "netsim/network.h"
#include "util/rng.h"

using namespace vpna;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr std::uint16_t kPort = 7777;

struct World {
  util::SimClock clock;
  netsim::Network net{clock, util::Rng(1), 0.0};
  netsim::Host client{"client"};
  netsim::Host server{"server"};
  netsim::IpAddr server_addr = netsim::IpAddr::v4(45, 0, 0, 10);

  World() {
    const auto r0 = net.add_router("r0");
    const auto r1 = net.add_router("r1");
    net.add_link(r0, r1, 10.0);
    client.add_interface("eth0", netsim::IpAddr::v4(71, 80, 0, 10),
                         std::nullopt);
    client.routes().add({*netsim::Cidr::parse("0.0.0.0/0"), "eth0",
                         std::nullopt, 0});
    net.attach_host(client, r0, 1.0);
    server.add_interface("eth0", server_addr, std::nullopt);
    server.routes().add({*netsim::Cidr::parse("0.0.0.0/0"), "eth0",
                         std::nullopt, 0});
    net.attach_host(server, r1, 1.0);
    server.bind_service(netsim::Proto::kUdp, kPort,
                        std::make_shared<netsim::LambdaService>(
                            [](netsim::ServiceContext& ctx)
                                -> std::optional<std::string> {
                              return "echo:" + ctx.request.payload;
                            }));
    client.capture().set_enabled(false);
    server.capture().set_enabled(false);
  }
};

constexpr int kExchanges = 200000;
constexpr int kRounds = 5;

double bench_transacts(World& w) {
  double best = 1e18;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kExchanges; ++i) {
      netsim::Packet p;
      p.dst = w.server_addr;
      p.proto = netsim::Proto::kUdp;
      p.src_port = w.client.next_ephemeral_port();
      p.dst_port = kPort;
      p.payload = "ping";
      (void)w.net.transact(w.client, std::move(p));
    }
    best = std::min(best, ms_since(t0));
  }
  return best;
}

// A realistic flaky-grade plan whose windows never open during the bench
// (start far in virtual future) but whose background drop probability rolls
// the counter PRNG on every packet — the steady-state per-packet cost of an
// armed schedule, without non-deterministic drop/timeout noise in the
// timing loop.
faults::FaultPlan rolling_plan() {
  faults::FaultPlan plan;
  plan.seed = 42;
  plan.packet_drop_probability = 1e-12;  // rolls every packet, drops none
  faults::AddrOutage outage;
  outage.addr = netsim::IpAddr::v4(45, 0, 0, 99);  // not our server
  outage.window = {1e15, 1000.0, 0.0};
  plan.addr_outages.push_back(outage);
  faults::LinkFault link;
  link.a = 0;
  link.b = 1;
  link.drop_probability = 0.5;
  link.window = {1e15, 1000.0, 0.0};
  plan.link_faults.push_back(link);
  return plan;
}

}  // namespace

int main() {
  bench::print_header("Fault plane",
                      "per-packet cost of the Network::deliver fault hook");

  World w;
  const double none_ms = bench_transacts(w);

  w.net.set_fault_injector(
      std::make_shared<faults::Injector>(faults::FaultPlan{}));
  const double idle_ms = bench_transacts(w);

  w.net.set_fault_injector(std::make_shared<faults::Injector>(rolling_plan()));
  const double active_ms = bench_transacts(w);

  const double none_pps = kExchanges / none_ms * 1e3;
  const double idle_ns = (idle_ms - none_ms) / kExchanges * 1e6;
  const double active_ns = (active_ms - none_ms) / kExchanges * 1e6;
  bench::compare("no injector exchanges/sec", "pre-fault baseline",
                 util::format("%.0f", none_pps));
  bench::compare("empty-plan injector", "branch-only, <50ns/exchange",
                 util::format("%.0f/sec (+%.0fns/exchange)",
                              kExchanges / idle_ms * 1e3, idle_ns));
  bench::compare("armed plan (PRNG rolls, closed windows)",
                 "<250ns/exchange",
                 util::format("%.0f/sec (+%.0fns/exchange)",
                              kExchanges / active_ms * 1e3, active_ns));
  bench::note("a plain campaign pays the kOff hook inside perfbench's audit "
              "workload (netsim.transact_ns); this bench prices the hook "
              "itself at packet granularity");
  return 0;
}
