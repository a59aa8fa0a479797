// Testbed assembly: deploys the full evaluated-provider set into a
// simulated world and provisions the measurement client VM — the starting
// state of every experiment in the paper's §6.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ecosystem/evaluated.h"
#include "faults/injector.h"
#include "faults/profile.h"
#include "inet/world.h"
#include "vpn/deploy.h"

namespace vpna::ecosystem {

struct Testbed {
  std::unique_ptr<inet::World> world;
  std::vector<vpn::DeployedProvider> providers;
  netsim::Host* client = nullptr;  // the measurement VM (Chicago eyeball)
  // The fault injector installed on the world's network (nullptr under
  // FaultProfile::kOff); owned here so its plan outlives the network.
  std::shared_ptr<faults::Injector> fault_injector;

  [[nodiscard]] const vpn::DeployedProvider* provider(
      std::string_view name) const {
    for (const auto& p : providers)
      if (p.spec.name == name) return &p;
    return nullptr;
  }

  [[nodiscard]] std::size_t total_vantage_points() const {
    std::size_t n = 0;
    for (const auto& p : providers) n += p.vantage_points.size();
    return n;
  }
};

// Builds a world (seeded) and deploys every evaluated provider into it.
// Reseller-shared vantage points (Anonine/Boxpn) alias onto the partner's
// hosts, yielding exact-IP overlap in the census. `plane`, when given, is
// adopted by the world's network instead of recomputing all-pairs routes
// (see shared_backbone_plane()).
[[nodiscard]] Testbed build_testbed(
    std::uint64_t seed = 20181031,
    std::shared_ptr<const netsim::RoutingPlane> plane = nullptr);

// Deploys a named subset (for cheaper tests): only providers whose names
// appear in `names`. Unknown names are ignored and duplicates deploy once
// (first occurrence wins), so a subset never contains two providers with
// the same name.
[[nodiscard]] Testbed build_testbed_subset(
    const std::vector<std::string>& names, std::uint64_t seed = 20181031,
    std::shared_ptr<const netsim::RoutingPlane> plane = nullptr);

// Stable per-provider shard seed for parallel campaigns: derived only from
// the campaign seed and the provider name, never from worker id, worker
// count or scheduling order — the root of the engine's determinism
// guarantee (same campaign seed => identical shard worlds at any --jobs).
[[nodiscard]] std::uint64_t shard_seed(std::uint64_t campaign_seed,
                                       std::string_view provider_name);

// Builds the single-provider testbed a campaign worker runs in isolation:
// a fresh world seeded with shard_seed(campaign_seed, name), holding the
// named provider plus — when it resells another provider's infrastructure —
// that partner, so reseller vantage-point aliasing (Anonine/Boxpn exact-IP
// overlap) survives shard deployment. Returns an empty testbed (no world)
// for unknown names. `link_capacities` provisions the traffic plane
// (ecosystem::apply_link_capacities, seeded from the shard seed) so the
// speed-test suite can run; false — the default — leaves every link
// capacity-less and the shard byte-identical to a pre-traffic-plane build.
[[nodiscard]] Testbed build_provider_shard(
    std::string_view name, std::uint64_t campaign_seed,
    std::shared_ptr<const netsim::RoutingPlane> plane = nullptr,
    faults::FaultProfile profile = faults::FaultProfile::kOff,
    bool link_capacities = false);

// Generates the profile's FaultPlan for `tb` — targets sampled from the
// deployed world: every vantage-point address, the public/ISP resolvers,
// the real link list — seeded solely from (`seed`, "faults"), and installs
// the injector on the network. kOff is a no-op (no injector, byte-identical
// behaviour). Called by build_provider_shard; exposed for tests and benches
// that assemble worlds by hand.
void apply_fault_profile(Testbed& tb, faults::FaultProfile profile,
                         std::uint64_t seed);

// The all-pairs routing plane of the backbone + datacenter core every
// World builds, computed once per process (from a throwaway world) and
// shared from then on. Worlds constructed with this plane skip their own
// all-pairs sweep; the fingerprint check in adopt_routing_plane() guards
// the contract. Thread-safe (static initialization); the plane itself is
// immutable.
[[nodiscard]] std::shared_ptr<const netsim::RoutingPlane>
shared_backbone_plane();

}  // namespace vpna::ecosystem
