#include "ecosystem/testbed.h"

#include <algorithm>
#include <set>

#include "ecosystem/capacity.h"
#include "obs/profiler.h"
#include "util/rng.h"

namespace vpna::ecosystem {

namespace {

// Aliases `count` of the partner's vantage points into `target` so both
// providers list the same server addresses (reseller infrastructure).
void alias_shared_vantage_points(vpn::DeployedProvider& target,
                                 const vpn::DeployedProvider& partner,
                                 const std::vector<std::string>& shared_ids) {
  const std::size_t count =
      std::min(shared_ids.size(), partner.vantage_points.size());
  for (std::size_t i = 0; i < count; ++i) {
    const auto& src = partner.vantage_points[i];
    vpn::DeployedVantagePoint alias = src;
    alias.spec.id = shared_ids[i];
    target.vantage_points.push_back(std::move(alias));
    target.spec.vantage_points.push_back(alias.spec);
  }
}

Testbed build(const std::vector<const EvaluatedProvider*>& selection,
              std::uint64_t seed,
              std::shared_ptr<const netsim::RoutingPlane> plane) {
  Testbed tb;
  tb.world = std::make_unique<inet::World>(seed, std::move(plane));
  tb.providers.reserve(selection.size());

  for (const auto* ep : selection) {
    auto deployed = vpn::deploy_provider(*tb.world, ep->spec);
    tb.providers.push_back(std::move(deployed));
  }

  // Second pass: reseller aliasing (requires partners deployed).
  for (const auto* ep : selection) {
    if (ep->shares_infrastructure_with.empty()) continue;
    vpn::DeployedProvider* target = nullptr;
    const vpn::DeployedProvider* partner = nullptr;
    for (auto& p : tb.providers) {
      if (p.spec.name == ep->spec.name) target = &p;
      if (p.spec.name == ep->shares_infrastructure_with) partner = &p;
    }
    if (target != nullptr && partner != nullptr)
      alias_shared_vantage_points(*target, *partner, ep->shared_vantage_ids);
  }

  tb.client = &tb.world->spawn_client("Chicago", "measurement-vm");
  return tb;
}

}  // namespace

Testbed build_testbed(std::uint64_t seed,
                      std::shared_ptr<const netsim::RoutingPlane> plane) {
  std::vector<const EvaluatedProvider*> all;
  for (const auto& ep : evaluated_providers()) all.push_back(&ep);
  return build(all, seed, std::move(plane));
}

Testbed build_testbed_subset(const std::vector<std::string>& names,
                             std::uint64_t seed,
                             std::shared_ptr<const netsim::RoutingPlane> plane) {
  std::vector<const EvaluatedProvider*> selection;
  std::set<std::string> seen;
  for (const auto& name : names) {
    const auto* ep = evaluated_provider(name);
    if (ep != nullptr && seen.insert(ep->spec.name).second)
      selection.push_back(ep);
  }
  return build(selection, seed, std::move(plane));
}

std::uint64_t shard_seed(std::uint64_t campaign_seed,
                         std::string_view provider_name) {
  // Same mixing discipline as Rng::fork: the derived seed depends only on
  // (campaign seed, provider name).
  return util::Rng(campaign_seed).fork(provider_name).seed();
}

Testbed build_provider_shard(std::string_view name, std::uint64_t campaign_seed,
                             std::shared_ptr<const netsim::RoutingPlane> plane,
                             faults::FaultProfile profile,
                             bool link_capacities) {
  const auto* target = evaluated_provider(name);
  if (target == nullptr) return {};
  obs::ProfileScope build_profile("shard.build");

  // Catalog-order selection of {target} ∪ {reseller partner}: the partner
  // must be deployed in the shard for vantage-point aliasing to resolve.
  std::vector<const EvaluatedProvider*> selection;
  for (const auto& ep : evaluated_providers()) {
    if (ep.spec.name == target->spec.name ||
        (!target->shares_infrastructure_with.empty() &&
         ep.spec.name == target->shares_infrastructure_with))
      selection.push_back(&ep);
  }
  const auto seed = shard_seed(campaign_seed, target->spec.name);
  auto tb = build(selection, seed, std::move(plane));
  apply_fault_profile(tb, profile, seed);
  if (link_capacities) apply_link_capacities(tb, seed);
  return tb;
}

void apply_fault_profile(Testbed& tb, faults::FaultProfile profile,
                         std::uint64_t seed) {
  if (profile == faults::FaultProfile::kOff || !tb.world) return;

  faults::FaultTargets targets;
  auto& net = tb.world->network();
  targets.router_count = net.router_count();
  targets.links = net.link_pairs();
  for (const auto& provider : tb.providers)
    for (const auto& vp : provider.vantage_points)
      targets.vpn_gateways.push_back(vp.addr);
  targets.dns_servers = {tb.world->google_dns(), tb.world->quad9_dns(),
                         tb.world->isp_resolver()};

  // The plan seed forks off the shard seed with a fixed label, so the fault
  // schedule — like everything else in the shard — is a pure function of
  // (campaign seed, provider name), never of worker identity.
  auto plan = faults::FaultPlan::generate(
      profile, util::Rng(seed).fork("faults").seed(), targets);
  tb.fault_injector = std::make_shared<faults::Injector>(std::move(plan));
  net.set_fault_injector(tb.fault_injector);
}

std::shared_ptr<const netsim::RoutingPlane> shared_backbone_plane() {
  // Built once per process from a throwaway world. The core topology is a
  // deterministic function of the city/datacenter catalogs (not the seed),
  // so this plane matches every World the process will ever construct —
  // adopt_routing_plane() verifies that by fingerprint.
  static const std::shared_ptr<const netsim::RoutingPlane> plane = [] {
    inet::World scout(0);
    return scout.network().routing_plane();
  }();
  return plane;
}

}  // namespace vpna::ecosystem
