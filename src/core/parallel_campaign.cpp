#include "core/parallel_campaign.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "core/report_codec.h"
#include "ecosystem/evaluated.h"
#include "ecosystem/testbed.h"
#include "faults/profile.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "store/code_epoch.h"
#include "transport/policy.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vpna::core {

namespace {

// The shard body shared by the plain and traced entry points; assumes any
// desired obs binding is already installed on the calling thread.
ProviderReport run_shard_body(const std::string& name,
                              std::uint64_t campaign_seed,
                              const RunnerOptions& options,
                              ecosystem::Testbed& shard) {
  // Fault profiles arm transport-level resilience for the whole shard:
  // every flow that didn't pick its own retry/fallback settings adopts the
  // profile's. kOff installs nothing (session_policy_for returns nullptr).
  transport::ScopedSessionPolicy session_policy(
      faults::session_policy_for(options.fault_profile));
  // Degradation records attribute give-ups to injected faults via the
  // faults.* counters, which only exist while a registry is bound. Traced
  // campaigns already bind one per shard; for untraced fault-profile runs,
  // bind a throwaway metrics-only registry here. Never engaged under kOff,
  // so off-profile shards observe exactly what they did before.
  obs::MetricsRegistry attribution;
  std::optional<obs::ScopedObservation> attribution_scope;
  if (options.fault_profile != faults::FaultProfile::kOff &&
      obs::meter() == nullptr)
    attribution_scope.emplace(nullptr, &attribution);

  obs::ProfileScope profile("shard.run");
  obs::Span root("shard.run", "campaign");
  if (root) {
    root.arg("provider", name);
    root.arg("seed", static_cast<std::int64_t>(campaign_seed));
  }
  TestRunner runner(shard, options);
  runner.collect_ground_truth();
  const auto* deployed = shard.provider(name);
  if (deployed == nullptr)
    throw std::runtime_error("run_provider_shard: shard missing " + name);
  return runner.run_provider(*deployed);
}

}  // namespace

ProviderReport run_provider_shard(
    const std::string& name, std::uint64_t campaign_seed,
    const RunnerOptions& options,
    std::shared_ptr<const netsim::RoutingPlane> plane) {
  return run_provider_shard(name, campaign_seed, options, obs::TraceConfig{},
                            nullptr, std::move(plane));
}

ProviderReport run_provider_shard(
    const std::string& name, std::uint64_t campaign_seed,
    const RunnerOptions& options, const obs::TraceConfig& trace,
    obs::ShardTrace* out, std::shared_ptr<const netsim::RoutingPlane> plane) {
  auto shard = ecosystem::build_provider_shard(
      name, campaign_seed, std::move(plane), options.fault_profile,
      options.speed_test);
  if (!shard.world)
    throw std::invalid_argument("run_provider_shard: unknown provider " + name);
  if (!trace.enabled || out == nullptr)
    return run_shard_body(name, campaign_seed, options, shard);

  obs::TraceRecorder recorder(trace);
  recorder.bind_clock(&shard.world->network().clock());
  obs::MetricsRegistry metrics;
  ProviderReport report;
  {
    obs::ScopedObservation scope(&recorder, &metrics);
    report = run_shard_body(name, campaign_seed, options, shard);
  }
  out->shard = name;
  out->events = recorder.take_events();
  out->metrics = std::move(metrics);
  return report;
}

store::ShardKey campaign_shard_key(const std::string& name, std::uint64_t seed,
                                   const RunnerOptions& options) {
  store::ShardKey key;
  key.code_epoch = store::kCodeEpoch;
  key.payload_format = kShardReportFormatVersion;
  key.catalog_fingerprint = ecosystem::provider_catalog_fingerprint(name);
  key.shard_seed = ecosystem::shard_seed(seed, name);
  key.fault_profile = std::string(faults::profile_name(options.fault_profile));
  key.link_capacities = options.speed_test;
  key.runner_options_fingerprint = runner_options_fingerprint(options);
  return key;
}

store::ShardKey campaign_shard_key(const std::string& name, std::uint64_t seed,
                                   const RunnerOptions& options,
                                   const obs::TraceConfig& trace) {
  store::ShardKey key = campaign_shard_key(name, seed, options);
  if (!trace.enabled) return key;
  // A traced artifact is another format, and its trace content also
  // depends on the trace options (hop instants on or off).
  key.payload_format = kTracedShardFormatVersion;
  key.runner_options_fingerprint = util::fnv1a(util::format(
      "vpna-traced-options-v1\x1f%016llx\x1f%d\x1f",
      static_cast<unsigned long long>(key.runner_options_fingerprint),
      trace.packet_hops ? 1 : 0));
  return key;
}

namespace {

// Canonicalize to catalog order, dropping unknown names and duplicates.
std::vector<std::string> canonical_selection(
    const std::vector<std::string>& names) {
  std::vector<std::string> out;
  for (const auto& ep : ecosystem::evaluated_providers()) {
    if (names.empty()) {
      out.push_back(ep.spec.name);
      continue;
    }
    for (const auto& name : names) {
      if (name == ep.spec.name) {
        out.push_back(ep.spec.name);
        break;
      }
    }
  }
  return out;
}

// The provider campaign's shard set: slot i is reports[i], and traces[i]
// when traced. ParallelCampaign::run and the exec-mode worker build the
// same set from the same options. The set's callables point into this
// object, so it stays where it was constructed.
struct ProviderShards {
  ProviderShards(const std::vector<std::string>& names, std::uint64_t seed,
                 const CampaignOptions& options)
      : selection(canonical_selection(names)),
        seed(seed),
        runner(options.runner),
        trace(options.trace),
        reports(selection.size()),
        traces(trace.enabled ? selection.size() : 0) {}
  ProviderShards(const ProviderShards&) = delete;
  ProviderShards& operator=(const ProviderShards&) = delete;

  [[nodiscard]] ShardSet set() {
    ShardSet set;
    set.names = selection;
    set.run = [this](std::size_t i) {
      // Fresh trace per attempt, so a retried shard's trace contains only
      // the successful run — identical to the first-try trace.
      obs::ShardTrace shard_trace;
      reports[i] = run_provider_shard(selection[i], seed, runner, trace,
                                      traces.empty() ? nullptr : &shard_trace,
                                      plane);
      if (!traces.empty()) traces[i] = std::move(shard_trace);
    };
    // A traced shard's bytes carry its trace, so traced shards cross the
    // worker frame and the store exactly like untraced ones.
    set.encode = [this](std::size_t i) {
      return traces.empty() ? encode_provider_report(reports[i])
                            : encode_traced_shard(reports[i], traces[i]);
    };
    set.decode = [this](std::size_t i, std::string_view bytes) {
      ProviderReport decoded;
      obs::ShardTrace decoded_trace;
      const bool ok =
          traces.empty() ? decode_provider_report(bytes, &decoded)
                         : decode_traced_shard(bytes, &decoded, &decoded_trace);
      if (!ok || decoded.provider != selection[i]) return false;
      reports[i] = std::move(decoded);
      if (!traces.empty()) traces[i] = std::move(decoded_trace);
      return true;
    };
    set.placeholder = [this](std::size_t i, ShardFate fate) {
      // Keeps the provider's slot (and catalog order) without fabricating
      // measurements. Under a fault profile, and for crashed workers, the
      // placeholder carries the quarantined flag; a trace slot keeps the
      // shard name with no events and one outcome counter, so trace
      // alignment with `providers` survives.
      const bool quarantined =
          fate == ShardFate::kQuarantined || fate == ShardFate::kCrashed;
      ProviderReport report;
      report.provider = selection[i];
      if (const auto* ep = ecosystem::evaluated_provider(selection[i])) {
        report.subscription = ep->spec.subscription;
        report.has_custom_client = ep->spec.has_custom_client;
      }
      report.quarantined = quarantined;
      reports[i] = std::move(report);
      if (traces.empty()) return;
      traces[i] = obs::ShardTrace{};
      traces[i].shard = selection[i];
      traces[i].metrics.add(quarantined ? "shard.quarantined" : "shard.failed");
    };
    set.key = [this](std::size_t i) {
      return campaign_shard_key(selection[i], seed, runner, trace);
    };
    // Under a fault profile, shards that exhaust every attempt degrade
    // gracefully into quarantine instead of failing the campaign.
    set.graceful = runner.fault_profile != faults::FaultProfile::kOff;
    return set;
  }

  std::vector<std::string> selection;
  std::uint64_t seed;
  RunnerOptions runner;
  obs::TraceConfig trace;
  // One all-pairs plane serves every shard (their core topologies are
  // identical); computed once per process so no shard pays the sweep.
  std::shared_ptr<const netsim::RoutingPlane> plane =
      ecosystem::shared_backbone_plane();
  std::vector<ProviderReport> reports;
  std::vector<obs::ShardTrace> traces;
};

}  // namespace

ParallelCampaign::ParallelCampaign(CampaignOptions options)
    : options_(std::move(options)) {}

CampaignReport ParallelCampaign::run(const std::vector<std::string>& names,
                                     std::uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  ProviderShards shards(names, seed, options_);
  ExecutorResult run = ShardExecutor(options_).run(shards.set());

  CampaignReport report;
  static_cast<ExecutionRecord&>(report) = std::move(run);
  report.seed = seed;
  report.providers = std::move(shards.reports);
  report.traces = std::move(shards.traces);
  // Canonical-order passes over the settled slots: worker count and
  // scheduling never influence these lists.
  for (std::size_t i = 0; i < run.slots.size(); ++i) {
    if (run.slots[i].fate == ShardFate::kFailed)
      report.failed_providers.push_back(shards.selection[i]);
    if (run.slots[i].fate == ShardFate::kCrashed)
      report.crash_quarantined_providers.push_back(shards.selection[i]);
  }
  for (const auto& p : report.providers)
    if (p.degraded()) report.degraded_providers.push_back(p.provider);
  report.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

int serve_campaign_worker(const CampaignOptions& options,
                          const std::vector<std::string>& names,
                          std::uint64_t seed) {
  ProviderShards shards(names, seed, options);
  return serve_shard_worker(shards.set());
}

namespace {

// Arena bytes summed over the shard worlds a run builds. Deterministic (a
// pure function of each shard's build sequence) but summed across threads,
// so gathered atomically. Cache hits skip the build and add nothing.
struct ArenaTally {
  std::atomic<std::uint64_t> reserved{0};
  std::atomic<std::uint64_t> used{0};

  void add(const ecosystem::Testbed& tb) {
    if (!tb.world) return;
    reserved.fetch_add(tb.world->host_arena_reserved_bytes(),
                       std::memory_order_relaxed);
    used.fetch_add(tb.world->host_arena_used_bytes(),
                   std::memory_order_relaxed);
  }
};

// One shard's census: counts plus an FNV fingerprint over the target
// provider's vantage addresses in deployment order. Pure function of the
// materialized shard, so deferred and eager modes agree byte for byte.
ScaledShardCensus census_shard(const ecosystem::ScaledCatalog& catalog,
                               std::size_t index, ecosystem::Testbed& tb) {
  const auto& name = catalog.providers[index].spec.name;
  ScaledShardCensus census;
  census.provider = name;
  census.modeled_subscribers = catalog.subscribers[index];
  census.clients = std::min(ecosystem::kScaledMaxClients,
                            catalog.subscribers[index]);
  if (!tb.world) return census;
  census.hosts = static_cast<std::uint32_t>(tb.world->host_count());
  const auto* deployed = tb.provider(name);
  if (deployed != nullptr) {
    census.vantage_points =
        static_cast<std::uint32_t>(deployed->vantage_points.size());
    std::string canon;
    for (const auto& vp : deployed->vantage_points) {
      canon += vp.addr.str();
      canon.push_back('\x1f');
    }
    census.address_fingerprint = util::fnv1a(canon);
  }
  return census;
}

// Builds shard `index`'s world, censuses it, and tears it down: the world
// exists only for the length of this call, so peak RSS is bounded by live
// workers, not shard count.
ScaledShardCensus census_one(const ecosystem::ScaledCatalog& catalog,
                             std::size_t index,
                             const ScaledCampaignOptions& options,
                             std::shared_ptr<const netsim::RoutingPlane> plane,
                             ArenaTally* arena) {
  auto shard = ecosystem::build_scaled_shard(
      catalog, catalog.providers[index].spec.name, options.seed,
      std::move(plane));
  if (arena != nullptr) arena->add(shard);
  return census_shard(catalog, index, shard);
}

// The census campaign's shard set: slot i is census[i]. A shard with no
// result keeps a zeroed record that still names the provider and its
// catalog subscriber count. Like ProviderShards, it stays where it was
// constructed.
struct CensusShards {
  CensusShards(const ecosystem::ScaledCatalog& catalog,
               const ScaledCampaignOptions& options, ArenaTally* arena)
      : catalog(catalog),
        options(options),
        arena(arena),
        census(catalog.providers.size()) {
    for (const auto& ep : catalog.providers) names.push_back(ep.spec.name);
  }
  CensusShards(const CensusShards&) = delete;
  CensusShards& operator=(const CensusShards&) = delete;

  [[nodiscard]] ShardSet set() {
    ShardSet set;
    set.names = names;
    set.run = [this](std::size_t i) {
      census[i] = census_one(catalog, i, options, plane, arena);
    };
    set.encode = [this](std::size_t i) {
      return encode_shard_census(census[i]);
    };
    set.decode = [this](std::size_t i, std::string_view bytes) {
      ScaledShardCensus decoded;
      if (!decode_shard_census(bytes, &decoded) || decoded.provider != names[i])
        return false;
      census[i] = std::move(decoded);
      return true;
    };
    set.placeholder = [this](std::size_t i, ShardFate) {
      census[i] = ScaledShardCensus{};
      census[i].provider = names[i];
      census[i].modeled_subscribers = catalog.subscribers[i];
    };
    set.key = [this](std::size_t i) {
      return scaled_shard_key(catalog, names[i], options);
    };
    // Census shards degrade, never hard-fail the run.
    set.graceful = true;
    return set;
  }

  const ecosystem::ScaledCatalog& catalog;
  const ScaledCampaignOptions& options;
  ArenaTally* arena;
  std::shared_ptr<const netsim::RoutingPlane> plane =
      ecosystem::shared_backbone_plane();
  std::vector<std::string> names;
  std::vector<ScaledShardCensus> census;
};

}  // namespace

int serve_scaled_worker(const ecosystem::ScaledCatalog& catalog,
                        const ScaledCampaignOptions& options) {
  CensusShards shards(catalog, options, nullptr);
  return serve_shard_worker(shards.set());
}

ScaledShardCensus run_scaled_census_shard(
    const ecosystem::ScaledCatalog& catalog, std::size_t index,
    const ScaledCampaignOptions& options,
    std::shared_ptr<const netsim::RoutingPlane> plane) {
  if (index >= catalog.providers.size())
    throw std::invalid_argument(
        "run_scaled_census_shard: shard index out of range");
  return census_one(catalog, index, options, std::move(plane), nullptr);
}

store::ShardKey scaled_shard_key(const ecosystem::ScaledCatalog& catalog,
                                 const std::string& name,
                                 const ScaledCampaignOptions& options) {
  store::ShardKey key;
  key.code_epoch = store::kCodeEpoch;
  key.payload_format = kShardCensusFormatVersion;
  key.catalog_fingerprint = catalog.provider_fingerprint(name);
  key.shard_seed = ecosystem::shard_seed(options.seed, name);
  // The census path runs no fault or capacity profile today; pinned so the
  // key shape stays identical to the base campaign's.
  key.fault_profile = std::string(faults::profile_name(faults::FaultProfile::kOff));
  key.link_capacities = false;
  key.runner_options_fingerprint = scaled_options_fingerprint();
  return key;
}

std::uint64_t scaled_options_fingerprint() {
  return util::fnv1a(util::format("vpna-scaled-options-v1\x1f%u\x1f",
                                  ecosystem::kScaledMaxClients));
}

ScaledCampaignReport run_scaled_campaign(
    const ecosystem::ScaledCatalog& catalog,
    const ScaledCampaignOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();

  ScaledCampaignReport report;
  report.seed = options.seed;
  report.eager = options.eager;
  report.catalog_fingerprint = catalog.fingerprint();
  const std::size_t n = catalog.providers.size();
  ArenaTally arena;

  if (options.eager) {
    // Eager reference path: every shard world materialized before any
    // census — the storage pattern deferred mode exists to avoid. Serial
    // and uncached by design; the point is RSS, not throughput.
    report.jobs = 1;
    if (options.cache.enabled()) {
      report.cache_records.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        report.cache_records[i].provider = catalog.providers[i].spec.name;
    }
    const auto plane = ecosystem::shared_backbone_plane();
    std::vector<ecosystem::Testbed> worlds;
    worlds.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      worlds.push_back(ecosystem::build_scaled_shard(
          catalog, catalog.providers[i].spec.name, options.seed, plane));
    report.shards.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      arena.add(worlds[i]);
      report.shards[i] = census_shard(catalog, i, worlds[i]);
    }
  } else {
    CensusShards shards(catalog, options, &arena);
    ExecutorResult run = ShardExecutor(options).run(shards.set());
    report.shards = std::move(shards.census);
    for (std::size_t i = 0; i < n; ++i) {
      const ShardFate fate = run.slots[i].fate;
      if (fate != ShardFate::kDone && fate != ShardFate::kSkipped)
        report.crashed_providers.push_back(shards.names[i]);
    }
    static_cast<ExecutionRecord&>(report) = std::move(run);
  }

  report.arena_reserved_bytes = arena.reserved.load();
  report.arena_used_bytes = arena.used.load();

  // Canonical payload serialization (catalog order; telemetry excluded).
  report.payload = "provider,vantage_points,hosts,clients,subscribers,addr_fp\n";
  for (const auto& s : report.shards)
    report.payload += util::format(
        "%s,%u,%u,%u,%u,%016llx\n", s.provider.c_str(), s.vantage_points,
        s.hosts, s.clients, s.modeled_subscribers,
        static_cast<unsigned long long>(s.address_fingerprint));
  report.payload_fingerprint = util::fnv1a(report.payload);

  report.peak_rss_kb = util::peak_rss_kb();
  report.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

}  // namespace vpna::core
