// Parallel campaign engine: shards the §5.3 evaluation at provider
// granularity and runs the shards through core::ShardExecutor (in-caller,
// thread pool, or supervised processes), with a hard determinism
// contract — every provider runs in its own isolated shard testbed whose
// world seed derives only from (campaign seed, provider name), and shard
// reports merge back in canonical catalog order, so the aggregated report
// is byte-identical at any worker count and under any scheduling order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.h"
#include "core/shard_executor.h"
#include "ecosystem/scale.h"
#include "netsim/routing_plane.h"
#include "obs/export.h"
#include "obs/status.h"
#include "store/artifact_store.h"
#include "util/task_pool.h"

namespace vpna::core {

// Execution settings (jobs, isolation, retries, status, cache, journal)
// come from ExecutionOptions; see core/shard_executor.h. The one retry
// policy applies on every backend: a provider shard that throws, crashes
// its worker process, or overruns its per-attempt wall budget is re-run
// from scratch — shards are pure, so a re-run is identical. Payloads are
// byte-identical at any `jobs`, in-process or isolated, with the cache
// off, cold or warm, and with the status plane on or off.
struct CampaignOptions : ExecutionOptions {
  // Per-vantage-point suite options, applied inside every shard runner.
  RunnerOptions runner;
  // Observability: when trace.enabled, every shard runs under its own
  // TraceRecorder + MetricsRegistry (bound to the shard's sim clock) and
  // the per-shard observations come back in CampaignReport::traces. Trace
  // content is part of the determinism contract. A traced shard's trace
  // travels in the shard's bytes, so traced shards stream over worker
  // frames and are cached (under keys no untraced run shares) like any
  // other.
  obs::TraceConfig trace;
};

// The aggregated campaign result. `providers` (and `traces`, the failed,
// degraded and crash-quarantined lists) are the deterministic payload, in
// canonical catalog order; the ExecutionRecord base and `wall_s` are
// telemetry that legitimately varies run to run — serialize only the
// payload when comparing campaigns for equivalence.
struct CampaignReport : ExecutionRecord {
  std::uint64_t seed = 0;
  std::vector<ProviderReport> providers;
  // Providers whose shard failed every attempt (empty in healthy runs);
  // a placeholder report with connected=false vantage points remains in
  // `providers` so catalog order is preserved. Under an active fault
  // profile exhausted shards are *quarantined* instead (see
  // degraded_providers) and never land here — this list is reserved for
  // hard failures that should fail the run.
  std::vector<std::string> failed_providers;
  // Providers that completed degraded under a fault profile: quarantined
  // shards plus shards with at least one degraded vantage point. Canonical
  // catalog order; always empty under FaultProfile::kOff. Part of the
  // deterministic payload.
  std::vector<std::string> degraded_providers;
  // Per-shard observations, aligned with `providers` (canonical catalog
  // order); empty when tracing is disabled. Deterministic payload: the
  // trace-determinism suite byte-compares its exports across worker
  // counts, backends and cache modes.
  std::vector<obs::ShardTrace> traces;
  // Providers quarantined because their shard *crashed* every isolated
  // attempt (worker death/kill or an undecodable result frame, not an
  // in-shard exception). Canonical catalog order. Distinct from
  // fault-profile quarantine: a crash quarantine is an engine-health event
  // and fails the run with its own exit code even though the campaign
  // completed.
  std::vector<std::string> crash_quarantined_providers;
  double wall_s = 0.0;
};

// Runs the full suite for one provider in an isolated shard testbed built
// by ecosystem::build_provider_shard(name, campaign_seed). Pure: the
// result depends only on (name, campaign_seed, options) — `plane` is a
// read-only accelerator handed to the shard world (nullptr = the shard
// computes its own) and never changes the result. Throws
// std::invalid_argument for unknown provider names.
[[nodiscard]] ProviderReport run_provider_shard(
    const std::string& name, std::uint64_t campaign_seed,
    const RunnerOptions& options,
    std::shared_ptr<const netsim::RoutingPlane> plane = nullptr);

// Traced variant: runs the shard under a fresh TraceRecorder/MetricsRegistry
// bound to the shard world's sim clock and returns the observation through
// `out` (ignored when !trace.enabled or out == nullptr). Still pure — the
// trace is as deterministic as the report.
[[nodiscard]] ProviderReport run_provider_shard(
    const std::string& name, std::uint64_t campaign_seed,
    const RunnerOptions& options, const obs::TraceConfig& trace,
    obs::ShardTrace* out,
    std::shared_ptr<const netsim::RoutingPlane> plane = nullptr);

// Content address of one provider shard under the base evaluated catalog:
// (code epoch, payload format, per-provider catalog-slice fingerprint,
// shard seed, fault profile, capacity profile, runner-options fingerprint)
// — exactly the inputs run_provider_shard is a pure function of. Exposed
// for tests and --explain-cache; the campaign derives the same keys
// internally.
[[nodiscard]] store::ShardKey campaign_shard_key(const std::string& name,
                                                 std::uint64_t seed,
                                                 const RunnerOptions& options);

// The key a campaign run with `trace` files the shard under. Untraced, the
// key above; traced, the payload format is kTracedShardFormatVersion and
// the options fingerprint also covers trace.packet_hops, so a traced
// artifact never shares an address with an untraced one, nor a hop-traced
// one with a hops-off one.
[[nodiscard]] store::ShardKey campaign_shard_key(const std::string& name,
                                                 std::uint64_t seed,
                                                 const RunnerOptions& options,
                                                 const obs::TraceConfig& trace);

// --- scaled campaigns --------------------------------------------------------
// The O(10³)-provider census path: every provider in a synthetic scaled
// catalog gets its own shard world (same shard_seed discipline as the paper
// campaign), each shard reports a deterministic census record, and records
// merge in canonical catalog order. The payload is byte-identical at any
// `jobs` and in both materialization modes.

// Execution settings as for CampaignOptions; under them, a census shard
// that throws or crashes every attempt keeps a zeroed record, listed in
// crashed_providers, so the catalog-order payload still completes. The
// census cache is keyed per provider on the scaled catalog's
// provider_fingerprint() — independent of catalog size, so growing N
// providers to N+1 recomputes exactly the one new shard. Each shard
// materializes at most ecosystem::ScaledShardOptions{}.max_clients (4)
// eyeball clients.
struct ScaledCampaignOptions : ExecutionOptions {
  std::uint64_t seed = 20181031;
  // Eager mode materializes every shard world in the caller before any
  // census runs — the peak-RSS A/B baseline, serial, in-process and
  // uncached by definition. The default (deferred) hands workers
  // DeferredShard handles materialized on first touch, bounding peak RSS
  // by the worker count instead of the shard count.
  bool eager = false;
};

// One shard's deterministic census record.
struct ScaledShardCensus {
  std::string provider;
  std::uint32_t vantage_points = 0;      // deployed, incl. reseller aliases
  std::uint32_t hosts = 0;               // shard-world host count
  std::uint32_t clients = 0;             // materialized subscriber eyeballs
  std::uint32_t modeled_subscribers = 0; // catalog count (not materialized)
  std::uint64_t address_fingerprint = 0; // FNV over vantage addrs, deploy order
};

struct ScaledCampaignReport : ExecutionRecord {
  std::uint64_t seed = 0;
  bool eager = false;
  std::vector<ScaledShardCensus> shards;  // canonical catalog order
  std::uint64_t catalog_fingerprint = 0;
  // Canonical serialization of `shards` and its hash — the deterministic
  // payload (compare across jobs / materialization modes by this).
  std::string payload;
  std::uint64_t payload_fingerprint = 0;
  // Arena bytes summed over shard worlds (deterministic: a pure function
  // of the build sequence). Covers only shards actually built this run —
  // cache hits skip world construction entirely, so warm runs report 0.
  std::uint64_t arena_reserved_bytes = 0;
  std::uint64_t arena_used_bytes = 0;
  // Providers whose census shard threw or crashed every attempt (zeroed
  // record in `shards`), canonical catalog order.
  std::vector<std::string> crashed_providers;
  // Wall-clock telemetry, excluded from the payload.
  std::size_t peak_rss_kb = 0;
  double wall_s = 0.0;
};

[[nodiscard]] ScaledCampaignReport run_scaled_campaign(
    const ecosystem::ScaledCatalog& catalog,
    const ScaledCampaignOptions& options = {});

// One scaled shard's census, computed in isolation: builds the provider's
// shard world, censuses it, and tears it down. Every backend of
// run_scaled_campaign computes its shards through this; pure, so it agrees
// byte for byte with the eager reference path.
[[nodiscard]] ScaledShardCensus run_scaled_census_shard(
    const ecosystem::ScaledCatalog& catalog, std::size_t index,
    const ScaledCampaignOptions& options,
    std::shared_ptr<const netsim::RoutingPlane> plane = nullptr);

// Content address of one scaled census shard: same six-field shape as
// campaign_shard_key, with the catalog slice fingerprint coming from
// ScaledCatalog::provider_fingerprint and the options fingerprint covering
// the census-shaping client cap (scaled_options_fingerprint).
[[nodiscard]] store::ShardKey scaled_shard_key(
    const ecosystem::ScaledCatalog& catalog, const std::string& name,
    const ScaledCampaignOptions& options);
// The census-shaping options fingerprint every scaled key carries (and
// scale_manifest.json reports).
[[nodiscard]] std::uint64_t scaled_options_fingerprint();

// Exec-mode worker entry points (`full_campaign ... --vpna-worker`): serve
// the worker protocol on stdin/stdout with the very shard set that
// ParallelCampaign::run / run_scaled_campaign hand their fork-mode workers
// for the same options, so the shard table and the shard callables cannot
// drift between the two modes.
[[nodiscard]] int serve_campaign_worker(const CampaignOptions& options,
                                        const std::vector<std::string>& names,
                                        std::uint64_t seed);
[[nodiscard]] int serve_scaled_worker(const ecosystem::ScaledCatalog& catalog,
                                      const ScaledCampaignOptions& options);

class ParallelCampaign {
 public:
  explicit ParallelCampaign(CampaignOptions options = {});

  // Runs shards for the named providers; an empty list means the full
  // evaluated catalog. Names are canonicalized to catalog order (unknown
  // names dropped, duplicates collapsed) before sharding, so the caller's
  // ordering never influences the result.
  [[nodiscard]] CampaignReport run(const std::vector<std::string>& names = {},
                                   std::uint64_t seed = 20181031);

 private:
  CampaignOptions options_;
};

}  // namespace vpna::core
