// Run manifest: one JSON record describing what a campaign run computed,
// from what inputs, with what code — written next to the other artefacts
// as run_manifest.json.
//
// The manifest's `key` section is the deterministic identity of the
// computation: catalog fingerprint, campaign seed, per-provider shard
// seeds, fault/capacity profile, and the FNV-1a fingerprint of the
// serialized payload. Two runs with equal key sections produced (and will
// always produce) byte-identical payloads — exactly the cache key the
// ROADMAP's content-addressed artifact store needs to decide whether a
// shard or a whole campaign can replay from cache.
//
// The `run`, `execution`, `cache`, `build`, and `telemetry` sections are
// provenance: how the computation was executed (jobs, attempts, backend,
// store), by what toolchain, and how it went (wall stats, pool counters,
// degradation and watchdog summaries).
// Telemetry varies run to run by nature; nothing in it feeds the key.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/parallel_campaign.h"
#include "obs/status.h"

namespace vpna::analysis {

struct RunManifest {
  // --- key: deterministic cache identity --------------------------------
  std::uint64_t catalog_fingerprint = 0;
  std::uint64_t campaign_seed = 0;
  // (provider, shard seed) in canonical catalog order — the per-shard
  // cache keys of an incremental recompute.
  std::vector<std::pair<std::string, std::uint64_t>> shard_seeds;
  std::string fault_profile;     // "off" | "flaky" | "hostile"
  bool link_capacities = false;  // speed-test capacity provisioning on
  std::uint64_t payload_fingerprint = 0;  // fnv1a(serialized payload)

  // --- run: execution parameters ----------------------------------------
  int shard_attempts = 1;
  bool trace_enabled = false;

  // --- execution + cache: what the shard executor recorded --------------
  // The executor's own record, verbatim: resolved jobs, backend ("mode"),
  // worker-process lifecycle counters and the final per-slot snapshot,
  // per-shard cache provenance (key ids in canonical catalog order;
  // outcomes depend on prior store state) and watchdog alerts. Next to
  // it, the parameters it ran under. scale_manifest.json renders these two
  // sections with the same code.
  core::ExecutionRecord execution;
  std::vector<std::string> crash_quarantined_providers;
  std::string cache_mode = "off";
  std::string cache_dir;
  std::uint32_t code_epoch = 0;
  std::uint64_t runner_options_fp = 0;
  core::CacheSummary cache;

  // --- build: toolchain provenance --------------------------------------
  std::string compiler;    // __VERSION__
  std::string build_type;  // "release" | "debug" (NDEBUG)

  // --- telemetry: how the run went (varies run to run) ------------------
  double wall_s = 0.0;
  double busy_wall_s = 0.0;
  std::uint64_t tasks_run = 0;
  std::uint64_t steals = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::size_t failed_shards = 0;
  std::size_t quarantined_shards = 0;
  std::size_t degraded_vantage_points = 0;
  std::vector<std::string> degraded_providers;
};

// Assembles the manifest for a finished run. `payload` must be the
// canonical serialization (analysis::serialize_campaign_payload) so the
// payload fingerprint matches what byte-identity comparisons use.
[[nodiscard]] RunManifest build_run_manifest(
    const core::CampaignOptions& options, const core::CampaignReport& report,
    std::string_view payload);

// JSON rendering (stable key order; the key section is deterministic byte
// for byte given equal inputs).
[[nodiscard]] std::string render_manifest_json(const RunManifest& manifest);

// Scaled-run manifest (full_campaign --scale writes it as
// scale_manifest.json): catalog/payload fingerprints, then the same
// execution and cache sections as run_manifest.json — the census cache's
// per-shard provenance is what the dirty-shard CI lane greps to prove a
// one-provider catalog delta recomputed exactly one shard.
[[nodiscard]] std::string render_scaled_manifest_json(
    const core::ScaledCampaignReport& report,
    const core::ScaledCampaignOptions& options);

}  // namespace vpna::analysis
