#include "analysis/manifest.h"

#include <algorithm>

#include "analysis/report_aggregation.h"
#include "core/report_codec.h"
#include "ecosystem/evaluated.h"
#include "ecosystem/testbed.h"
#include "faults/profile.h"
#include "obs/export.h"
#include "store/code_epoch.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vpna::analysis {

namespace {

// The execution and cache fields every manifest shares: the options the
// executor ran under, and the record it returned.
void fill_execution(RunManifest& m, const core::ExecutionOptions& options,
                    const core::ExecutionRecord& record,
                    std::vector<std::string> crashed,
                    std::uint64_t options_fingerprint) {
  // The budget every backend grants (the executor clamps it to >= 1).
  m.shard_attempts = std::max(1, options.shard_attempts);
  m.execution = record;
  m.journal_path = options.journal_path;
  m.resumed = options.resume;
  m.crash_quarantined_providers = std::move(crashed);
  m.cache_mode = std::string(store::cache_mode_name(options.cache.mode));
  m.cache_dir = options.cache.dir;
  m.code_epoch = store::kCodeEpoch;
  m.runner_options_fp = options_fingerprint;
  m.cache = core::summarize_cache(record.cache_records);
}

void render_string_list(std::string& out,
                        const std::vector<std::string>& items) {
  out += "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += util::format("\"%s\"", obs::json_escape(items[i]).c_str());
  }
  out += "]";
}

// The "execution" and "cache" sections, shared by run_manifest.json and
// scale_manifest.json; each ends its object with "}" and no separator.
void render_execution_and_cache(std::string& out, const RunManifest& m) {
  const core::ExecutionRecord& x = m.execution;
  out += "  \"execution\": {\n";
  out += util::format("    \"mode\": \"%s\",\n",
                      x.execution_isolated ? "isolated" : "in-process");
  out += util::format("    \"journal\": \"%s\",\n",
                      obs::json_escape(m.journal_path).c_str());
  out += util::format("    \"resumed\": %s,\n", m.resumed ? "true" : "false");
  out += util::format("    \"interrupted\": %s,\n",
                      x.interrupted ? "true" : "false");
  out += util::format("    \"resumed_shards\": %zu,\n", x.resumed_shards);
  out += "    \"crash_quarantined\": ";
  render_string_list(out, m.crash_quarantined_providers);
  out += ",\n";
  out += util::format("    \"process_spawns\": %zu,\n", x.process_spawns);
  out += util::format("    \"process_crashes\": %zu,\n", x.process_crashes);
  out += util::format("    \"process_kills\": %zu,\n", x.process_kills);
  out += util::format("    \"process_timeouts\": %zu,\n", x.process_timeouts);
  out += "    \"processes\": [";
  for (std::size_t i = 0; i < x.processes.size(); ++i) {
    const auto& p = x.processes[i];
    out += i == 0 ? "\n" : ",\n";
    out += util::format(
        "      {\"slot\": %d, \"spawns\": %zu, \"shards_done\": %zu, "
        "\"crashes\": %zu}",
        p.slot, p.spawns, p.shards_done, p.crashes);
  }
  out += x.processes.empty() ? "]\n" : "\n    ]\n";
  out += "  },\n";

  out += "  \"cache\": {\n";
  out += util::format("    \"mode\": \"%s\",\n",
                      obs::json_escape(m.cache_mode).c_str());
  out += util::format("    \"dir\": \"%s\",\n",
                      obs::json_escape(m.cache_dir).c_str());
  out += util::format("    \"code_epoch\": %u,\n", m.code_epoch);
  out += util::format("    \"runner_options_fingerprint\": \"%016llx\",\n",
                      static_cast<unsigned long long>(m.runner_options_fp));
  out += util::format("    \"shards\": %zu,\n", m.cache.shards);
  out += util::format("    \"hits\": %zu,\n", m.cache.hits);
  out += util::format("    \"misses\": %zu,\n", m.cache.misses);
  out += util::format("    \"corrupt\": %zu,\n", m.cache.corrupt);
  out += util::format("    \"bypassed\": %zu,\n", m.cache.bypassed);
  out += util::format("    \"stored\": %zu,\n", m.cache.stored);
  out += util::format("    \"bytes_read\": %llu,\n",
                      static_cast<unsigned long long>(m.cache.bytes_read));
  out += util::format("    \"bytes_written\": %llu,\n",
                      static_cast<unsigned long long>(m.cache.bytes_written));
  out += "    \"shard_cache\": [";
  for (std::size_t i = 0; i < x.cache_records.size(); ++i) {
    const auto& r = x.cache_records[i];
    out += i == 0 ? "\n" : ",\n";
    out += util::format(
        "      {\"provider\": \"%s\", \"key\": \"%s\", \"outcome\": \"%s\", "
        "\"stored\": %s, \"bytes\": %llu}",
        obs::json_escape(r.provider).c_str(),
        obs::json_escape(r.key_id).c_str(),
        std::string(core::cache_outcome_name(r.outcome)).c_str(),
        r.stored ? "true" : "false", static_cast<unsigned long long>(r.bytes));
  }
  out += x.cache_records.empty() ? "]\n" : "\n    ]\n";
  out += "  }";
}

}  // namespace

RunManifest build_run_manifest(const core::CampaignOptions& options,
                               const core::CampaignReport& report,
                               std::string_view payload) {
  RunManifest m;
  m.catalog_fingerprint = ecosystem::catalog_fingerprint();
  m.campaign_seed = report.seed;
  m.shard_seeds.reserve(report.providers.size());
  for (const auto& provider : report.providers)
    m.shard_seeds.emplace_back(
        provider.provider,
        ecosystem::shard_seed(report.seed, provider.provider));
  m.fault_profile = std::string(
      faults::profile_name(options.runner.fault_profile));
  m.link_capacities = options.runner.speed_test;
  m.payload_fingerprint = util::fnv1a(payload);

  m.trace_enabled = options.trace.enabled;
  fill_execution(m, options, report, report.crash_quarantined_providers,
                 core::runner_options_fingerprint(options.runner));

#ifdef __VERSION__
  m.compiler = __VERSION__;
#else
  m.compiler = "unknown";
#endif
#ifdef NDEBUG
  m.build_type = "release";
#else
  m.build_type = "debug";
#endif

  const auto engine = summarize_campaign(report);
  m.wall_s = report.wall_s;
  m.busy_wall_s = engine.busy_wall_s;
  m.tasks_run = engine.tasks_run;
  m.steals = engine.steals;
  m.retries = engine.retries;
  m.timeouts = engine.timeouts;
  m.failed_shards = engine.failed_shards;
  m.quarantined_shards = engine.quarantined_shards;
  m.degraded_vantage_points = engine.degraded_vantage_points;
  m.degraded_providers = report.degraded_providers;
  return m;
}

std::string render_manifest_json(const RunManifest& m) {
  std::string out = "{\n";
  out += "  \"key\": {\n";
  out += util::format("    \"catalog_fingerprint\": \"%016llx\",\n",
                      static_cast<unsigned long long>(m.catalog_fingerprint));
  out += util::format("    \"campaign_seed\": %llu,\n",
                      static_cast<unsigned long long>(m.campaign_seed));
  out += util::format("    \"fault_profile\": \"%s\",\n",
                      obs::json_escape(m.fault_profile).c_str());
  out += util::format("    \"link_capacities\": %s,\n",
                      m.link_capacities ? "true" : "false");
  out += util::format("    \"payload_fingerprint\": \"%016llx\",\n",
                      static_cast<unsigned long long>(m.payload_fingerprint));
  out += "    \"shard_seeds\": [";
  for (std::size_t i = 0; i < m.shard_seeds.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += util::format("      {\"provider\": \"%s\", \"seed\": \"%016llx\"}",
                        obs::json_escape(m.shard_seeds[i].first).c_str(),
                        static_cast<unsigned long long>(m.shard_seeds[i].second));
  }
  out += m.shard_seeds.empty() ? "]\n" : "\n    ]\n";
  out += "  },\n";

  out += "  \"run\": {\n";
  out += util::format("    \"jobs\": %zu,\n", m.execution.jobs);
  out += util::format("    \"shard_attempts\": %d,\n", m.shard_attempts);
  out += util::format("    \"trace_enabled\": %s\n",
                      m.trace_enabled ? "true" : "false");
  out += "  },\n";
  render_execution_and_cache(out, m);
  out += ",\n";

  out += "  \"build\": {\n";
  out += util::format("    \"compiler\": \"%s\",\n",
                      obs::json_escape(m.compiler).c_str());
  out += util::format("    \"build_type\": \"%s\"\n", m.build_type.c_str());
  out += "  },\n";

  out += "  \"telemetry\": {\n";
  out += util::format("    \"wall_s\": %.3f,\n", m.wall_s);
  out += util::format("    \"busy_wall_s\": %.3f,\n", m.busy_wall_s);
  out += util::format("    \"tasks_run\": %llu,\n",
                      static_cast<unsigned long long>(m.tasks_run));
  out += util::format("    \"steals\": %llu,\n",
                      static_cast<unsigned long long>(m.steals));
  out += util::format("    \"retries\": %llu,\n",
                      static_cast<unsigned long long>(m.retries));
  out += util::format("    \"timeouts\": %llu,\n",
                      static_cast<unsigned long long>(m.timeouts));
  out += util::format("    \"failed_shards\": %zu,\n", m.failed_shards);
  out += util::format("    \"quarantined_shards\": %zu,\n",
                      m.quarantined_shards);
  out += util::format("    \"degraded_vantage_points\": %zu,\n",
                      m.degraded_vantage_points);
  out += "    \"degraded_providers\": ";
  render_string_list(out, m.degraded_providers);
  out += ",\n";
  const auto& alerts = m.execution.watchdog_alerts;
  out += "    \"watchdog\": [";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    const auto& alert = alerts[i];
    out += i == 0 ? "\n" : ",\n";
    out += util::format(
        "      {\"shard\": \"%s\", \"worker\": %d, \"elapsed_s\": %.3f, "
        "\"median_s\": %.3f, \"ratio\": %.2f}",
        obs::json_escape(alert.shard).c_str(), alert.worker, alert.elapsed_s,
        alert.median_s, alert.ratio());
  }
  out += alerts.empty() ? "]\n" : "\n    ]\n";
  out += "  }\n";
  out += "}\n";
  return out;
}

std::string render_scaled_manifest_json(
    const core::ScaledCampaignReport& report,
    const core::ScaledCampaignOptions& options) {
  RunManifest m;
  fill_execution(m, options, report, report.crashed_providers,
                 core::scaled_options_fingerprint());
  std::string out = "{\n";
  out += "  \"key\": {\n";
  out += util::format("    \"catalog_fingerprint\": \"%016llx\",\n",
                      static_cast<unsigned long long>(report.catalog_fingerprint));
  out += util::format("    \"campaign_seed\": %llu,\n",
                      static_cast<unsigned long long>(report.seed));
  out += util::format("    \"max_clients\": %u,\n",
                      ecosystem::ScaledShardOptions{}.max_clients);
  out += util::format("    \"payload_fingerprint\": \"%016llx\"\n",
                      static_cast<unsigned long long>(report.payload_fingerprint));
  out += "  },\n";
  out += "  \"run\": {\n";
  out += util::format("    \"jobs\": %zu,\n", report.jobs);
  out += util::format("    \"shard_attempts\": %d,\n", m.shard_attempts);
  out += util::format("    \"eager\": %s,\n", report.eager ? "true" : "false");
  out += util::format("    \"shards\": %zu\n", report.shards.size());
  out += "  },\n";
  render_execution_and_cache(out, m);
  out += "\n}\n";
  return out;
}

}  // namespace vpna::analysis
