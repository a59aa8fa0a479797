// Process-isolated campaign execution end to end: byte-identity with the
// in-process engine, crash containment (exit/segv/hang workers retried on
// fresh processes, then quarantined; hangs caught by the hard timeout or
// by the status board's watchdog), recovery from a supervisor kill by
// re-running over the same store, interrupt semantics, and the
// scaled-census isolate path with its re-run, shared-store reuse and
// status file. Everything runs fork-mode supervised workers on a cheap
// six-provider subset, with deterministic crash injection via
// VPNA_CRASH_SHARD / VPNA_CRASH_SUPERVISOR.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/report_aggregation.h"
#include "core/parallel_campaign.h"
#include "core/report_codec.h"
#include "ecosystem/scale.h"
#include "util/strings.h"
#include "util/subprocess.h"

namespace vpna {
namespace {

const std::vector<std::string> kSubset = {
    "NordVPN", "ExpressVPN", "Seed4.me", "Anonine", "Boxpn", "Freedome VPN"};

// Scoped setenv: crash directives must never leak into a later test (or a
// sibling process) after an ASSERT bails out mid-body.
class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }

 private:
  const char* name_;
};

core::CampaignOptions subset_options(std::size_t jobs, bool isolate) {
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 2;
  opts.jobs = jobs;
  opts.isolate = isolate;
  opts.term_grace_s = 0.3;
  return opts;
}

// The in-process golden payload, computed once — every isolate scenario
// below must reproduce these exact bytes.
const std::string& golden_payload() {
  static const std::string payload = [] {
    core::ParallelCampaign campaign(subset_options(2, false));
    return analysis::serialize_campaign_payload(campaign.run(kSubset));
  }();
  return payload;
}

std::filesystem::path fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("vpna_isolate_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::size_t files_under(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) ++n;
  return n;
}

// What a killed run left in the store: the number of `names` whose artifact
// fetches under `key(name)`. Every artifact found must also pass `decodes`,
// and no other file may sit in the store (no torn or stray writes).
template <typename Key, typename Decodes>
std::size_t durable_artifacts(const store::CacheConfig& cache,
                              const std::vector<std::string>& names, Key key,
                              Decodes decodes) {
  const store::ArtifactStore store(cache);
  std::size_t hits = 0;
  for (const auto& name : names) {
    const auto fetched = store.fetch(key(name));
    if (fetched.status != store::FetchStatus::kHit) continue;
    ++hits;
    EXPECT_TRUE(decodes(fetched.payload)) << name;
  }
  EXPECT_EQ(files_under(cache.dir), hits);
  return hits;
}

TEST(IsolateCampaign, PayloadMatchesInProcessAtAnyWorkerCount) {
  for (std::size_t jobs : {1u, 2u}) {
    core::ParallelCampaign campaign(subset_options(jobs, true));
    const auto report = campaign.run(kSubset);
    EXPECT_TRUE(report.execution_isolated);
    EXPECT_FALSE(report.interrupted);
    EXPECT_TRUE(report.failed_providers.empty());
    EXPECT_TRUE(report.crash_quarantined_providers.empty());
    EXPECT_GE(report.process_spawns, 1u);
    EXPECT_EQ(analysis::serialize_campaign_payload(report), golden_payload())
        << "isolated payload diverged at jobs=" << jobs;
  }
}

TEST(IsolateCampaign, CrashedWorkerIsRetriedOnAFreshProcess) {
  // Shard 1 _exits(41) on its first attempt only: the supervisor charges
  // the attempt, respawns, and the retry succeeds — byte-identical result,
  // exit code 0, one crash on the books.
  EnvGuard crash("VPNA_CRASH_SHARD", "1:exit");
  core::ParallelCampaign campaign(subset_options(2, true));
  const auto report = campaign.run(kSubset);
  EXPECT_TRUE(report.crash_quarantined_providers.empty());
  EXPECT_GE(report.process_crashes, 1u);
  EXPECT_EQ(analysis::serialize_campaign_payload(report), golden_payload());
  EXPECT_EQ(analysis::campaign_exit_code(analysis::summarize_campaign(report)),
            0);
}

TEST(IsolateCampaign, SegfaultingEveryAttemptQuarantinesJustThatShard) {
  EnvGuard crash("VPNA_CRASH_SHARD", "0:segv:always");
  auto opts = subset_options(2, true);
  opts.shard_attempts = 2;
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run(kSubset);
  ASSERT_EQ(report.crash_quarantined_providers.size(), 1u);
  ASSERT_EQ(report.providers.size(), kSubset.size());
  // Canonical order held: the quarantined shard keeps its placeholder slot
  // while the other five merged their real reports.
  EXPECT_EQ(report.crash_quarantined_providers[0],
            report.providers[0].provider);
  EXPECT_GE(report.process_crashes, 2u);  // initial attempt + retry
  EXPECT_TRUE(report.failed_providers.empty());
  const auto summary = analysis::summarize_campaign(report);
  EXPECT_EQ(summary.crash_quarantined_shards, 1u);
  EXPECT_EQ(analysis::campaign_exit_code(summary), 3);
}

// Wall seconds of the slowest subset shard run alone on a clean isolated
// worker. A hard timeout derived from it fires on a hung shard but not on
// a healthy one, also in a slow (sanitizer) build or on a loaded host.
double slowest_clean_shard_s() {
  double slowest = 0.0;
  for (const auto& name : kSubset) {
    core::ParallelCampaign campaign(subset_options(1, true));
    slowest = std::max(slowest, campaign.run({name}).wall_s);
  }
  return slowest;
}

TEST(IsolateCampaign, HangingWorkerIsEscalatedAndQuarantined) {
  auto opts = subset_options(2, true);
  opts.shard_timeout_s = std::max(0.4, 4.0 * slowest_clean_shard_s());
  EnvGuard crash("VPNA_CRASH_SHARD", "2:hang:always");
  opts.term_grace_s = 0.1;
  opts.shard_attempts = 1;
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run(kSubset);
  ASSERT_EQ(report.crash_quarantined_providers.size(), 1u);
  EXPECT_EQ(report.crash_quarantined_providers[0],
            report.providers[2].provider);
  EXPECT_GE(report.process_timeouts, 1u);
  EXPECT_GE(report.process_kills, 1u);
  // The other five shards still produced their canonical bytes.
  std::size_t healthy = 0;
  for (const auto& p : report.providers)
    healthy += p.vantage_points.empty() ? 0 : 1;
  EXPECT_EQ(healthy, kSubset.size() - 1);
}

TEST(IsolateCampaign, WatchdogEscalatesAStalledWorkerAndQuarantinesIt) {
  // No hard budget: only the board's median-multiple watchdog can catch
  // the hang. Shard 5 is dispatched after at least three shards finished,
  // so the median is trusted by the time it stalls. A second attempt
  // keeps a healthy shard that a loaded host drives past the threshold
  // from failing the comparison below.
  EnvGuard crash("VPNA_CRASH_SHARD", "5:hang:always");
  const auto dir = fresh_dir("watchdog");
  auto opts = subset_options(2, true);
  opts.status.watchdog_multiple = 4.0;
  opts.status.interval_ms = 10.0;
  opts.status.file = (dir / "status.json").string();
  opts.term_grace_s = 0.1;
  opts.shard_attempts = 2;
  const auto report = core::ParallelCampaign(opts).run(kSubset);
  const std::string stalled = report.providers[5].provider;

  ASSERT_EQ(report.crash_quarantined_providers,
            std::vector<std::string>{stalled});
  EXPECT_EQ(report.process_timeouts, 0u);
  EXPECT_GE(report.process_kills, 1u);
  // Every alert is the board's: the final status file lists each one with
  // the median the board computed.
  std::ostringstream status;
  status << std::ifstream(opts.status.file).rdbuf();
  bool stalled_alerted = false;
  for (const auto& alert : report.watchdog_alerts) {
    EXPECT_GT(alert.median_s, 0.0);
    EXPECT_GT(alert.elapsed_s, opts.status.watchdog_multiple * alert.median_s);
    EXPECT_NE(status.str().find(util::format("\"median_s\": %.3f",
                                             alert.median_s)),
              std::string::npos)
        << alert.shard;
    stalled_alerted = stalled_alerted || alert.shard == stalled;
  }
  EXPECT_TRUE(stalled_alerted);

  // The other five shards merged exactly what the in-process engine
  // computes.
  const auto inproc = core::ParallelCampaign(subset_options(2, false)).run(kSubset);
  ASSERT_EQ(report.providers.size(), inproc.providers.size());
  for (std::size_t i = 0; i + 1 < kSubset.size(); ++i)
    EXPECT_EQ(core::encode_provider_report(report.providers[i]),
              core::encode_provider_report(inproc.providers[i]))
        << kSubset[i];
  std::filesystem::remove_all(dir);
}

TEST(IsolateCampaign, InterruptFlagStopsTheRunWithExitCode130) {
  static volatile std::sig_atomic_t interrupted = 1;  // pre-raised
  auto opts = subset_options(2, true);
  opts.interrupt = &interrupted;
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run(kSubset);
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(analysis::campaign_exit_code(analysis::summarize_campaign(report)),
            130);
}

TEST(IsolateCampaign, ResumeAfterSupervisorKillIsByteIdentical) {
  const auto dir = fresh_dir("resume");
  auto opts = subset_options(2, true);
  opts.cache.dir = (dir / "cache").string();
  opts.cache.mode = store::CacheMode::kReadWrite;

  // Run 1 in a sacrificial child process: the supervisor self-SIGKILLs
  // right after the third terminal outcome has filed its artifact — the
  // scripted stand-in for a host crash mid-campaign.
  auto victim = util::Subprocess::fork_child([opts](int, int) {
    ::setenv("VPNA_CRASH_SUPERVISOR", "3:kill", 1);
    core::ParallelCampaign campaign(opts);
    (void)campaign.run(kSubset);
    return 0;  // unreachable: the supervisor dies first
  });
  const auto status = victim.wait();
  ASSERT_TRUE(status.signaled);
  ASSERT_EQ(status.signal, SIGKILL);

  // The store survived the kill holding exactly the three durable shards.
  const auto key = [&opts](const std::string& name) {
    return core::campaign_shard_key(name, 20181031, opts.runner);
  };
  EXPECT_EQ(durable_artifacts(opts.cache, kSubset, key,
                              [](std::string_view bytes) {
                                core::ProviderReport report;
                                return core::decode_provider_report(bytes,
                                                                    &report);
                              }),
            3u);

  // Run 2 is the same command again: the three filed shards replay from
  // the store, the rest recompute, and the payload is byte-identical to an
  // uninterrupted run.
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run(kSubset);
  const auto cache = core::summarize_cache(report.cache_records);
  EXPECT_EQ(cache.hits, 3u);
  EXPECT_EQ(cache.misses, 3u);
  EXPECT_TRUE(report.crash_quarantined_providers.empty());
  EXPECT_EQ(analysis::serialize_campaign_payload(report), golden_payload());
  std::filesystem::remove_all(dir);
}

TEST(IsolateCampaign, ScaledCensusIsolationIsByteIdentical) {
  const auto catalog = ecosystem::generate_scaled_catalog(12, 50, 20181031);
  core::ScaledCampaignOptions inproc;
  inproc.jobs = 2;
  const auto golden = core::run_scaled_campaign(catalog, inproc);

  core::ScaledCampaignOptions isolated = inproc;
  isolated.isolate = true;
  const auto report = core::run_scaled_campaign(catalog, isolated);
  EXPECT_TRUE(report.execution_isolated);
  EXPECT_TRUE(report.crashed_providers.empty());
  EXPECT_EQ(report.payload, golden.payload);
  EXPECT_EQ(report.payload_fingerprint, golden.payload_fingerprint);
}

TEST(IsolateCampaign, ScaledCensusCrashKeepsAZeroedRecordAndCompletes) {
  const auto catalog = ecosystem::generate_scaled_catalog(12, 50, 20181031);
  EnvGuard crash("VPNA_CRASH_SHARD", "4:segv:always");
  core::ScaledCampaignOptions opts;
  opts.jobs = 2;
  opts.isolate = true;
  opts.shard_attempts = 1;
  const auto report = core::run_scaled_campaign(catalog, opts);
  ASSERT_EQ(report.crashed_providers.size(), 1u);
  ASSERT_EQ(report.shards.size(), 12u);
  const auto& zeroed = report.shards[4];
  EXPECT_EQ(zeroed.provider, report.crashed_providers[0]);
  EXPECT_EQ(zeroed.vantage_points, 0u);   // census lost with the worker
  EXPECT_GT(zeroed.modeled_subscribers, 0u);  // catalog facts preserved
  // Every other shard censused normally — the campaign completed.
  for (std::size_t i = 0; i < report.shards.size(); ++i) {
    if (i != 4) {
      EXPECT_GT(report.shards[i].vantage_points, 0u);
    }
  }
}

core::ScaledCampaignOptions census_options(const std::filesystem::path& dir) {
  core::ScaledCampaignOptions opts;
  opts.jobs = 2;
  opts.isolate = true;
  opts.term_grace_s = 0.3;
  opts.cache.dir = (dir / "cache").string();
  opts.cache.mode = store::CacheMode::kReadWrite;
  return opts;
}

std::vector<std::string> census_names(const ecosystem::ScaledCatalog& catalog) {
  std::vector<std::string> names;
  for (const auto& ep : catalog.providers) names.push_back(ep.spec.name);
  return names;
}

TEST(IsolateCampaign, ScaledCensusResumeAfterSupervisorKillIsByteIdentical) {
  const auto catalog = ecosystem::generate_scaled_catalog(12, 50, 20181031);
  core::ScaledCampaignOptions inproc;
  inproc.jobs = 2;
  const auto golden = core::run_scaled_campaign(catalog, inproc);

  const auto dir = fresh_dir("census_resume");
  const auto opts = census_options(dir);
  auto victim = util::Subprocess::fork_child([&catalog, &opts](int, int) {
    ::setenv("VPNA_CRASH_SUPERVISOR", "4:kill", 1);
    (void)core::run_scaled_campaign(catalog, opts);
    return 0;  // unreachable: the supervisor dies first
  });
  const auto status = victim.wait();
  ASSERT_TRUE(status.signaled);
  ASSERT_EQ(status.signal, SIGKILL);

  const auto key = [&catalog, &opts](const std::string& name) {
    return core::scaled_shard_key(catalog, name, opts);
  };
  EXPECT_EQ(durable_artifacts(opts.cache, census_names(catalog), key,
                              [](std::string_view bytes) {
                                core::ScaledShardCensus census;
                                return core::decode_shard_census(bytes,
                                                                 &census);
                              }),
            4u);

  const auto report = core::run_scaled_campaign(catalog, opts);
  const auto cache = core::summarize_cache(report.cache_records);
  EXPECT_EQ(cache.hits, 4u);
  EXPECT_EQ(cache.misses, 8u);
  EXPECT_TRUE(report.crashed_providers.empty());
  EXPECT_EQ(report.payload, golden.payload);
  std::filesystem::remove_all(dir);
}

TEST(IsolateCampaign, ScaledCensusSharedStoreServesOnlyMatchingShards) {
  const auto dir = fresh_dir("census_shared");
  const auto catalog = ecosystem::generate_scaled_catalog(6, 50, 20181031);
  const auto opts = census_options(dir);
  (void)core::run_scaled_campaign(catalog, opts);

  // Shard keys are per provider and independent of catalog size: a grown
  // catalog reuses the six shards it shares and computes the new one.
  core::ScaledCampaignOptions clean;
  clean.jobs = 2;
  const auto grown = ecosystem::generate_scaled_catalog(7, 50, 20181031);
  const auto grown_run = core::run_scaled_campaign(grown, opts);
  const auto grown_cache = core::summarize_cache(grown_run.cache_records);
  EXPECT_EQ(grown_cache.hits, 6u);
  EXPECT_EQ(grown_cache.misses, 1u);
  EXPECT_EQ(grown_run.payload, core::run_scaled_campaign(grown, clean).payload);

  // Another seed moves every shard seed, so nothing in the store matches.
  auto reseeded = opts;
  reseeded.seed = opts.seed + 1;
  clean.seed = reseeded.seed;
  const auto reseeded_run = core::run_scaled_campaign(catalog, reseeded);
  EXPECT_EQ(core::summarize_cache(reseeded_run.cache_records).hits, 0u);
  EXPECT_EQ(reseeded_run.payload,
            core::run_scaled_campaign(catalog, clean).payload);
  std::filesystem::remove_all(dir);
}

TEST(IsolateCampaign, ScaledCensusStatusFileEndsAtOneHundredPercent) {
  const auto dir = fresh_dir("census_status");
  const auto catalog = ecosystem::generate_scaled_catalog(8, 50, 20181031);
  core::ScaledCampaignOptions opts;
  opts.jobs = 2;
  opts.isolate = true;
  opts.status.file = (dir / "status.json").string();
  const auto report = core::run_scaled_campaign(catalog, opts);
  EXPECT_TRUE(report.crashed_providers.empty());
  std::ostringstream json;
  json << std::ifstream(opts.status.file).rdbuf();
  EXPECT_NE(json.str().find("\"percent\": 100.0"), std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"total\": 8"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vpna
