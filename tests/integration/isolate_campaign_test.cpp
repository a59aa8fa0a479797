// Process-isolated campaign execution end to end: byte-identity with the
// in-process engine, crash containment (exit/segv/hang workers retried on
// fresh processes, then quarantined; hangs caught by the hard timeout or
// by the status board's watchdog), journal-based resume after a
// supervisor kill, interrupt semantics, and the scaled-census isolate
// path with its resume, journal refusal and status file. Everything runs fork-mode supervised workers on a cheap
// six-provider subset, with deterministic crash injection via
// VPNA_CRASH_SHARD / VPNA_CRASH_SUPERVISOR.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/report_aggregation.h"
#include "core/parallel_campaign.h"
#include "core/report_codec.h"
#include "ecosystem/scale.h"
#include "store/journal.h"
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

TEST(IsolateCampaign, HangingWorkerIsEscalatedAndQuarantined) {
  EnvGuard crash("VPNA_CRASH_SHARD", "2:hang:always");
  auto opts = subset_options(2, true);
  opts.shard_timeout_s = 0.4;
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
  store::CacheConfig cache;
  cache.dir = (dir / "cache").string();
  cache.mode = store::CacheMode::kReadWrite;
  const std::string journal = (dir / "campaign.journal").string();

  // Run 1 in a sacrificial child process: the supervisor self-SIGKILLs
  // right after the third terminal outcome hits the journal — the scripted
  // stand-in for a host crash mid-campaign.
  auto victim = util::Subprocess::fork_child([cache, journal](int, int) {
    ::setenv("VPNA_CRASH_SUPERVISOR", "3:kill", 1);
    auto opts = subset_options(2, true);
    opts.cache = cache;
    opts.journal_path = journal;
    core::ParallelCampaign campaign(opts);
    (void)campaign.run(kSubset);
    return 0;  // unreachable: the supervisor dies first
  });
  const auto status = victim.wait();
  ASSERT_TRUE(status.signaled);
  ASSERT_EQ(status.signal, SIGKILL);

  // The journal survived the kill with exactly the durable outcomes.
  store::JournalHeader header;
  std::vector<store::JournalEntry> entries;
  ASSERT_TRUE(store::CampaignJournal::load(journal, &header, &entries));
  EXPECT_EQ(entries.size(), 3u);
  for (const auto& e : entries) EXPECT_EQ(e.outcome, "done");

  // Run 2 resumes: journaled shards replay from the artifact store, the
  // rest recompute, and the payload is byte-identical to an uninterrupted
  // run.
  auto opts = subset_options(2, true);
  opts.cache = cache;
  opts.journal_path = journal;
  opts.resume = true;
  core::ParallelCampaign campaign(opts);
  const auto report = campaign.run(kSubset);
  EXPECT_EQ(report.resumed_shards, 3u);
  EXPECT_TRUE(report.crash_quarantined_providers.empty());
  EXPECT_EQ(analysis::serialize_campaign_payload(report), golden_payload());
  std::filesystem::remove_all(dir);
}

TEST(IsolateCampaign, ResumeRefusesAJournalFromAnotherCampaign) {
  const auto dir = fresh_dir("mismatch");
  store::CacheConfig cache;
  cache.dir = (dir / "cache").string();
  cache.mode = store::CacheMode::kReadWrite;

  auto opts = subset_options(1, true);
  opts.cache = cache;
  opts.journal_path = (dir / "campaign.journal").string();
  {
    core::ParallelCampaign first(opts);
    (void)first.run(kSubset, /*seed=*/7);
  }
  opts.resume = true;
  core::ParallelCampaign second(opts);
  // Different seed → different campaign fingerprint → refusal, because the
  // journaled outcomes describe a different computation.
  EXPECT_THROW((void)second.run(kSubset, /*seed=*/8), std::runtime_error);
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
    if (i != 4) EXPECT_GT(report.shards[i].vantage_points, 0u);
  }
}

core::ScaledCampaignOptions census_options(const std::filesystem::path& dir) {
  core::ScaledCampaignOptions opts;
  opts.jobs = 2;
  opts.isolate = true;
  opts.term_grace_s = 0.3;
  opts.cache.dir = (dir / "cache").string();
  opts.cache.mode = store::CacheMode::kReadWrite;
  opts.journal_path = (dir / "campaign.journal").string();
  return opts;
}

TEST(IsolateCampaign, ScaledCensusResumeAfterSupervisorKillIsByteIdentical) {
  const auto catalog = ecosystem::generate_scaled_catalog(12, 50, 20181031);
  core::ScaledCampaignOptions inproc;
  inproc.jobs = 2;
  const auto golden = core::run_scaled_campaign(catalog, inproc);

  const auto dir = fresh_dir("census_resume");
  auto victim = util::Subprocess::fork_child([&catalog, dir](int, int) {
    ::setenv("VPNA_CRASH_SUPERVISOR", "4:kill", 1);
    (void)core::run_scaled_campaign(catalog, census_options(dir));
    return 0;  // unreachable: the supervisor dies first
  });
  const auto status = victim.wait();
  ASSERT_TRUE(status.signaled);
  ASSERT_EQ(status.signal, SIGKILL);

  store::JournalHeader header;
  std::vector<store::JournalEntry> entries;
  ASSERT_TRUE(store::CampaignJournal::load(
      census_options(dir).journal_path, &header, &entries));
  EXPECT_EQ(entries.size(), 4u);
  EXPECT_EQ(header.seed, golden.seed);

  auto opts = census_options(dir);
  opts.resume = true;
  const auto report = core::run_scaled_campaign(catalog, opts);
  EXPECT_EQ(report.resumed_shards, 4u);
  EXPECT_TRUE(report.crashed_providers.empty());
  EXPECT_EQ(report.payload, golden.payload);
  std::filesystem::remove_all(dir);
}

TEST(IsolateCampaign, ScaledCensusResumeRefusesAnotherCatalogOrSeed) {
  const auto dir = fresh_dir("census_mismatch");
  const auto catalog = ecosystem::generate_scaled_catalog(6, 50, 20181031);
  (void)core::run_scaled_campaign(catalog, census_options(dir));

  auto opts = census_options(dir);
  opts.resume = true;
  // The journal binds (code epoch, seed, catalog fingerprint): a grown
  // catalog or another seed is another computation.
  const auto grown = ecosystem::generate_scaled_catalog(7, 50, 20181031);
  EXPECT_THROW((void)core::run_scaled_campaign(grown, opts),
               std::runtime_error);
  auto reseeded = opts;
  reseeded.seed = opts.seed + 1;
  EXPECT_THROW((void)core::run_scaled_campaign(catalog, reseeded),
               std::runtime_error);
  // The matching configuration still resumes.
  EXPECT_EQ(core::run_scaled_campaign(catalog, opts).resumed_shards, 6u);
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
