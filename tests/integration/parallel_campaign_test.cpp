// Determinism contract of the parallel campaign engine: the same campaign
// seed must yield a byte-identical aggregated payload whether shards run
// serially or on 2/4/8 workers, and regardless of the caller's name order.
#include "core/parallel_campaign.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/report_aggregation.h"
#include "ecosystem/testbed.h"
#include "obs/export.h"
#include "store/code_epoch.h"
#include "util/rng.h"

namespace vpna {
namespace {

// Six providers covering the interesting behaviours: a reseller pair
// (exact-IP aliasing), the content injector, a DNS leaker, and two large
// mainstream fleets.
const std::vector<std::string> kSubset = {
    "NordVPN", "ExpressVPN", "Seed4.me", "Anonine", "Boxpn", "Freedome VPN"};

core::CampaignOptions subset_options(std::size_t jobs) {
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 2;  // keep the matrix cheap
  opts.jobs = jobs;
  return opts;
}

std::string payload_at_jobs(std::size_t jobs, std::uint64_t seed,
                            std::vector<std::string> names = kSubset) {
  core::ParallelCampaign campaign(subset_options(jobs));
  const auto report = campaign.run(names, seed);
  EXPECT_TRUE(report.failed_providers.empty());
  EXPECT_EQ(report.providers.size(), names.size());
  return analysis::serialize_campaign_payload(report);
}

TEST(ParallelCampaign, SerialAndParallelPayloadsAreByteIdentical) {
  const std::uint64_t seed = 20181031;
  const std::string serial = payload_at_jobs(1, seed);
  ASSERT_FALSE(serial.empty());
  for (std::size_t jobs : {2u, 4u, 8u}) {
    const std::string parallel = payload_at_jobs(jobs, seed);
    EXPECT_EQ(serial, parallel) << "payload diverged at jobs=" << jobs;
  }
}

// The golden pin: the default full_campaign configuration (all 62
// providers, 3 vantage points each, seed 20181031) must serialize to the
// documented payload fingerprint under the current code epoch. A change
// that moves this pair must bump store::kCodeEpoch and re-pin it here.
TEST(ParallelCampaign, DefaultCampaignMatchesGoldenFingerprint) {
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 3;
  opts.jobs = 4;
  const auto report = core::ParallelCampaign(opts).run({}, 20181031);
  ASSERT_EQ(report.providers.size(), 62u);
  const auto fingerprint =
      util::fnv1a(analysis::serialize_campaign_payload(report));
  EXPECT_EQ(std::make_pair(store::kCodeEpoch, fingerprint),
            std::make_pair(std::uint32_t{1},
                           std::uint64_t{0xb18430c525c24657ULL}));
}

// The golden trace pin: trace content is cached payload too, so a change
// that moves either export hash must also bump store::kCodeEpoch (a traced
// artifact written by older code would otherwise replay a stale trace) and
// re-pin it here.
TEST(ParallelCampaign, TracedSubsetMatchesGoldenTracePin) {
  auto opts = subset_options(4);
  opts.trace.enabled = true;
  const auto report = core::ParallelCampaign(opts).run(kSubset, 20181031);
  ASSERT_EQ(report.traces.size(), kSubset.size());
  const auto trace = util::fnv1a(obs::chrome_trace_json(report.traces));
  const auto metrics = util::fnv1a(
      obs::merged_metrics(report.traces).render_text(/*include_volatile=*/false));
  EXPECT_EQ(std::make_tuple(store::kCodeEpoch, trace, metrics),
            std::make_tuple(std::uint32_t{1},
                            std::uint64_t{0xca54021e7c0a3089ULL},
                            std::uint64_t{0xf272724f0b503485ULL}));
}

TEST(ParallelCampaign, CallerNameOrderDoesNotMatter) {
  const std::uint64_t seed = 7;
  std::vector<std::string> shuffled = {"Boxpn",   "Freedome VPN", "Seed4.me",
                                       "NordVPN", "Anonine",      "ExpressVPN"};
  EXPECT_EQ(payload_at_jobs(4, seed, kSubset),
            payload_at_jobs(4, seed, shuffled));
}

TEST(ParallelCampaign, ReportsMergeInCanonicalCatalogOrder) {
  core::ParallelCampaign campaign(subset_options(4));
  const auto a = campaign.run(kSubset, 3);
  std::vector<std::string> shuffled = {"Seed4.me", "Boxpn",        "ExpressVPN",
                                       "Anonine",  "Freedome VPN", "NordVPN"};
  const auto b = campaign.run(shuffled, 3);
  ASSERT_EQ(a.providers.size(), b.providers.size());
  for (std::size_t i = 0; i < a.providers.size(); ++i)
    EXPECT_EQ(a.providers[i].provider, b.providers[i].provider);
}

TEST(ParallelCampaign, UnknownNamesAreDroppedAndDuplicatesCollapsed) {
  core::ParallelCampaign campaign(subset_options(2));
  const auto report =
      campaign.run({"NordVPN", "NoSuchVPN", "NordVPN", "Seed4.me"}, 11);
  ASSERT_EQ(report.providers.size(), 2u);
  EXPECT_TRUE(report.failed_providers.empty());
}

TEST(ParallelCampaign, WorkerCountersAccountForEveryShard) {
  core::ParallelCampaign campaign(subset_options(4));
  const auto report = campaign.run(kSubset, 5);
  EXPECT_EQ(report.jobs, 4u);
  const auto summary = analysis::summarize_campaign(report);
  EXPECT_EQ(summary.providers, kSubset.size());
  EXPECT_EQ(summary.tasks_run, kSubset.size());  // no retries expected
  EXPECT_EQ(summary.retries, 0u);
  EXPECT_EQ(summary.timeouts, 0u);
  EXPECT_EQ(summary.failed_shards, 0u);
  EXPECT_GT(summary.busy_wall_s, 0.0);
  EXPECT_GT(summary.wall_s, 0.0);
}

TEST(ParallelCampaign, ResellerAliasingSurvivesShardIsolation) {
  // Anonine's shard must deploy Boxpn too, so the four shared vantage
  // points alias onto partner hosts exactly as in the monolithic testbed.
  core::RunnerOptions all;
  all.vantage_points_per_provider = 0;  // aliases sit late in the roster
  const auto full = core::run_provider_shard("Anonine", 20181031, all);
  int shared = 0;
  for (const auto& vp : full.vantage_points)
    if (vp.vantage_id.rfind("shared-", 0) == 0) ++shared;
  EXPECT_EQ(shared, 4);
}

TEST(ParallelCampaign, ShardReportIsPureFunctionOfNameAndSeed) {
  core::RunnerOptions opts;
  opts.vantage_points_per_provider = 2;
  const auto a = core::run_provider_shard("NordVPN", 99, opts);
  const auto b = core::run_provider_shard("NordVPN", 99, opts);
  ASSERT_EQ(a.vantage_points.size(), b.vantage_points.size());
  for (std::size_t i = 0; i < a.vantage_points.size(); ++i) {
    EXPECT_EQ(a.vantage_points[i].vantage_id, b.vantage_points[i].vantage_id);
    EXPECT_EQ(a.vantage_points[i].egress_addr, b.vantage_points[i].egress_addr);
    EXPECT_EQ(a.vantage_points[i].connected, b.vantage_points[i].connected);
  }
}

TEST(ParallelCampaign, UnknownShardNameThrows) {
  core::RunnerOptions opts;
  EXPECT_THROW(core::run_provider_shard("NoSuchVPN", 1, opts),
               std::invalid_argument);
}

TEST(ParallelCampaign, SharedPlaneAndPerShardPlanesYieldIdenticalPayloads) {
  // The routing plane is a pure accelerator: shards that adopt the one
  // process-wide plane must serialize to the same bytes as shards that
  // compute all-pairs routes for themselves.
  const std::uint64_t seed = 20181031;
  const auto opts = subset_options(1);
  const auto plane = ecosystem::shared_backbone_plane();
  core::CampaignReport shared;
  core::CampaignReport per_shard;
  for (const auto& name : kSubset) {
    shared.providers.push_back(
        core::run_provider_shard(name, seed, opts.runner, plane));
    per_shard.providers.push_back(
        core::run_provider_shard(name, seed, opts.runner, nullptr));
  }
  EXPECT_EQ(analysis::serialize_campaign_payload(shared),
            analysis::serialize_campaign_payload(per_shard));
}

TEST(ParallelCampaign, ShardAdoptsSharedPlaneByFingerprint) {
  // Direct shard-level check: handing the process-wide plane to a shard
  // build is accepted (fingerprints agree across worlds and seeds).
  const auto plane = ecosystem::shared_backbone_plane();
  ASSERT_NE(plane, nullptr);
  core::RunnerOptions opts;
  opts.vantage_points_per_provider = 1;
  const auto with = core::run_provider_shard("Seed4.me", 42, opts, plane);
  const auto without = core::run_provider_shard("Seed4.me", 42, opts);
  ASSERT_EQ(with.vantage_points.size(), without.vantage_points.size());
  for (std::size_t i = 0; i < with.vantage_points.size(); ++i) {
    EXPECT_EQ(with.vantage_points[i].egress_addr,
              without.vantage_points[i].egress_addr);
    EXPECT_EQ(with.vantage_points[i].connected,
              without.vantage_points[i].connected);
  }
}

}  // namespace
}  // namespace vpna
