// Graceful-degradation contract: under an active fault profile, exhausted
// shards quarantine (structured outcome, exit 0) instead of hard-failing
// the campaign; the degradation appendix renders what gave up and why; and
// campaign_exit_code fails a run only for hard shard failures.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/report_aggregation.h"
#include "analysis/report_writer.h"
#include "core/parallel_campaign.h"
#include "faults/profile.h"

namespace vpna {
namespace {

// --- campaign_exit_code ---------------------------------------------------

TEST(CampaignExitCode, CleanRunExitsZero) {
  analysis::CampaignEngineSummary summary;
  EXPECT_EQ(analysis::campaign_exit_code(summary), 0);
}

TEST(CampaignExitCode, DegradationStillExitsZero) {
  // Degraded-but-complete is a success by contract: the payload is complete
  // and every give-up is recorded as structured data.
  analysis::CampaignEngineSummary summary;
  summary.quarantined_shards = 3;
  summary.degraded_providers = 5;
  summary.degraded_vantage_points = 9;
  EXPECT_EQ(analysis::campaign_exit_code(summary), 0);
}

TEST(CampaignExitCode, HardShardFailureExitsNonZero) {
  analysis::CampaignEngineSummary summary;
  summary.failed_shards = 1;
  EXPECT_EQ(analysis::campaign_exit_code(summary), 1);
}

// --- synthetic report: tallies + appendix ---------------------------------

core::CampaignReport synthetic_degraded_report() {
  core::CampaignReport report;

  core::ProviderReport quarantined;
  quarantined.provider = "QuarantinedVPN";
  quarantined.quarantined = true;

  core::ProviderReport degraded;
  degraded.provider = "DegradedVPN";
  core::VantagePointReport vp;
  vp.provider = "DegradedVPN";
  vp.vantage_id = "us-east-1";
  vp.degradation.degraded = true;
  vp.degradation.stage = "connect";
  vp.degradation.error = transport::Error::from_status(
      netsim::TransactStatus::kDropped);
  vp.degradation.attempts = 3;
  vp.degradation.faults_seen = 7;
  degraded.vantage_points.push_back(vp);
  core::VantagePointReport healthy;
  healthy.provider = "DegradedVPN";
  healthy.vantage_id = "eu-west-1";
  healthy.connected = true;
  degraded.vantage_points.push_back(healthy);

  core::ProviderReport clean;
  clean.provider = "CleanVPN";
  clean.vantage_points.push_back(healthy);

  report.providers = {quarantined, degraded, clean};
  report.degraded_providers = {"QuarantinedVPN", "DegradedVPN"};
  return report;
}

TEST(DegradationSummary, TalliesQuarantineAndDegradedVantagePoints) {
  const auto summary = analysis::summarize_campaign(synthetic_degraded_report());
  EXPECT_EQ(summary.quarantined_shards, 1u);
  EXPECT_EQ(summary.degraded_providers, 2u);
  EXPECT_EQ(summary.degraded_vantage_points, 1u);
  EXPECT_EQ(summary.failed_shards, 0u);
  EXPECT_EQ(analysis::campaign_exit_code(summary), 0);
}

TEST(DegradationAppendix, EmptyWhenNothingDegraded) {
  core::CampaignReport report;
  core::ProviderReport clean;
  clean.provider = "CleanVPN";
  report.providers.push_back(clean);
  EXPECT_EQ(analysis::render_degradation_appendix(report), "");
}

TEST(DegradationAppendix, RendersQuarantineAndGiveUpLines) {
  const auto appendix =
      analysis::render_degradation_appendix(synthetic_degraded_report());
  EXPECT_NE(appendix.find("Appendix: degradation"), std::string::npos);
  EXPECT_NE(appendix.find("QuarantinedVPN"), std::string::npos);
  EXPECT_NE(appendix.find("quarantined"), std::string::npos);
  EXPECT_NE(appendix.find("DegradedVPN"), std::string::npos);
  EXPECT_NE(appendix.find("us-east-1"), std::string::npos);
  EXPECT_NE(appendix.find("connect"), std::string::npos);
  EXPECT_NE(appendix.find("3 attempt"), std::string::npos);
  EXPECT_NE(appendix.find(transport::error_name(
                transport::Error::from_status(
                    netsim::TransactStatus::kDropped))),
            std::string::npos);
  // The healthy provider never appears.
  EXPECT_EQ(appendix.find("CleanVPN"), std::string::npos);
}

// --- end-to-end quarantine via the campaign engine ------------------------

// A sub-nanosecond per-attempt budget makes every shard attempt "overrun"
// (in-process backends check the budget when the attempt returns), so with
// shard_attempts=1 every shard exhausts its attempts deterministically —
// in-caller (jobs 1) and on the pool (jobs 2) alike.
core::CampaignOptions exhausted_shard_options(faults::FaultProfile profile,
                                              std::size_t jobs) {
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 1;
  opts.runner.fault_profile = profile;
  opts.jobs = jobs;
  opts.shard_attempts = 1;
  opts.shard_timeout_s = 1e-9;
  return opts;
}

const std::vector<std::string> kSubset = {"NordVPN", "Anonine"};

TEST(QuarantineIntegration, FaultProfileQuarantinesExhaustedShards) {
  for (std::size_t jobs : {1u, 2u}) {
    SCOPED_TRACE(jobs);
    core::ParallelCampaign campaign(
        exhausted_shard_options(faults::FaultProfile::kFlaky, jobs));
    const auto report = campaign.run(kSubset, 99);

    // Both shards exhausted their budget — but the run degrades, not fails.
    ASSERT_EQ(report.providers.size(), 2u);
    EXPECT_TRUE(report.failed_providers.empty());
    for (const auto& provider : report.providers) {
      EXPECT_TRUE(provider.quarantined) << provider.provider;
      EXPECT_TRUE(provider.degraded()) << provider.provider;
      EXPECT_TRUE(provider.vantage_points.empty()) << provider.provider;
    }
    EXPECT_EQ(report.degraded_providers, kSubset);

    const auto summary = analysis::summarize_campaign(report);
    EXPECT_EQ(summary.quarantined_shards, 2u);
    EXPECT_EQ(summary.failed_shards, 0u);
    EXPECT_EQ(analysis::campaign_exit_code(summary), 0);
    EXPECT_NE(analysis::render_degradation_appendix(report), "");
  }
}

TEST(QuarantineIntegration, OffProfileKeepsHardFailureSemantics) {
  for (std::size_t jobs : {1u, 2u}) {
    SCOPED_TRACE(jobs);
    core::ParallelCampaign campaign(
        exhausted_shard_options(faults::FaultProfile::kOff, jobs));
    const auto report = campaign.run(kSubset, 99);

    // Same exhaustion without a fault profile stays a hard failure: the
    // providers land in failed_providers and the run exits non-zero.
    ASSERT_EQ(report.providers.size(), 2u);
    EXPECT_EQ(report.failed_providers, kSubset);
    EXPECT_TRUE(report.degraded_providers.empty());
    for (const auto& provider : report.providers)
      EXPECT_FALSE(provider.quarantined) << provider.provider;

    const auto summary = analysis::summarize_campaign(report);
    EXPECT_EQ(summary.failed_shards, 2u);
    EXPECT_EQ(summary.quarantined_shards, 0u);
    EXPECT_EQ(analysis::campaign_exit_code(summary), 1);
  }
}

}  // namespace
}  // namespace vpna
