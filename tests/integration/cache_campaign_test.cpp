// The content-addressed campaign cache, end to end: a cached replay must
// be indistinguishable from a recompute (payload byte-identity across
// cache off/rw/ro, cold/warm, any worker count), a poisoned artifact must
// be detected and recomputed — never merged — and a one-provider catalog
// delta must dirty exactly one scaled shard.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/manifest.h"
#include "analysis/report_aggregation.h"
#include "analysis/report_writer.h"
#include "core/parallel_campaign.h"
#include "core/report_codec.h"
#include "ecosystem/scale.h"
#include "store/artifact_store.h"

namespace vpna {
namespace {

namespace fs = std::filesystem;

const std::vector<std::string> kSubset = {
    "NordVPN", "ExpressVPN", "Seed4.me", "Anonine", "Boxpn", "Freedome VPN"};
constexpr std::uint64_t kSeed = 20181031;

class CacheCampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("vpna_cache_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] core::CampaignOptions options(
      std::size_t jobs, store::CacheMode mode = store::CacheMode::kOff) const {
    core::CampaignOptions opts;
    opts.runner.vantage_points_per_provider = 2;
    opts.jobs = jobs;
    if (mode != store::CacheMode::kOff) {
      opts.cache.dir = dir_.string();
      opts.cache.mode = mode;
    }
    return opts;
  }

  [[nodiscard]] static std::string payload(const core::CampaignReport& r) {
    return analysis::serialize_campaign_payload(r);
  }

  // Flips one bit in the payload region of the named provider's artifact.
  void poison(const std::string& provider,
              const core::CampaignOptions& opts) const {
    store::CacheConfig cfg;
    cfg.dir = dir_.string();
    cfg.mode = store::CacheMode::kReadOnly;
    const store::ArtifactStore s(cfg);
    const auto key = core::campaign_shard_key(provider, kSeed, opts.runner);
    const fs::path p = s.path_for(key);
    ASSERT_TRUE(fs::exists(p)) << p;
    std::ifstream in(p, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_FALSE(bytes.empty());
    bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

TEST_F(CacheCampaignTest, WarmReplayIsByteIdenticalAcrossModesAndJobs) {
  const auto baseline =
      core::ParallelCampaign(options(1)).run(kSubset, kSeed);
  const std::string off_payload = payload(baseline);
  ASSERT_FALSE(off_payload.empty());
  EXPECT_TRUE(baseline.cache_records.empty());  // cache off → no records

  // Cold populate at jobs=4: every shard misses, recomputes, stores.
  const auto cold = core::ParallelCampaign(options(4, store::CacheMode::kReadWrite))
                        .run(kSubset, kSeed);
  EXPECT_EQ(payload(cold), off_payload);
  const auto cold_sum = core::summarize_cache(cold.cache_records);
  EXPECT_EQ(cold_sum.shards, kSubset.size());
  EXPECT_EQ(cold_sum.misses, kSubset.size());
  EXPECT_EQ(cold_sum.stored, kSubset.size());
  EXPECT_EQ(cold_sum.hits, 0u);
  EXPECT_GT(cold_sum.bytes_written, 0u);

  // Warm replays: rw and ro, serial and pooled — all hits, same bytes.
  for (auto mode : {store::CacheMode::kReadWrite, store::CacheMode::kReadOnly}) {
    for (std::size_t jobs : {1u, 4u}) {
      const auto warm =
          core::ParallelCampaign(options(jobs, mode)).run(kSubset, kSeed);
      EXPECT_EQ(payload(warm), off_payload)
          << "mode=" << store::cache_mode_name(mode) << " jobs=" << jobs;
      const auto sum = core::summarize_cache(warm.cache_records);
      EXPECT_EQ(sum.hits, kSubset.size());
      EXPECT_EQ(sum.misses, 0u);
      EXPECT_EQ(sum.stored, 0u);  // hits are never re-stored
      EXPECT_GT(sum.bytes_read, 0u);
    }
  }
}

TEST_F(CacheCampaignTest, CacheRecordsFollowCanonicalCatalogOrder) {
  const auto opts = options(4, store::CacheMode::kReadWrite);
  const auto report = core::ParallelCampaign(opts).run(kSubset, kSeed);
  ASSERT_EQ(report.cache_records.size(), report.providers.size());
  for (std::size_t i = 0; i < report.providers.size(); ++i) {
    EXPECT_EQ(report.cache_records[i].provider, report.providers[i].provider);
    const auto key = core::campaign_shard_key(report.providers[i].provider,
                                              kSeed, opts.runner);
    EXPECT_EQ(report.cache_records[i].key_id, key.id());
  }
}

TEST_F(CacheCampaignTest, PoisonedArtifactIsRecomputedAndRepairedNeverMerged) {
  const auto opts = options(4, store::CacheMode::kReadWrite);
  const auto cold = core::ParallelCampaign(opts).run(kSubset, kSeed);
  const std::string golden = payload(cold);

  const std::string victim = "Seed4.me";
  poison(victim, opts);

  const auto warm = core::ParallelCampaign(opts).run(kSubset, kSeed);
  // The damaged artifact was never merged: bytes match the golden run.
  EXPECT_EQ(payload(warm), golden);
  const auto sum = core::summarize_cache(warm.cache_records);
  EXPECT_EQ(sum.corrupt, 1u);
  EXPECT_EQ(sum.hits, kSubset.size() - 1);
  EXPECT_EQ(sum.stored, 1u);  // the recompute repaired the store
  for (const auto& r : warm.cache_records) {
    if (r.provider == victim) {
      EXPECT_EQ(r.outcome, core::ShardCacheRecord::Outcome::kCorrupt);
      EXPECT_TRUE(r.stored);
    } else {
      EXPECT_EQ(r.outcome, core::ShardCacheRecord::Outcome::kHit);
    }
  }
  // The corruption surfaces in the volatile cache.* metrics fold.
  const auto metrics = analysis::campaign_metrics(warm);
  EXPECT_EQ(metrics.counter("cache.corrupt"), 1u);
  // ...but never in the payload-bearing instrumentation appendix, which
  // stays empty for untraced runs regardless of cache activity.
  EXPECT_TRUE(analysis::render_instrumentation_appendix(warm).empty());

  // Repaired: a third run is all hits again.
  const auto third = core::ParallelCampaign(opts).run(kSubset, kSeed);
  EXPECT_EQ(payload(third), golden);
  EXPECT_EQ(core::summarize_cache(third.cache_records).hits, kSubset.size());
}

TEST_F(CacheCampaignTest, ReadOnlyRecomputesPoisonWithoutRepairing) {
  const auto rw = options(1, store::CacheMode::kReadWrite);
  const auto cold = core::ParallelCampaign(rw).run(kSubset, kSeed);
  const std::string golden = payload(cold);
  poison("Anonine", rw);

  const auto ro = options(1, store::CacheMode::kReadOnly);
  const auto warm = core::ParallelCampaign(ro).run(kSubset, kSeed);
  EXPECT_EQ(payload(warm), golden);
  const auto sum = core::summarize_cache(warm.cache_records);
  EXPECT_EQ(sum.corrupt, 1u);
  EXPECT_EQ(sum.stored, 0u);  // ro never writes
  // The poisoned bytes are still on disk (ro never deletes), so the next
  // ro run trips over them again.
  const auto again = core::ParallelCampaign(ro).run(kSubset, kSeed);
  EXPECT_EQ(payload(again), golden);
  EXPECT_EQ(core::summarize_cache(again.cache_records).corrupt, 1u);
}

TEST(CacheKeys, TracedKeysNeverShareAnAddressWithUntracedOnes) {
  const core::RunnerOptions runner;
  obs::TraceConfig traced;
  traced.enabled = true;
  obs::TraceConfig hops = traced;
  hops.packet_hops = true;
  for (const auto& name : kSubset) {
    const auto plain = core::campaign_shard_key(name, kSeed, runner);
    // Tracing off, the trace-aware key is the plain key.
    EXPECT_EQ(core::campaign_shard_key(name, kSeed, runner, obs::TraceConfig{}),
              plain);
    const auto with_trace = core::campaign_shard_key(name, kSeed, runner, traced);
    const auto with_hops = core::campaign_shard_key(name, kSeed, runner, hops);
    EXPECT_EQ(with_trace.payload_format, core::kTracedShardFormatVersion);
    EXPECT_NE(with_trace.payload_format, plain.payload_format);
    EXPECT_NE(with_trace.id(), plain.id());
    EXPECT_NE(with_hops.id(), with_trace.id());
    EXPECT_NE(with_hops.id(), plain.id());
  }
}

TEST_F(CacheCampaignTest, ManifestRecordsCacheProvenance) {
  const auto opts = options(4, store::CacheMode::kReadWrite);
  (void)core::ParallelCampaign(opts).run(kSubset, kSeed);
  const auto warm = core::ParallelCampaign(opts).run(kSubset, kSeed);
  const auto manifest =
      analysis::build_run_manifest(opts, warm, payload(warm));
  EXPECT_EQ(manifest.cache_mode, "rw");
  EXPECT_EQ(manifest.cache.hits, kSubset.size());
  ASSERT_EQ(manifest.shard_cache.size(), kSubset.size());
  const std::string json = analysis::render_manifest_json(manifest);
  EXPECT_NE(json.find("\"hits\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"misses\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"outcome\": \"hit\""), std::string::npos);
}

TEST_F(CacheCampaignTest, ScaledCatalogGrowthDirtiesExactlyOneShard) {
  const auto small = ecosystem::generate_scaled_catalog(12, 1000, 7);
  const auto grown = ecosystem::generate_scaled_catalog(13, 1000, 7);

  core::ScaledCampaignOptions opts;
  opts.seed = kSeed;
  opts.jobs = 4;
  opts.cache.dir = dir_.string();
  opts.cache.mode = store::CacheMode::kReadWrite;

  const auto cold = core::run_scaled_campaign(small, opts);
  const auto cold_sum = core::summarize_cache(cold.cache_records);
  EXPECT_EQ(cold_sum.misses, 12u);
  EXPECT_EQ(cold_sum.stored, 12u);

  // Growing N→N+1 leaves the first N provider fingerprints untouched, so
  // only the new provider's shard recomputes.
  const auto incremental = core::run_scaled_campaign(grown, opts);
  const auto inc_sum = core::summarize_cache(incremental.cache_records);
  EXPECT_EQ(inc_sum.hits, 12u);
  EXPECT_EQ(inc_sum.misses, 1u);

  // The incrementally-assembled payload matches an uncached run bit for bit.
  core::ScaledCampaignOptions off = opts;
  off.cache = {};
  const auto uncached = core::run_scaled_campaign(grown, off);
  EXPECT_EQ(incremental.payload, uncached.payload);
  EXPECT_EQ(incremental.payload_fingerprint, uncached.payload_fingerprint);

  // Fully warm: all 13 replay from cache, payload still identical.
  const auto warm = core::run_scaled_campaign(grown, opts);
  EXPECT_EQ(core::summarize_cache(warm.cache_records).hits, 13u);
  EXPECT_EQ(warm.payload, uncached.payload);
}

}  // namespace
}  // namespace vpna
