// Determinism contract of the observability layer: the canonicalized trace
// and metrics exports of a campaign are byte-identical at any worker count,
// in-process or in isolated worker processes, with the artifact cache off,
// cold or warm, and after a killed run is re-run over its store — and
// turning tracing on does not
// change the campaign payload itself.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/report_aggregation.h"
#include "analysis/report_writer.h"
#include "core/parallel_campaign.h"
#include "core/report_codec.h"
#include "obs/export.h"
#include "util/subprocess.h"

namespace vpna {
namespace {

// Same behaviour-covering subset the engine determinism suite uses.
const std::vector<std::string> kSubset = {
    "NordVPN", "ExpressVPN", "Seed4.me", "Anonine", "Boxpn", "Freedome VPN"};

core::CampaignOptions traced_options(std::size_t jobs) {
  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 2;  // keep the matrix cheap
  opts.jobs = jobs;
  opts.trace.enabled = true;
  return opts;
}

struct Exports {
  std::string payload;
  std::string chrome;
  std::string jsonl;
  std::string canonical_metrics;
};

Exports exports_of(const core::CampaignReport& report) {
  EXPECT_TRUE(report.failed_providers.empty());
  EXPECT_TRUE(report.crash_quarantined_providers.empty());
  EXPECT_EQ(report.traces.size(), kSubset.size());
  Exports out;
  out.payload = analysis::serialize_campaign_payload(report);
  out.chrome = obs::chrome_trace_json(report.traces);
  out.jsonl = obs::trace_jsonl(report.traces);
  out.canonical_metrics =
      analysis::campaign_metrics(report).render_text(/*include_volatile=*/false);
  return out;
}

Exports run_traced(const core::CampaignOptions& opts, std::uint64_t seed) {
  return exports_of(core::ParallelCampaign(opts).run(kSubset, seed));
}

Exports run_traced(std::size_t jobs, std::uint64_t seed) {
  return run_traced(traced_options(jobs), seed);
}

void expect_identical(const Exports& want, const Exports& got,
                      const char* label) {
  EXPECT_EQ(want.payload, got.payload) << label;
  EXPECT_EQ(want.chrome, got.chrome) << label;
  EXPECT_EQ(want.jsonl, got.jsonl) << label;
  EXPECT_EQ(want.canonical_metrics, got.canonical_metrics) << label;
}

core::CampaignOptions isolated_options(std::size_t jobs) {
  auto opts = traced_options(jobs);
  opts.isolate = true;  // fork-mode workers
  opts.term_grace_s = 0.3;
  return opts;
}

std::filesystem::path fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("vpna_trace_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::size_t shard_runs(const core::CampaignReport& report) {
  std::size_t runs = 0;
  for (const auto& w : report.workers) runs += w.tasks_run;
  return runs;
}

TEST(TraceDeterminism, ExportsAreByteIdenticalAcrossWorkerCounts) {
  const std::uint64_t seed = 20181031;
  const auto serial = run_traced(1, seed);
  ASSERT_FALSE(serial.chrome.empty());
  ASSERT_FALSE(serial.jsonl.empty());
  ASSERT_FALSE(serial.canonical_metrics.empty());

  const auto parallel = run_traced(4, seed);
  EXPECT_EQ(serial.chrome, parallel.chrome);
  EXPECT_EQ(serial.jsonl, parallel.jsonl);
  EXPECT_EQ(serial.canonical_metrics, parallel.canonical_metrics);
  EXPECT_EQ(serial.payload, parallel.payload);
}

TEST(TraceDeterminism, IsolatedExportsMatchInProcess) {
  const std::uint64_t seed = 20181031;
  const auto in_process = run_traced(4, seed);
  ASSERT_FALSE(in_process.chrome.empty());
  for (std::size_t jobs : {1u, 4u}) {
    const auto report =
        core::ParallelCampaign(isolated_options(jobs)).run(kSubset, seed);
    EXPECT_TRUE(report.execution_isolated);
    expect_identical(in_process, exports_of(report),
                     jobs == 1 ? "isolated, jobs 1" : "isolated, jobs 4");
  }
}

TEST(TraceDeterminism, CachedRunsReplayTracesByteForByte) {
  const std::uint64_t seed = 20181031;
  const auto uncached = run_traced(1, seed);
  const auto dir = fresh_dir("cache");
  const auto with_cache = [&](std::size_t jobs, store::CacheMode mode) {
    auto opts = traced_options(jobs);
    opts.cache.dir = dir.string();
    opts.cache.mode = mode;
    return opts;
  };

  const auto cold = core::ParallelCampaign(
      with_cache(4, store::CacheMode::kReadWrite)).run(kSubset, seed);
  const auto cold_sum = core::summarize_cache(cold.cache_records);
  EXPECT_EQ(cold_sum.misses, kSubset.size());
  EXPECT_EQ(cold_sum.stored, kSubset.size());
  expect_identical(uncached, exports_of(cold), "rw cold");

  // Warm runs replay every shard, trace included, and run none.
  for (const auto mode : {store::CacheMode::kReadWrite,
                          store::CacheMode::kReadOnly}) {
    const auto warm =
        core::ParallelCampaign(with_cache(4, mode)).run(kSubset, seed);
    const auto sum = core::summarize_cache(warm.cache_records);
    EXPECT_EQ(sum.hits, kSubset.size());
    EXPECT_EQ(sum.stored, 0u);
    EXPECT_EQ(shard_runs(warm), 0u);
    expect_identical(uncached, exports_of(warm),
                     mode == store::CacheMode::kReadOnly ? "ro warm"
                                                         : "rw warm");
  }

  // The traced artifacts sit at addresses an untraced run never reads.
  auto untraced = with_cache(4, store::CacheMode::kReadOnly);
  untraced.trace = {};
  const auto plain = core::ParallelCampaign(untraced).run(kSubset, seed);
  EXPECT_EQ(core::summarize_cache(plain.cache_records).hits, 0u);
  EXPECT_EQ(analysis::serialize_campaign_payload(plain), uncached.payload);
  std::filesystem::remove_all(dir);
}

TEST(TraceDeterminism, ResumedIsolatedRunMatchesInProcess) {
  const std::uint64_t seed = 20181031;
  const auto in_process = run_traced(4, seed);
  const auto dir = fresh_dir("resume");
  auto opts = isolated_options(2);
  opts.cache.dir = (dir / "cache").string();
  opts.cache.mode = store::CacheMode::kReadWrite;

  // The supervisor self-SIGKILLs after its third filed outcome, in a
  // sacrificial child process: a host crash mid-campaign.
  auto victim = util::Subprocess::fork_child([opts, seed](int, int) {
    ::setenv("VPNA_CRASH_SUPERVISOR", "3:kill", 1);
    (void)core::ParallelCampaign(opts).run(kSubset, seed);
    return 0;  // unreachable: the supervisor dies first
  });
  const auto status = victim.wait();
  ASSERT_TRUE(status.signaled);
  ASSERT_EQ(status.signal, SIGKILL);

  // Exactly the three finished shards are in the store, traces included.
  const store::ArtifactStore store(opts.cache);
  std::size_t durable = 0;
  for (const auto& name : kSubset) {
    const auto fetched =
        store.fetch(core::campaign_shard_key(name, seed, opts.runner, opts.trace));
    if (fetched.status != store::FetchStatus::kHit) continue;
    ++durable;
    core::ProviderReport report;
    obs::ShardTrace trace;
    EXPECT_TRUE(core::decode_traced_shard(fetched.payload, &report, &trace))
        << name;
  }
  EXPECT_EQ(durable, 3u);

  // The same command again replays them and recomputes the rest.
  const auto rerun = core::ParallelCampaign(opts).run(kSubset, seed);
  EXPECT_EQ(core::summarize_cache(rerun.cache_records).hits, 3u);
  expect_identical(in_process, exports_of(rerun), "re-run isolated");
  std::filesystem::remove_all(dir);
}

TEST(TraceDeterminism, TracingDoesNotPerturbTheCampaignPayload) {
  const std::uint64_t seed = 4242;
  auto untraced_opts = traced_options(4);
  untraced_opts.trace = {};  // observation off, everything else identical
  core::ParallelCampaign untraced(untraced_opts);
  core::ParallelCampaign traced(traced_options(4));

  const auto plain = untraced.run(kSubset, seed);
  const auto observed = traced.run(kSubset, seed);
  EXPECT_TRUE(plain.traces.empty());
  EXPECT_EQ(analysis::serialize_campaign_payload(plain),
            analysis::serialize_campaign_payload(observed));
}

TEST(TraceDeterminism, ShardTracesAlignWithProviders) {
  core::ParallelCampaign campaign(traced_options(2));
  const auto report = campaign.run(kSubset, 7);
  ASSERT_EQ(report.traces.size(), report.providers.size());
  for (std::size_t i = 0; i < report.traces.size(); ++i) {
    EXPECT_EQ(report.traces[i].shard, report.providers[i].provider);
    // Every shard ran real work under its root span.
    ASSERT_FALSE(report.traces[i].events.empty());
    EXPECT_EQ(report.traces[i].events.front().name, "shard.run");
    EXPECT_GT(report.traces[i].metrics.counter("net.transact.ok"), 0u);
    EXPECT_GT(report.traces[i].metrics.counter("runner.vantage_points"), 0u);
  }
}

TEST(TraceDeterminism, InstrumentationAppendixIsCanonical) {
  const std::uint64_t seed = 99;
  core::ParallelCampaign serial(traced_options(1));
  core::ParallelCampaign parallel(traced_options(4));
  const auto a = analysis::render_instrumentation_appendix(serial.run(kSubset, seed));
  const auto b =
      analysis::render_instrumentation_appendix(parallel.run(kSubset, seed));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // Scheduling telemetry must not leak into the appendix.
  EXPECT_EQ(a.find("pool."), std::string::npos);
}

}  // namespace
}  // namespace vpna
