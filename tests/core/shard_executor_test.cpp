// ShardExecutor unit tests over all three backends (in-caller, pool, and
// fork-mode processes), driven by a fake shard set whose shards are cheap
// strings: retries, exhaustion and its classification, the wall budget,
// cache hits that never run a shard, a re-run over the store that
// recomputes only the shards a previous run did not file, and codec
// silence with the cache off. Two end-to-end checks ride along: a
// throwing in-process census shard is zeroed and listed as crashed, and an
// isolated run's manifest reports the attempts its supervisor granted.
#include "core/shard_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analysis/manifest.h"
#include "analysis/report_aggregation.h"
#include "core/parallel_campaign.h"
#include "ecosystem/scale.h"

namespace vpna::core {
namespace {

namespace fs = std::filesystem;

struct Backend {
  const char* name;
  std::size_t jobs;
  bool isolate;
};

const Backend kBackends[] = {
    {"in-caller", 1, false}, {"pool", 3, false}, {"process", 2, true}};

std::string fate_name(ShardFate fate) {
  switch (fate) {
    case ShardFate::kPending: return "pending";
    case ShardFate::kDone: return "done";
    case ShardFate::kFailed: return "failed";
    case ShardFate::kQuarantined: return "quarantined";
    case ShardFate::kCrashed: return "crashed";
    case ShardFate::kSkipped: return "skipped";
  }
  return "?";
}

// A fresh scratch directory per test (and per process: fork-mode workers
// share it with their parent, which is what the marker files rely on).
class ScratchDir {
 public:
  ScratchDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("vpna_executor_" + std::to_string(::getpid()) + "_" + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() { fs::remove_all(dir_); }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] fs::path path(const std::string& leaf) const {
    return dir_ / leaf;
  }

 private:
  fs::path dir_;
};

// Creates `marker` and returns true the first time it is called for that
// path in any process — a fail-once switch that survives forked workers.
bool first_time(const fs::path& marker) {
  std::error_code ec;
  if (fs::exists(marker, ec)) return false;
  std::ofstream(marker) << "x";
  return true;
}

std::size_t line_count(const fs::path& file) {
  std::ifstream in(file);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  return lines;
}

// Fake shard set: shard i computes the string "value-i". Every run appends
// one line to `runs.log`, so runs are countable across worker processes;
// `hook` can make a shard throw or stall before it computes.
class FakeShards {
 public:
  FakeShards(std::size_t n, const ScratchDir& dir)
      : values_(n), run_log_(dir.path("runs.log")) {
    for (std::size_t i = 0; i < n; ++i)
      names_.push_back("shard-" + std::to_string(i));
  }

  std::function<void(std::size_t)> hook;
  std::vector<std::string> values_;
  std::atomic<int> encodes{0};
  std::atomic<int> decodes{0};

  [[nodiscard]] std::string expected(std::size_t i) const {
    return "value-" + std::to_string(i);
  }
  [[nodiscard]] std::size_t runs() const { return line_count(run_log_); }

  [[nodiscard]] ShardSet set() {
    ShardSet set;
    set.names = names_;
    set.run = [this](std::size_t i) {
      {
        std::ofstream log(run_log_, std::ios::app);
        log << i << "\n";
      }
      if (hook) hook(i);
      values_[i] = expected(i);
    };
    set.encode = [this](std::size_t i) {
      ++encodes;
      return values_[i];
    };
    set.decode = [this](std::size_t i, std::string_view bytes) {
      ++decodes;
      if (bytes != expected(i)) return false;
      values_[i] = std::string(bytes);
      return true;
    };
    set.placeholder = [this](std::size_t i, ShardFate fate) {
      values_[i] = "placeholder:" + fate_name(fate);
    };
    set.key = [this](std::size_t i) {
      store::ShardKey key;
      key.code_epoch = 1;
      key.payload_format = 1;
      key.catalog_fingerprint = 0xfeedULL + i;
      key.shard_seed = 42;
      key.fault_profile = "off";
      key.runner_options_fingerprint = names_.size();
      return key;
    };
    return set;
  }

 private:
  std::vector<std::string> names_;
  fs::path run_log_;
};

ExecutionOptions options_for(const Backend& backend) {
  ExecutionOptions opts;
  opts.jobs = backend.jobs;
  opts.isolate = backend.isolate;
  opts.term_grace_s = 0.1;
  return opts;
}

util::WorkerCounters totals(const ExecutorResult& result) {
  util::WorkerCounters t;
  for (const auto& w : result.workers) {
    t.tasks_run += w.tasks_run;
    t.retries += w.retries;
    t.timeouts += w.timeouts;
  }
  return t;
}

TEST(ShardExecutor, ShardThatFailsOnceIsRetriedAndMerged) {
  for (const auto& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    ScratchDir dir;
    FakeShards shards(5, dir);
    const auto marker = dir.path("flaked");
    shards.hook = [&marker](std::size_t i) {
      if (i == 2 && first_time(marker)) throw std::runtime_error("flake");
    };
    const auto result = ShardExecutor(options_for(backend)).run(shards.set());
    ASSERT_EQ(result.slots.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(result.slots[i].fate, ShardFate::kDone) << i;
      EXPECT_EQ(result.slots[i].attempts, i == 2 ? 2 : 1) << i;
      EXPECT_EQ(shards.values_[i], shards.expected(i)) << i;
    }
    EXPECT_EQ(shards.runs(), 6u);
    if (!backend.isolate) {
      EXPECT_EQ(totals(result).retries, 1u);
      EXPECT_EQ(totals(result).tasks_run, 6u);
    }
  }
}

TEST(ShardExecutor, ExhaustedShardGetsItsPlaceholderAndIsClassified) {
  for (const auto& backend : kBackends) {
    for (bool graceful : {false, true}) {
      SCOPED_TRACE(std::string(backend.name) + (graceful ? " graceful" : " hard"));
      ScratchDir dir;
      FakeShards shards(4, dir);
      shards.hook = [](std::size_t i) {
        if (i == 1) throw std::runtime_error("always fails");
      };
      auto opts = options_for(backend);
      opts.shard_attempts = 2;
      ShardSet set = shards.set();
      set.graceful = graceful;
      const auto result = ShardExecutor(opts).run(set);
      const ShardFate want =
          graceful ? ShardFate::kQuarantined : ShardFate::kFailed;
      EXPECT_EQ(result.slots[1].fate, want);
      EXPECT_EQ(result.slots[1].attempts, 2);
      EXPECT_NE(result.slots[1].error.find("always fails"), std::string::npos)
          << result.slots[1].error;
      EXPECT_EQ(shards.values_[1], "placeholder:" + fate_name(want));
      for (std::size_t i : {0u, 2u, 3u}) {
        EXPECT_EQ(result.slots[i].fate, ShardFate::kDone) << i;
        EXPECT_EQ(shards.values_[i], shards.expected(i)) << i;
      }
      EXPECT_FALSE(result.interrupted);
    }
  }
}

TEST(ShardExecutor, OverBudgetAttemptsExhaustTheShard) {
  for (const auto& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    ScratchDir dir;
    FakeShards shards(3, dir);
    shards.hook = [](std::size_t i) {
      if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(300));
    };
    auto opts = options_for(backend);
    opts.shard_attempts = 2;
    opts.shard_timeout_s = 0.1;
    const auto result = ShardExecutor(opts).run(shards.set());
    EXPECT_EQ(result.slots[0].attempts, 2);
    EXPECT_EQ(result.slots[1].fate, ShardFate::kDone);
    EXPECT_EQ(result.slots[2].fate, ShardFate::kDone);
    if (backend.isolate) {
      // A real budget: the worker is killed, so the shard counts as crashed.
      EXPECT_EQ(result.slots[0].fate, ShardFate::kCrashed);
      EXPECT_EQ(result.process_timeouts, 2u);
      EXPECT_GE(result.process_kills, 2u);
    } else {
      // In-process: the over-budget result is discarded when it returns.
      EXPECT_EQ(result.slots[0].fate, ShardFate::kFailed);
      EXPECT_EQ(totals(result).timeouts, 2u);
      EXPECT_EQ(totals(result).retries, 1u);
    }
    EXPECT_EQ(shards.values_[0],
              "placeholder:" + fate_name(result.slots[0].fate));
  }
}

TEST(ShardExecutor, GenerousTimeoutKeepsFastShards) {
  for (const auto& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    ScratchDir dir;
    FakeShards shards(3, dir);
    auto opts = options_for(backend);
    opts.shard_timeout_s = 30.0;
    const auto result = ShardExecutor(opts).run(shards.set());
    for (const auto& slot : result.slots) {
      EXPECT_EQ(slot.fate, ShardFate::kDone);
      EXPECT_EQ(slot.attempts, 1);
    }
    EXPECT_EQ(totals(result).timeouts, 0u);
    EXPECT_EQ(result.process_timeouts, 0u);
  }
}

TEST(ShardExecutor, CacheHitNeverCallsRun) {
  ScratchDir dir;
  ExecutionOptions cold = options_for(kBackends[0]);
  cold.cache.dir = dir.path("store").string();
  cold.cache.mode = store::CacheMode::kReadWrite;
  {
    FakeShards shards(4, dir);
    const auto result = ShardExecutor(cold).run(shards.set());
    const auto sum = summarize_cache(result.cache_records);
    EXPECT_EQ(sum.misses, 4u);
    EXPECT_EQ(sum.stored, 4u);
  }
  const std::size_t cold_runs = line_count(dir.path("runs.log"));
  EXPECT_EQ(cold_runs, 4u);
  for (const auto& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    FakeShards shards(4, dir);
    auto opts = options_for(backend);
    opts.cache = cold.cache;
    const auto result = ShardExecutor(opts).run(shards.set());
    EXPECT_EQ(shards.runs(), cold_runs);  // no shard ran anywhere
    EXPECT_EQ(result.process_spawns, 0u);
    EXPECT_EQ(summarize_cache(result.cache_records).hits, 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(result.slots[i].fate, ShardFate::kDone);
      EXPECT_EQ(result.slots[i].attempts, 0);
      EXPECT_EQ(shards.values_[i], shards.expected(i));
    }
  }
}

// The store is the recovery mechanism on every backend: a run files
// exactly its done shards, and a re-run over the same store replays them as
// hits and recomputes only the shard that had no artifact.
TEST(ShardExecutor, RerunOverTheStoreRecomputesOnlyUnfiledShards) {
  for (const auto& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    ScratchDir dir;
    auto opts = options_for(backend);
    opts.shard_attempts = 1;
    opts.cache.dir = dir.path("store").string();
    opts.cache.mode = store::CacheMode::kReadWrite;
    {
      FakeShards shards(5, dir);
      shards.hook = [](std::size_t i) {
        if (i == 1) throw std::runtime_error("down this run");
      };
      ShardSet set = shards.set();
      set.graceful = true;
      const auto result = ShardExecutor(opts).run(set);
      EXPECT_EQ(result.slots[1].fate, ShardFate::kQuarantined);
      const store::ArtifactStore store(opts.cache);
      for (std::size_t i = 0; i < 5; ++i) {
        const auto fetched = store.fetch(set.key(i));
        if (i == 1) {
          EXPECT_EQ(fetched.status, store::FetchStatus::kMiss);
        } else {
          EXPECT_EQ(fetched.status, store::FetchStatus::kHit) << i;
          EXPECT_EQ(fetched.payload, shards.expected(i)) << i;
        }
      }
    }
    const std::size_t first_runs = line_count(dir.path("runs.log"));
    FakeShards shards(5, dir);
    const auto result = ShardExecutor(opts).run(shards.set());
    EXPECT_EQ(shards.runs(), first_runs + 1);  // only shard 1 ran again
    const auto sum = summarize_cache(result.cache_records);
    EXPECT_EQ(sum.hits, 4u);
    EXPECT_EQ(sum.misses, 1u);
    EXPECT_EQ(result.cache_records[1].outcome,
              ShardCacheRecord::Outcome::kMiss);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(result.slots[i].fate, ShardFate::kDone) << i;
      EXPECT_EQ(shards.values_[i], shards.expected(i)) << i;
    }
  }
}

TEST(ShardExecutor, InProcessRunsNeverTouchTheCodecWithTheCacheOff) {
  for (const auto& backend : {kBackends[0], kBackends[1]}) {
    SCOPED_TRACE(backend.name);
    ScratchDir dir;
    FakeShards shards(6, dir);
    const auto result = ShardExecutor(options_for(backend)).run(shards.set());
    EXPECT_TRUE(result.cache_records.empty());
    EXPECT_EQ(shards.encodes.load(), 0);
    EXPECT_EQ(shards.decodes.load(), 0);
    for (std::size_t i = 0; i < 6; ++i)
      EXPECT_EQ(shards.values_[i], shards.expected(i));
  }
}

TEST(ShardExecutor, ThrowingInProcessCensusShardIsZeroedAndListedCrashed) {
  auto catalog = ecosystem::generate_scaled_catalog(12, 50, 20181031);
  const std::string victim = catalog.providers[4].spec.name;
  // Deploying into a datacenter the world does not have throws inside the
  // shard build — every attempt, deterministically.
  catalog.providers[4].spec.vantage_points.front().datacenter_id =
      "no-such-datacenter";
  for (std::size_t jobs : {1u, 2u}) {
    SCOPED_TRACE(jobs);
    ScaledCampaignOptions opts;
    opts.jobs = jobs;
    opts.shard_attempts = 2;
    const auto report = run_scaled_campaign(catalog, opts);
    ASSERT_EQ(report.shards.size(), 12u);
    ASSERT_FALSE(report.crashed_providers.empty());
    EXPECT_EQ(report.crashed_providers.front(), victim);
    const auto& zeroed = report.shards[4];
    EXPECT_EQ(zeroed.provider, victim);
    EXPECT_EQ(zeroed.vantage_points, 0u);
    EXPECT_EQ(zeroed.hosts, 0u);
    EXPECT_EQ(zeroed.modeled_subscribers, catalog.subscribers[4]);
    // Every shard that is not listed censused normally.
    for (const auto& s : report.shards) {
      const bool crashed =
          std::find(report.crashed_providers.begin(),
                    report.crashed_providers.end(),
                    s.provider) != report.crashed_providers.end();
      if (!crashed) {
        EXPECT_GT(s.vantage_points, 0u) << s.provider;
      }
    }
  }
}

TEST(ShardExecutor, IsolatedManifestReportsGrantedShardAttempts) {
  ::setenv("VPNA_CRASH_SHARD", "0:exit:always", 1);
  CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 1;
  opts.jobs = 2;
  opts.isolate = true;
  opts.term_grace_s = 0.1;
  opts.shard_attempts = 2;
  const auto report = ParallelCampaign(opts).run({"NordVPN", "Seed4.me"});
  ::unsetenv("VPNA_CRASH_SHARD");

  ASSERT_EQ(report.crash_quarantined_providers.size(), 1u);
  EXPECT_EQ(report.process_crashes, 2u);  // exactly the granted attempts
  const auto json = analysis::render_manifest_json(analysis::build_run_manifest(
      opts, report, analysis::serialize_campaign_payload(report)));
  EXPECT_NE(json.find("\"shard_attempts\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"isolated\""), std::string::npos);
}

}  // namespace
}  // namespace vpna::core
