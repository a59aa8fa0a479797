// Full campaign driver: deploy the 62-provider testbed, run the complete
// test suite, and write the artefacts the paper published — a ranked
// selection-guide scorecard, per-provider Markdown reports, and a raw CSV.
//
//   ./full_campaign [output-dir] [--jobs N] [--faults PROFILE]
//                   [--speedtest] [--trace FILE] [--metrics FILE]
//                   [--trace-hops] [--status-file FILE] [--watchdog MULT]
//                   [--profile FILE] [--scale N] [--subscribers M] [--eager]
//                   [--cache-dir DIR] [--cache off|rw|ro] [--explain-cache]
//                   [--isolate] [--resume] [--max-shard-retries N]
//
// Default output-dir is the current directory. --jobs selects the parallel
// campaign engine's worker count (0 = hardware concurrency, 1 = serial);
// results are byte-identical at any worker count for the same seed.
//
// --faults selects a deterministic fault-injection profile (off, flaky,
// hostile; default off). Fault schedules are seeded per shard, so payloads
// stay byte-identical at any --jobs. Vantage points or shards that exhaust
// their retries under a profile degrade gracefully: the run still exits 0,
// with a degradation summary on stderr and an appendix in scorecard.md.
//
// --speedtest provisions link capacities on every shard world and runs the
// capacity-aware speed-test suite per vantage point, writing speedtest.csv
// next to the other artefacts. Off by default; without it the campaign's
// artefacts are byte-identical to a build without the traffic plane.
//
// --status-file periodically (and atomically) rewrites FILE with a live
// progress JSON: percent complete, per-worker current shard, an ETA from
// the completed-shard median, and pool counters — poll it with `watch cat`
// or a dashboard. --watchdog MULT additionally flags any shard running
// longer than MULT × the median completed-shard wall time (structured
// records in the status file and the run manifest; never kills the shard).
// --profile enables the wall-clock phase profiler and writes the folded
// hot-phase report (self/total per phase plus a flame summary) to FILE.
// All three are wall-clock telemetry: they never change campaign payloads.
//
// Every run also writes run_manifest.json to the output dir: the
// deterministic cache key of the computation (catalog fingerprint, shard
// seeds, fault/capacity profile, payload fingerprint) plus build and
// telemetry provenance.
//
// --scale N switches to the Internet-scale census path: a synthetic
// catalog of N providers is generated from the 62 evaluated providers'
// empirical distributions (seeded; deterministic), each provider gets its
// own lazily-materialized shard world, and the run writes scale_census.csv
// plus a payload fingerprint — byte-identical at any --jobs. --subscribers
// sets the modeled mean subscriber count per provider (default 1000;
// subscribers are counts, only a capped handful of eyeball clients
// materialize per shard). --eager pre-materializes every shard world in
// the driver first — the peak-RSS A/B baseline for the deferred default.
//
// --cache-dir DIR points the content-addressed artifact store at DIR and
// (unless --cache overrides it) opens it read-write: each provider shard
// consults the store before building its world, replays a cached report on
// a hit, and files the encoded report back on a miss. Payloads are byte-
// identical with the cache off, cold, or warm — a warm re-run just skips
// the work. --cache ro consults without ever writing (shared store dirs);
// --cache off ignores the store. --explain-cache prints one line per shard
// with its content address and what the store did (hit/miss/corrupt/
// bypass, for a shard that ended without a result). Corrupt artifacts
// (truncation, bit flips, foreign writers) are detected by checksum,
// recomputed, and — in rw mode — repaired in place; they are never merged.
// run_manifest.json carries the same provenance in its "cache" section.
// Traced runs (--trace/--metrics/--trace-hops) cache each shard's trace
// with its report, under keys untraced runs never share, so a warm traced
// re-run replays the trace and metrics byte for byte too.
//
// --trace writes a Chrome trace-event JSON of the whole campaign in
// sim-time (load it in https://ui.perfetto.dev; one lane per provider
// shard) and also enables the metrics registry; --metrics dumps the merged
// metrics as text (canonical section first, scheduling telemetry below the
// marker). --trace-hops additionally records a per-router instant for every
// packet hop — detailed, and much larger output. Trace and canonical
// metrics are byte-identical at any --jobs, under --isolate, and with the
// cache off, cold or warm.
//
// --isolate runs every shard in a supervised worker process (this binary
// re-exec'd with the hidden --vpna-worker flag): a shard that segfaults,
// is OOM-killed, or hangs is contained — retried on a fresh process, then
// crash-quarantined while the rest of the campaign completes. Payloads are
// byte-identical to in-process runs, and traced isolated runs stream each
// shard's trace back with its report. Isolated runs also append a durable
// campaign.journal in the output dir (one fdatasync'd line per finished
// shard); after a crash or SIGKILL of the driver itself, re-running with
// --resume replays every journaled shard whose artifact is still in the
// --cache-dir store and recomputes only the rest — the final payload is
// byte-identical to an uninterrupted run. SIGINT/SIGTERM are
// handled cooperatively under --isolate: workers are reaped, the final
// status JSON and a partial run_manifest.json are flushed, exit code 130.
//
// --max-shard-retries N bounds the re-runs any shard gets after its first
// attempt (default 2, i.e. 3 attempts), in-process and --isolate alike: a
// shard that throws, overruns, or crashes its worker is re-run from
// scratch, and only then quarantined (fault profile, crashed worker,
// scaled census) or failed.
//
// Exit-code taxonomy:
//   0   completed; payload trustworthy (incl. graceful fault degradation)
//   1   hard shard failure (no fault profile; shard exhausted attempts)
//   2   usage error
//   3   completed, but >=1 shard crash-quarantined under --isolate
//   130 interrupted (SIGINT/SIGTERM)
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "analysis/manifest.h"
#include "analysis/report_aggregation.h"
#include "analysis/report_writer.h"
#include "core/parallel_campaign.h"
#include "faults/profile.h"
#include "obs/export.h"
#include "obs/profiler.h"

using namespace vpna;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: full_campaign [output-dir] [--jobs N] "
               "[--faults off|flaky|hostile] [--speedtest] [--trace FILE] "
               "[--metrics FILE] [--trace-hops] [--status-file FILE] "
               "[--watchdog MULT] [--profile FILE] [--scale N] "
               "[--subscribers M] [--eager] [--cache-dir DIR] "
               "[--cache off|rw|ro] [--explain-cache] [--isolate] "
               "[--resume] [--max-shard-retries N]\n"
               "  --trace/--metrics/--trace-hops  trace every shard; combine "
               "freely with --isolate and --cache-dir\n"
               "  --max-shard-retries N  re-runs per failed shard, in-process "
               "and isolated (default 2 = 3 attempts)\n");
  return 2;
}

// Cooperative interrupt: the supervisor polls this flag between events,
// reaps its workers, and the driver flushes a partial manifest before
// exiting 130. sig_atomic_t store is the only thing the handler does.
volatile std::sig_atomic_t g_interrupt = 0;

void handle_interrupt(int) { g_interrupt = 1; }

void install_interrupt_handlers() {
  struct sigaction sa {};
  sa.sa_handler = handle_interrupt;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

// The hidden --vpna-worker mode: speak the worker protocol on stdio and
// run shards this process is told to. The worker parses the same command
// line as the supervisor that exec'd it and hands the options to the same
// shard-set builder fork-mode workers use, so both sides run identical
// shard tables — the index on the command pipe is the only coordination.
int run_worker_base(const core::CampaignOptions& opts, std::uint64_t seed) {
  return core::serve_campaign_worker(opts, {}, seed);
}

int run_worker_scaled(const ecosystem::ScaledCatalog& catalog,
                      const core::ScaledCampaignOptions& opts) {
  return core::serve_scaled_worker(catalog, opts);
}

void print_cache_summary(const core::CacheSummary& cache,
                         const store::CacheConfig& config) {
  std::printf("  cache (%s, %s): %zu hit, %zu miss, %zu corrupt, "
              "%zu bypassed; %zu stored; %.1f KiB read, %.1f KiB written\n",
              std::string(store::cache_mode_name(config.mode)).c_str(),
              config.dir.c_str(), cache.hits, cache.misses, cache.corrupt,
              cache.bypassed, cache.stored, cache.bytes_read / 1024.0,
              cache.bytes_written / 1024.0);
}

void explain_cache(const std::vector<core::ShardCacheRecord>& records) {
  for (const auto& r : records)
    std::printf("  cache %-8s %s  %s%s (%llu bytes)\n",
                std::string(core::cache_outcome_name(r.outcome)).c_str(),
                r.key_id.c_str(), r.provider.c_str(),
                r.stored ? "  [stored]" : "",
                static_cast<unsigned long long>(r.bytes));
}

// The --scale path: generate the synthetic catalog, run the scaled census
// campaign, write scale_census.csv + scale_manifest.json, and print the
// fingerprints a caller needs to compare runs.
int run_scaled(const std::filesystem::path& out_dir, std::size_t scale,
               std::uint32_t subscribers, std::size_t jobs, bool eager,
               const store::CacheConfig& cache, bool explain, bool isolate,
               int shard_attempts, bool worker_mode,
               const std::vector<std::string>& worker_argv) {
  core::ScaledCampaignOptions opts;
  opts.jobs = jobs;
  opts.eager = eager;
  opts.cache = cache;
  opts.isolate = isolate && !eager;
  opts.shard_attempts = shard_attempts;
  opts.worker_argv = worker_argv;
  opts.interrupt = &g_interrupt;

  if (worker_mode) {
    const auto catalog =
        ecosystem::generate_scaled_catalog(scale, subscribers, 20181031);
    return run_worker_scaled(catalog, opts);
  }
  std::printf(
      "generating scaled catalog: %zu providers, ~%u subscribers each...\n",
      scale, subscribers);
  const auto catalog =
      ecosystem::generate_scaled_catalog(scale, subscribers, 20181031);
  std::printf("  %zu vantage points, %llu modeled subscribers, "
              "catalog fingerprint %016llx\n",
              catalog.total_vantage_points(),
              static_cast<unsigned long long>(catalog.total_subscribers()),
              static_cast<unsigned long long>(catalog.fingerprint()));

  if (opts.isolate) install_interrupt_handlers();
  std::printf("running scaled census (jobs=%zu, %s materialization%s)...\n",
              jobs, eager ? "eager" : "deferred",
              opts.isolate ? ", isolated workers" : "");
  const auto report = core::run_scaled_campaign(catalog, opts);

  {
    std::ofstream csv(out_dir / "scale_census.csv");
    csv << report.payload;
  }
  {
    std::ofstream manifest(out_dir / "scale_manifest.json");
    manifest << analysis::render_scaled_manifest_json(report, opts);
  }
  std::uint64_t hosts = 0;
  for (const auto& s : report.shards) hosts += s.hosts;
  std::printf("\nscaled census complete in %.1fs (wall clock)\n",
              report.wall_s);
  std::printf("  shards: %zu   hosts: %llu   payload fingerprint: %016llx\n",
              report.shards.size(), static_cast<unsigned long long>(hosts),
              static_cast<unsigned long long>(report.payload_fingerprint));
  std::printf("  host arena: %.1f MiB reserved, %.1f MiB used   "
              "peak RSS: %.1f MiB\n",
              report.arena_reserved_bytes / (1024.0 * 1024.0),
              report.arena_used_bytes / (1024.0 * 1024.0),
              report.peak_rss_kb / 1024.0);
  if (cache.enabled())
    print_cache_summary(core::summarize_cache(report.cache_records), cache);
  if (explain) explain_cache(report.cache_records);
  std::printf("wrote %s and %s\n",
              (out_dir / "scale_census.csv").string().c_str(),
              (out_dir / "scale_manifest.json").string().c_str());
  if (report.interrupted) {
    std::fprintf(stderr, "interrupted: scaled census stopped early\n");
    return 130;
  }
  if (!report.crashed_providers.empty()) {
    std::fprintf(stderr,
                 "crash quarantine: %zu census shard(s) failed every "
                 "attempt (zeroed records merged)\n",
                 report.crashed_providers.size());
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path out_dir = ".";
  std::size_t jobs = 1;
  std::filesystem::path trace_path;
  std::filesystem::path metrics_path;
  bool trace_hops = false;
  bool speed_test = false;
  std::filesystem::path status_path;
  std::filesystem::path profile_path;
  double watchdog_multiple = 0.0;
  std::size_t scale = 0;
  std::uint32_t subscribers = 1000;
  bool eager = false;
  store::CacheConfig cache;
  bool cache_mode_set = false;
  bool explain = false;
  bool isolate = false;
  bool resume = false;
  bool worker_mode = false;
  int max_shard_retries = 2;
  faults::FaultProfile fault_profile = faults::FaultProfile::kOff;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc) return usage();
      jobs = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      if (i + 1 >= argc) return usage();
      scale = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
      if (scale == 0) return usage();
    } else if (std::strcmp(argv[i], "--subscribers") == 0) {
      if (i + 1 >= argc) return usage();
      subscribers =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--eager") == 0) {
      eager = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      if (i + 1 >= argc) return usage();
      const auto parsed = faults::parse_profile(argv[++i]);
      if (!parsed) return usage();
      fault_profile = *parsed;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) return usage();
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      if (i + 1 >= argc) return usage();
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-hops") == 0) {
      trace_hops = true;
    } else if (std::strcmp(argv[i], "--speedtest") == 0) {
      speed_test = true;
    } else if (std::strcmp(argv[i], "--status-file") == 0) {
      if (i + 1 >= argc) return usage();
      status_path = argv[++i];
    } else if (std::strcmp(argv[i], "--watchdog") == 0) {
      if (i + 1 >= argc) return usage();
      watchdog_multiple = std::strtod(argv[++i], nullptr);
      if (watchdog_multiple <= 0.0) return usage();
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      if (i + 1 >= argc) return usage();
      profile_path = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-dir") == 0) {
      if (i + 1 >= argc) return usage();
      cache.dir = argv[++i];
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      if (i + 1 >= argc) return usage();
      if (!store::parse_cache_mode(argv[++i], &cache.mode)) return usage();
      cache_mode_set = true;
    } else if (std::strcmp(argv[i], "--explain-cache") == 0) {
      explain = true;
    } else if (std::strcmp(argv[i], "--isolate") == 0) {
      isolate = true;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--max-shard-retries") == 0) {
      if (i + 1 >= argc) return usage();
      max_shard_retries = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (max_shard_retries < 0) return usage();
    } else if (std::strcmp(argv[i], "--vpna-worker") == 0) {
      worker_mode = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      out_dir = argv[i];
    }
  }
  if (!worker_mode) std::filesystem::create_directories(out_dir);
  // --cache-dir alone opens the store read-write; an explicit --cache mode
  // always wins (so `--cache-dir D --cache ro` is a read-only consult).
  if (!cache.dir.empty() && !cache_mode_set)
    cache.mode = store::CacheMode::kReadWrite;
  // --resume replays an --isolate journal; it only makes sense isolated.
  if (resume) isolate = true;
  // Exec-mode workers re-parse this exact command line (so supervisor and
  // worker derive identical shard tables); only the hidden flag is added.
  std::vector<std::string> worker_argv;
  if (isolate && !worker_mode) {
    for (int i = 0; i < argc; ++i) worker_argv.emplace_back(argv[i]);
    worker_argv.emplace_back("--vpna-worker");
  }

  if (scale > 0)
    return run_scaled(out_dir, scale, subscribers, jobs, eager, cache, explain,
                      isolate, max_shard_retries + 1, worker_mode, worker_argv);

  core::CampaignOptions opts;
  opts.runner.vantage_points_per_provider = 3;
  opts.runner.fault_profile = fault_profile;
  opts.runner.speed_test = speed_test;
  opts.jobs = jobs;
  opts.shard_attempts = max_shard_retries + 1;
  // Any observability output requires the shards to run traced.
  opts.trace.enabled =
      !trace_path.empty() || !metrics_path.empty() || trace_hops;
  opts.trace.packet_hops = trace_hops;
  // Health plane: wall-clock telemetry only, payloads unchanged.
  opts.status.file = status_path.string();
  opts.status.watchdog_multiple = watchdog_multiple;
  opts.cache = cache;
  // Process isolation: exec-mode workers, a durable journal next to the
  // artefacts, and cooperative interrupt handling.
  opts.isolate = isolate;
  opts.worker_argv = worker_argv;
  opts.resume = resume;
  if (isolate) {
    opts.journal_path = (out_dir / "campaign.journal").string();
    opts.interrupt = &g_interrupt;
  }

  // Hidden worker mode: options are fully assembled, so the shard table
  // this process derives matches the supervisor's byte for byte.
  if (worker_mode) return run_worker_base(opts, 20181031);

  if (resume && !cache.enabled())
    std::fprintf(stderr,
                 "note: --resume without --cache-dir has no artifacts to "
                 "replay; journaled shards recompute\n");
  if (!profile_path.empty()) obs::Profiler::enable();
  if (isolate) install_interrupt_handlers();

  std::printf("running the full 62-provider campaign (jobs=%zu, faults=%s%s%s)...\n",
              jobs, std::string(faults::profile_name(fault_profile)).c_str(),
              isolate ? ", isolated workers" : "",
              resume ? ", resuming" : "");
  core::ParallelCampaign campaign(opts);
  const auto result = campaign.run();
  const auto& reports = result.providers;

  // Interrupted (SIGINT/SIGTERM under --isolate): the supervisor already
  // reaped its workers and flushed the final status JSON; flush a partial
  // run_manifest.json so the interruption is on the record, then exit 130.
  // The payload is incomplete, so none of the payload artefacts is written
  // — a later --resume run regenerates everything from the journal.
  if (result.interrupted) {
    const auto payload = analysis::serialize_campaign_payload(result);
    {
      std::ofstream manifest(out_dir / "run_manifest.json");
      manifest << analysis::render_manifest_json(
          analysis::build_run_manifest(opts, result, payload));
    }
    std::fprintf(stderr,
                 "interrupted: campaign stopped early; wrote partial %s "
                 "(re-run with --resume to finish)\n",
                 (out_dir / "run_manifest.json").string().c_str());
    return 130;
  }

  // Artefacts. The serialize scope closes before the profile report is
  // taken, so the phase shows up in the profile file.
  std::optional<obs::ProfileScope> serialize_profile(std::in_place,
                                                     "campaign.serialize");
  {
    std::ofstream csv(out_dir / "campaign.csv");
    csv << analysis::render_campaign_csv(reports);
  }
  {
    std::ofstream guide(out_dir / "scorecard.md");
    guide << analysis::render_scorecard(reports);
    for (const auto& report : reports)
      guide << "\n" << analysis::render_provider_markdown(report);
    // Traced runs get the deterministic metrics appendix (the appendix is
    // canonical, so scorecard.md stays byte-identical at any --jobs).
    guide << analysis::render_instrumentation_appendix(result);
    // Fault-profile runs additionally record structured degradation
    // (empty string — no bytes — when nothing degraded).
    guide << analysis::render_degradation_appendix(result);
  }
  if (speed_test) {
    std::ofstream csv(out_dir / "speedtest.csv");
    csv << analysis::render_speedtest_csv(reports);
  }
  if (!trace_path.empty()) {
    std::ofstream trace(trace_path);
    trace << obs::chrome_trace_json(result.traces);
  }
  if (!metrics_path.empty()) {
    std::ofstream metrics(metrics_path);
    metrics << analysis::campaign_metrics(result).render_text(
        /*include_volatile=*/true);
  }
  {
    // The manifest fingerprints the canonical payload bytes — the same
    // serialization the determinism suite compares.
    const auto payload = analysis::serialize_campaign_payload(result);
    std::ofstream manifest(out_dir / "run_manifest.json");
    manifest << analysis::render_manifest_json(
        analysis::build_run_manifest(opts, result, payload));
  }
  serialize_profile.reset();
  if (!profile_path.empty()) {
    std::ofstream profile(profile_path);
    profile << obs::render_profile_text(obs::Profiler::instance().report());
  }

  // Console summary.
  const auto leakage = analysis::aggregate_leakage(reports);
  const auto manipulation = analysis::aggregate_manipulation(reports);
  const auto engine = analysis::summarize_campaign(result);
  int grade_counts[5] = {};
  for (const auto& report : reports)
    ++grade_counts[static_cast<int>(analysis::grade_provider(report))];

  std::printf("\ncampaign complete in %.1fs (wall clock)\n", result.wall_s);
  std::printf("  engine: %zu workers, %llu shard runs, %llu steals, "
              "%llu retries, %.0f%% efficiency\n",
              engine.jobs, static_cast<unsigned long long>(engine.tasks_run),
              static_cast<unsigned long long>(engine.steals),
              static_cast<unsigned long long>(engine.retries),
              100.0 * engine.parallel_efficiency());
  if (engine.failed_shards > 0)
    std::printf("  FAILED SHARDS: %zu\n", engine.failed_shards);
  if (result.execution_isolated)
    std::printf("  isolation: %zu worker spawn(s), %zu crash(es), "
                "%zu kill(s), %zu timeout(s); %zu shard(s) resumed "
                "from journal\n",
                result.process_spawns, result.process_crashes,
                result.process_kills, result.process_timeouts,
                result.resumed_shards);
  if (cache.enabled())
    print_cache_summary(core::summarize_cache(result.cache_records), cache);
  if (explain) explain_cache(result.cache_records);
  // Degradation summary goes to stderr: a degraded-but-complete run still
  // exits 0, and scripts watching stderr see what gave up and why.
  if (engine.degraded_providers > 0) {
    std::fprintf(stderr,
                 "degraded run: %zu provider(s) degraded "
                 "(%zu quarantined shard(s), %zu degraded vantage point(s)) "
                 "under --faults %s\n",
                 engine.degraded_providers, engine.quarantined_shards,
                 engine.degraded_vantage_points,
                 std::string(faults::profile_name(fault_profile)).c_str());
    for (const auto& name : result.degraded_providers)
      std::fprintf(stderr, "  degraded: %s\n", name.c_str());
  }
  // Crash quarantine is an engine-health event (worker death, not a shard
  // outcome): report it on stderr and fail the run with exit code 3 even
  // though the rest of the campaign merged cleanly.
  if (!result.crash_quarantined_providers.empty()) {
    std::fprintf(stderr,
                 "crash quarantine: %zu provider shard(s) exhausted their "
                 "%d attempt%s on crashed workers:\n",
                 result.crash_quarantined_providers.size(), opts.shard_attempts,
                 opts.shard_attempts == 1 ? "" : "s");
    for (const auto& name : result.crash_quarantined_providers)
      std::fprintf(stderr, "  crash-quarantined: %s\n", name.c_str());
  }
  std::printf("  tunnel-failure leakers: %zu of %d\n",
              leakage.tunnel_failure_leakers.size(),
              leakage.tunnel_failure_applicable);
  std::printf("  DNS leakers: %zu   IPv6 leakers: %zu\n",
              leakage.dns_leakers.size(), leakage.ipv6_leakers.size());
  std::printf("  transparent proxies: %zu   injectors: %zu\n",
              manipulation.transparent_proxies.size(),
              manipulation.content_injectors.size());
  std::printf("  grades: A=%d B=%d C=%d D=%d F=%d\n", grade_counts[0],
              grade_counts[1], grade_counts[2], grade_counts[3],
              grade_counts[4]);
  std::printf("wrote %s and %s\n",
              (out_dir / "scorecard.md").string().c_str(),
              (out_dir / "campaign.csv").string().c_str());
  if (speed_test)
    std::printf("wrote %s\n", (out_dir / "speedtest.csv").string().c_str());
  if (!trace_path.empty())
    std::printf("wrote %s (open in https://ui.perfetto.dev)\n",
                trace_path.string().c_str());
  if (!metrics_path.empty())
    std::printf("wrote %s\n", metrics_path.string().c_str());
  std::printf("wrote %s\n", (out_dir / "run_manifest.json").string().c_str());
  if (!profile_path.empty())
    std::printf("wrote %s (wall-clock profile)\n",
                profile_path.string().c_str());
  if (!result.watchdog_alerts.empty()) {
    std::fprintf(stderr, "watchdog: %zu shard(s) ran past the median:\n",
                 result.watchdog_alerts.size());
    for (const auto& alert : result.watchdog_alerts)
      std::fprintf(stderr, "  %s: %.1fs elapsed vs %.1fs median (%.1fx)\n",
                   alert.shard.c_str(), alert.elapsed_s, alert.median_s,
                   alert.ratio());
  }
  // Exit-code contract: only hard shard failures (payload incomplete with
  // no structured outcome) fail the invocation; degraded-but-complete
  // fault-profile runs exit 0.
  return analysis::campaign_exit_code(engine);
}
