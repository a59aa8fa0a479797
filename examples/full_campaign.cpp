// Full campaign driver: deploy the 62-provider testbed, run the complete
// test suite, and write the artefacts the paper published — a ranked
// selection-guide scorecard, per-provider Markdown reports, and a raw CSV.
//
//   ./full_campaign [output-dir] [--jobs N] [--faults PROFILE]
//                   [--speedtest] [--trace FILE] [--metrics FILE]
//                   [--trace-hops] [--status-file FILE] [--watchdog MULT]
//                   [--profile FILE] [--scale N] [--subscribers M] [--eager]
//                   [--cache-dir DIR] [--cache off|rw|ro] [--explain-cache]
//                   [--isolate] [--max-shard-retries N]
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
// Every provider run also writes run_manifest.json to the output dir: the
// deterministic cache key of the computation (catalog fingerprint, shard
// seeds, fault/capacity profile, payload fingerprint) plus execution,
// cache, build and telemetry provenance.
//
// --scale N switches to the Internet-scale census path: a synthetic
// catalog of N providers is generated from the 62 evaluated providers'
// empirical distributions (seeded; deterministic), each provider gets its
// own lazily-materialized shard world, and the run writes scale_census.csv
// and scale_manifest.json — byte-identical at any --jobs. --subscribers
// sets the modeled mean subscriber count per provider (default 1000;
// subscribers are counts, only a capped handful of eyeball clients
// materialize per shard). --eager pre-materializes every shard world in
// this process first — the peak-RSS A/B baseline for the deferred default,
// serial and in-process by definition. Both paths run on one shard
// executor, so the execution flags (--jobs, --isolate,
// --max-shard-retries, --status-file, --watchdog, --profile, --cache-dir,
// --cache, --explain-cache) mean the same thing with --scale. The flags
// that shape only the provider payload (--faults, --speedtest, --trace,
// --metrics, --trace-hops) are refused with --scale, and --eager is
// refused with --isolate; both exit 2.
//
// --cache-dir DIR points the content-addressed artifact store at DIR and
// (unless --cache overrides it) opens it read-write: each shard consults
// the store before building its world, replays a cached result on a hit,
// and files the encoded result back on a miss. Payloads are byte-
// identical with the cache off, cold, or warm — a warm re-run just skips
// the work. --cache ro consults without ever writing (shared store dirs);
// --cache off ignores the store. --explain-cache prints one line per shard
// with its content address and what the store did (hit/miss/corrupt/
// bypass, for a shard that ended without a result). Corrupt artifacts
// (truncation, bit flips, foreign writers) are detected by checksum,
// recomputed, and — in rw mode — repaired in place; they are never merged.
// The manifest carries the same provenance in its "cache" section.
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
// shard's trace back with its report. SIGINT/SIGTERM are handled
// cooperatively under --isolate: workers are reaped, the final status JSON
// and a partial manifest are flushed, exit code 130.
//
// Crash recovery is a re-run with the same --cache-dir. Every finished
// shard's artifact is filed before the shard counts as done, so after an
// interrupt, a crash or a SIGKILL of this process itself, the same command
// replays the finished shards from the store and recomputes only the rest;
// the final payload is byte-identical to an uninterrupted run, on every
// backend, for the census as for the provider campaign.
//
// --max-shard-retries N bounds the re-runs any shard gets after its first
// attempt (default 2, i.e. 3 attempts), in-process and --isolate alike: a
// shard that throws, overruns, or crashes its worker is re-run from
// scratch, and only then quarantined (fault profile, crashed worker,
// scaled census) or failed.
//
// Numeric values are parsed strictly: "4x", "abc" or an empty value is a
// usage error, never a prefix or a zero.
//
// Exit-code taxonomy:
//   0   completed; payload trustworthy (incl. graceful fault degradation)
//   1   hard shard failure (no fault profile; shard exhausted attempts)
//   2   usage error (nothing ran)
//   3   completed, but >=1 shard crash-quarantined under --isolate
//   130 interrupted (SIGINT/SIGTERM)
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string_view>

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
               "[--max-shard-retries N]\n"
               "  --trace/--metrics/--trace-hops  trace every shard; combine "
               "freely with --isolate and --cache-dir\n"
               "  --max-shard-retries N  re-runs per failed shard, in-process "
               "and isolated (default 2 = 3 attempts)\n"
               "  --scale N  census of N synthetic providers; takes every "
               "execution flag, refuses --faults, --speedtest, --trace, "
               "--metrics and --trace-hops\n"
               "  --eager    census baseline: serial and in-process, refuses "
               "--isolate\n"
               "  to resume an interrupted run, re-run it with the same "
               "--cache-dir\n");
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

// The parsed command line. `exec` is the one execution config both
// campaign paths run under.
struct Cli {
  std::filesystem::path out_dir = ".";
  core::ExecutionOptions exec;
  bool cache_mode_set = false;
  bool explain = false;
  bool worker_mode = false;
  std::filesystem::path profile_path;
  // Census (--scale) shape.
  std::size_t scale = 0;
  std::uint32_t subscribers = 1000;
  bool eager = false;
  // Provider-payload shape; refused with --scale.
  faults::FaultProfile fault_profile = faults::FaultProfile::kOff;
  bool speed_test = false;
  std::filesystem::path trace_path;
  std::filesystem::path metrics_path;
  bool trace_hops = false;
  const char* provider_only_flag = nullptr;  // the first one given
};

// Whole-string decimal parse: no sign prefix, whitespace or trailing bytes.
template <typename T>
bool parse_number(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end && ptr != text;
}

struct Flag {
  std::string_view name;
  bool takes_value;
  bool provider_only;  // shapes only the provider payload
  bool (*apply)(Cli&, const char* value);  // false = malformed value
};

const Flag kFlags[] = {
    {"--jobs", true, false,
     [](Cli& c, const char* v) { return parse_number(v, &c.exec.jobs); }},
    {"--max-shard-retries", true, false,
     [](Cli& c, const char* v) {
       int retries = 0;
       if (!parse_number(v, &retries) || retries < 0 ||
           retries == std::numeric_limits<int>::max())
         return false;
       c.exec.shard_attempts = retries + 1;
       return true;
     }},
    {"--isolate", false, false,
     [](Cli& c, const char*) { return c.exec.isolate = true; }},
    {"--status-file", true, false,
     [](Cli& c, const char* v) {
       c.exec.status.file = v;
       return true;
     }},
    {"--watchdog", true, false,
     [](Cli& c, const char* v) {
       return parse_number(v, &c.exec.status.watchdog_multiple) &&
              c.exec.status.watchdog_multiple > 0.0;
     }},
    {"--profile", true, false,
     [](Cli& c, const char* v) {
       c.profile_path = v;
       return true;
     }},
    {"--cache-dir", true, false,
     [](Cli& c, const char* v) {
       c.exec.cache.dir = v;
       return true;
     }},
    {"--cache", true, false,
     [](Cli& c, const char* v) {
       c.cache_mode_set = true;
       return store::parse_cache_mode(v, &c.exec.cache.mode);
     }},
    {"--explain-cache", false, false,
     [](Cli& c, const char*) { return c.explain = true; }},
    {"--scale", true, false,
     [](Cli& c, const char* v) { return parse_number(v, &c.scale) && c.scale > 0; }},
    {"--subscribers", true, false,
     [](Cli& c, const char* v) { return parse_number(v, &c.subscribers); }},
    {"--eager", false, false,
     [](Cli& c, const char*) { return c.eager = true; }},
    {"--faults", true, true,
     [](Cli& c, const char* v) {
       const auto parsed = faults::parse_profile(v);
       if (parsed) c.fault_profile = *parsed;
       return parsed.has_value();
     }},
    {"--speedtest", false, true,
     [](Cli& c, const char*) { return c.speed_test = true; }},
    {"--trace", true, true,
     [](Cli& c, const char* v) {
       c.trace_path = v;
       return true;
     }},
    {"--metrics", true, true,
     [](Cli& c, const char* v) {
       c.metrics_path = v;
       return true;
     }},
    {"--trace-hops", false, true,
     [](Cli& c, const char*) { return c.trace_hops = true; }},
    {"--vpna-worker", false, false,
     [](Cli& c, const char*) { return c.worker_mode = true; }},
};

// Parses argv into a Cli and derives the execution config; nullopt is a
// usage error (unknown flag, missing or malformed value, or a refused
// combination).
std::optional<Cli> parse_cli(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') {
      cli.out_dir = argv[i];
      continue;
    }
    const Flag* flag = nullptr;
    for (const auto& f : kFlags)
      if (f.name == argv[i]) flag = &f;
    if (flag == nullptr) return std::nullopt;
    const char* value = nullptr;
    if (flag->takes_value) {
      if (i + 1 >= argc) return std::nullopt;
      value = argv[++i];
    }
    if (!flag->apply(cli, value)) return std::nullopt;
    if (flag->provider_only && cli.provider_only_flag == nullptr)
      cli.provider_only_flag = flag->name.data();
  }
  if (cli.scale > 0 && cli.provider_only_flag != nullptr) {
    std::fprintf(stderr,
                 "%s shapes only the provider campaign's payload; the "
                 "--scale census does not take it\n",
                 cli.provider_only_flag);
    return std::nullopt;
  }
  if (cli.eager && cli.exec.isolate) {
    std::fprintf(stderr,
                 "--eager is the serial in-process baseline; it does not "
                 "combine with --isolate\n");
    return std::nullopt;
  }

  core::ExecutionOptions& exec = cli.exec;
  // --cache-dir alone opens the store read-write; an explicit --cache mode
  // always wins (so `--cache-dir D --cache ro` is a read-only consult).
  if (!exec.cache.dir.empty() && !cli.cache_mode_set)
    exec.cache.mode = store::CacheMode::kReadWrite;
  // Process isolation: exec-mode workers and cooperative interrupt
  // handling. Exec-mode workers re-parse this exact command line (so
  // supervisor and worker derive identical shard tables); only the hidden
  // flag is added.
  if (exec.isolate) {
    if (!cli.worker_mode) {
      exec.worker_argv.assign(argv, argv + argc);
      exec.worker_argv.emplace_back("--vpna-worker");
    }
    exec.interrupt = &g_interrupt;
  }
  return cli;
}

// Set-up shared by both campaign paths (never in worker mode).
void prepare(const Cli& cli) {
  if (!cli.profile_path.empty()) obs::Profiler::enable();
  if (cli.exec.isolate) install_interrupt_handlers();
}

// How to finish an interrupted run: the finished shards' artifacts are in
// the store, so the same command replays them and computes the rest.
constexpr const char* kResumeHint =
    "re-run the same command with the same --cache-dir to finish";

void write_profile(const Cli& cli) {
  if (cli.profile_path.empty()) return;
  std::ofstream(cli.profile_path)
      << obs::render_profile_text(obs::Profiler::instance().report());
  std::printf("wrote %s (wall-clock profile)\n",
              cli.profile_path.string().c_str());
}

// Console lines both paths print from the executor's record: isolation
// and cache summaries, the per-shard cache explanation, watchdog alerts.
void print_execution(const Cli& cli, const core::ExecutionRecord& run) {
  if (run.execution_isolated)
    std::printf("  isolation: %zu worker spawn(s), %zu crash(es), "
                "%zu kill(s), %zu timeout(s)\n",
                run.process_spawns, run.process_crashes, run.process_kills,
                run.process_timeouts);
  const store::CacheConfig& config = cli.exec.cache;
  if (config.enabled()) {
    const auto cache = core::summarize_cache(run.cache_records);
    std::printf("  cache (%s, %s): %zu hit, %zu miss, %zu corrupt, "
                "%zu bypassed; %zu stored; %.1f KiB read, %.1f KiB written\n",
                std::string(store::cache_mode_name(config.mode)).c_str(),
                config.dir.c_str(), cache.hits, cache.misses, cache.corrupt,
                cache.bypassed, cache.stored, cache.bytes_read / 1024.0,
                cache.bytes_written / 1024.0);
  }
  if (cli.explain)
    for (const auto& r : run.cache_records)
      std::printf("  cache %-8s %s  %s%s (%llu bytes)\n",
                  std::string(core::cache_outcome_name(r.outcome)).c_str(),
                  r.key_id.c_str(), r.provider.c_str(),
                  r.stored ? "  [stored]" : "",
                  static_cast<unsigned long long>(r.bytes));
  if (!run.watchdog_alerts.empty()) {
    std::fprintf(stderr, "watchdog: %zu shard(s) ran past the median:\n",
                 run.watchdog_alerts.size());
    for (const auto& alert : run.watchdog_alerts)
      std::fprintf(stderr, "  %s: %.1fs elapsed vs %.1fs median (%.1fx)\n",
                   alert.shard.c_str(), alert.elapsed_s, alert.median_s,
                   alert.ratio());
  }
}

// The --scale path: generate the synthetic catalog, run the scaled census
// campaign, write scale_census.csv + scale_manifest.json, and print the
// fingerprints a caller needs to compare runs.
int run_census(const Cli& cli) {
  core::ScaledCampaignOptions opts;
  static_cast<core::ExecutionOptions&>(opts) = cli.exec;
  opts.eager = cli.eager;
  if (!cli.worker_mode)
    std::printf(
        "generating scaled catalog: %zu providers, ~%u subscribers each...\n",
        cli.scale, cli.subscribers);
  const auto catalog =
      ecosystem::generate_scaled_catalog(cli.scale, cli.subscribers, opts.seed);
  if (cli.worker_mode) return core::serve_scaled_worker(catalog, opts);
  std::printf("  %zu vantage points, %llu modeled subscribers, "
              "catalog fingerprint %016llx\n",
              catalog.total_vantage_points(),
              static_cast<unsigned long long>(catalog.total_subscribers()),
              static_cast<unsigned long long>(catalog.fingerprint()));

  prepare(cli);
  std::printf("running scaled census (jobs=%zu, %s materialization%s)...\n",
              opts.jobs, opts.eager ? "eager" : "deferred",
              opts.isolate ? ", isolated workers" : "");
  const auto report = core::run_scaled_campaign(catalog, opts);
  {
    std::ofstream csv(cli.out_dir / "scale_census.csv");
    csv << report.payload;
  }
  {
    std::ofstream manifest(cli.out_dir / "scale_manifest.json");
    manifest << analysis::render_scaled_manifest_json(report, opts);
  }
  write_profile(cli);

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
  print_execution(cli, report);
  std::printf("wrote %s and %s\n",
              (cli.out_dir / "scale_census.csv").string().c_str(),
              (cli.out_dir / "scale_manifest.json").string().c_str());
  if (report.interrupted) {
    std::fprintf(stderr, "interrupted: scaled census stopped early (%s)\n",
                 kResumeHint);
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

// The paper's 62-provider campaign.
int run_provider_campaign(const Cli& cli) {
  core::CampaignOptions opts;
  static_cast<core::ExecutionOptions&>(opts) = cli.exec;
  opts.runner.vantage_points_per_provider = 3;
  opts.runner.fault_profile = cli.fault_profile;
  opts.runner.speed_test = cli.speed_test;
  // Any observability output requires the shards to run traced.
  opts.trace.enabled =
      !cli.trace_path.empty() || !cli.metrics_path.empty() || cli.trace_hops;
  opts.trace.packet_hops = cli.trace_hops;

  // Hidden worker mode: options are fully assembled, so the shard table
  // this process derives matches the supervisor's byte for byte.
  if (cli.worker_mode) return core::serve_campaign_worker(opts, {}, 20181031);

  prepare(cli);
  const std::string profile_name(faults::profile_name(cli.fault_profile));
  std::printf("running the full 62-provider campaign (jobs=%zu, faults=%s%s)...\n",
              opts.jobs, profile_name.c_str(),
              opts.isolate ? ", isolated workers" : "");
  core::ParallelCampaign campaign(opts);
  const auto result = campaign.run();
  const auto& reports = result.providers;
  const std::filesystem::path manifest_path = cli.out_dir / "run_manifest.json";

  // Interrupted (SIGINT/SIGTERM under --isolate): the supervisor already
  // reaped its workers and flushed the final status JSON; flush a partial
  // run_manifest.json so the interruption is on the record, then exit 130.
  // The payload is incomplete, so none of the payload artefacts is written
  // — re-running the same command over the same --cache-dir finishes it.
  if (result.interrupted) {
    const auto payload = analysis::serialize_campaign_payload(result);
    {
      std::ofstream manifest(manifest_path);
      manifest << analysis::render_manifest_json(
          analysis::build_run_manifest(opts, result, payload));
    }
    std::fprintf(stderr,
                 "interrupted: campaign stopped early; wrote partial %s (%s)\n",
                 manifest_path.string().c_str(), kResumeHint);
    return 130;
  }

  // Artefacts. The serialize scope closes before the profile report is
  // taken, so the phase shows up in the profile file.
  std::optional<obs::ProfileScope> serialize_profile(std::in_place,
                                                     "campaign.serialize");
  {
    std::ofstream csv(cli.out_dir / "campaign.csv");
    csv << analysis::render_campaign_csv(reports);
  }
  {
    std::ofstream guide(cli.out_dir / "scorecard.md");
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
  if (cli.speed_test) {
    std::ofstream csv(cli.out_dir / "speedtest.csv");
    csv << analysis::render_speedtest_csv(reports);
  }
  if (!cli.trace_path.empty()) {
    std::ofstream trace(cli.trace_path);
    trace << obs::chrome_trace_json(result.traces);
  }
  if (!cli.metrics_path.empty()) {
    std::ofstream metrics(cli.metrics_path);
    metrics << analysis::campaign_metrics(result).render_text(
        /*include_volatile=*/true);
  }
  {
    // The manifest fingerprints the canonical payload bytes — the same
    // serialization the determinism suite compares.
    const auto payload = analysis::serialize_campaign_payload(result);
    std::ofstream manifest(manifest_path);
    manifest << analysis::render_manifest_json(
        analysis::build_run_manifest(opts, result, payload));
  }
  serialize_profile.reset();
  write_profile(cli);

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
  // Degradation summary goes to stderr: a degraded-but-complete run still
  // exits 0, and scripts watching stderr see what gave up and why.
  if (engine.degraded_providers > 0) {
    std::fprintf(stderr,
                 "degraded run: %zu provider(s) degraded "
                 "(%zu quarantined shard(s), %zu degraded vantage point(s)) "
                 "under --faults %s\n",
                 engine.degraded_providers, engine.quarantined_shards,
                 engine.degraded_vantage_points, profile_name.c_str());
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
              (cli.out_dir / "scorecard.md").string().c_str(),
              (cli.out_dir / "campaign.csv").string().c_str());
  if (cli.speed_test)
    std::printf("wrote %s\n", (cli.out_dir / "speedtest.csv").string().c_str());
  if (!cli.trace_path.empty())
    std::printf("wrote %s (open in https://ui.perfetto.dev)\n",
                cli.trace_path.string().c_str());
  if (!cli.metrics_path.empty())
    std::printf("wrote %s\n", cli.metrics_path.string().c_str());
  std::printf("wrote %s\n", manifest_path.string().c_str());
  print_execution(cli, result);
  // Exit-code contract: only hard shard failures (payload incomplete with
  // no structured outcome) fail the invocation; degraded-but-complete
  // fault-profile runs exit 0.
  return analysis::campaign_exit_code(engine);
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = parse_cli(argc, argv);
  if (!cli) return usage();
  if (!cli->worker_mode) std::filesystem::create_directories(cli->out_dir);
  return cli->scale > 0 ? run_census(*cli) : run_provider_campaign(*cli);
}
