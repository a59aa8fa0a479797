// One shard executor for every campaign kind.
//
// A campaign is a set of pure, independent shards merged in canonical
// order. Whatever the shard computes (a provider report, a census record),
// running the set takes the same seven steps: derive each shard's cache
// key, replay journaled shards, consult the artifact store, publish status
// heartbeats, give exhausted shards a placeholder, file a recomputed
// artifact before journaling it, and keep every result in its canonical
// slot. ShardExecutor implements each step once, over three backends:
//
//   in-caller  jobs == 1: the shards run one after another on the calling
//              thread — no pool, no threads, the determinism baseline;
//   pool       jobs > 1: shards run on a util::TaskPool;
//   process    isolate: shards run in ShardSupervisor worker processes
//              (fork mode, or exec mode via worker_argv), results stream
//              back as encoded frames.
//
// One retry policy serves all three: every shard gets `shard_attempts`
// attempts, each with the `shard_timeout_s` wall budget. The process
// backend enforces the budget for real (SIGTERM, grace, SIGKILL); a thread
// cannot be preempted, so in-process backends check it when the attempt
// returns and discard an over-budget result.
//
// The campaign-specific half lives in a ShardSet. Results stay with the
// caller: `run(i)` computes shard i into the caller's slot i, the codec
// moves slot i to and from bytes, and `placeholder(i, fate)` fills slot i
// for a shard that produced no result. Whatever the slot holds (a traced
// shard's trace included) must be in its bytes, because the process
// backend and the store only ever see those. In-process runs with the
// cache off never touch the codec.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/status.h"
#include "store/artifact_store.h"
#include "util/task_pool.h"

namespace vpna::core {

// Per-shard cache provenance, recorded in canonical order alongside the
// results. Telemetry, not payload: outcomes depend on what the store held
// before the run.
struct ShardCacheRecord {
  enum class Outcome : std::uint8_t {
    kBypass,   // shard ended without a result (failed, quarantined,
               // crashed or skipped): nothing replayed or stored
    kHit,      // artifact fetched, decoded, and replayed — world never built
    kMiss,     // no artifact under this key; shard recomputed
    kCorrupt,  // artifact present but failed integrity/decode; recomputed
  };
  std::string provider;
  std::string key_id;   // content address (hex); empty when cache disabled
  Outcome outcome = Outcome::kBypass;
  bool stored = false;  // recomputed result written back to the store
  std::uint64_t bytes = 0;  // artifact payload bytes read (hit) or written
};

[[nodiscard]] std::string_view cache_outcome_name(
    ShardCacheRecord::Outcome outcome) noexcept;

// Aggregate view over a run's cache records (manifest + CLI summaries).
struct CacheSummary {
  std::size_t shards = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t corrupt = 0;
  std::size_t bypassed = 0;
  std::size_t stored = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

[[nodiscard]] CacheSummary summarize_cache(
    const std::vector<ShardCacheRecord>& records) noexcept;

// How a shard ended. Adapters map fates onto their reports.
enum class ShardFate : std::uint8_t {
  kPending,      // not settled (only seen while the run is in flight)
  kDone,         // computed, or replayed from the store
  kFailed,       // threw or overran every attempt; hard-failure policy
  kQuarantined,  // threw or overran every attempt; graceful policy
  kCrashed,      // its worker process died every attempt, or sent a
                 // result that does not decode
  kSkipped,      // interrupted before it finished (process backend)
};

// The campaign-specific half of a run (see the header comment).
struct ShardSet {
  std::vector<std::string> names;  // canonical order; index = shard id
  // Computes shard i into the caller's slot i; throws on failure. Called
  // from pool workers concurrently (distinct i), and in worker processes.
  std::function<void(std::size_t)> run;
  // Codec: slot i → canonical bytes, and bytes → slot i (false when the
  // bytes do not decode to shard i).
  std::function<std::string(std::size_t)> encode;
  std::function<bool(std::size_t, std::string_view)> decode;
  // Fills slot i for a shard settled with a fate other than kDone.
  std::function<void(std::size_t, ShardFate)> placeholder;
  // Content address of shard i; empty = the shards are not cacheable.
  std::function<store::ShardKey(std::size_t)> key;
  // Exhausted shards degrade into kQuarantined instead of kFailed.
  bool graceful = false;
  // Binds a journal to this computation (resume refuses a journal written
  // under any other fingerprint); `seed` is recorded in its header.
  std::uint64_t fingerprint = 0;
  std::uint64_t seed = 0;
};

// How a campaign executes, whatever its shards compute: declared once here
// and inherited by CampaignOptions and ScaledCampaignOptions. Execution
// settings never reach a shard's result.
struct ExecutionOptions {
  std::size_t jobs = 1;  // 0 = hardware concurrency, 1 = in-caller
  bool isolate = false;  // process backend
  // The one retry policy: attempts per shard (>= 1) and the per-attempt
  // wall budget (0 = none).
  int shard_attempts = 3;
  double shard_timeout_s = 0.0;
  // Process backend: SIGTERM→SIGKILL grace, and the exec-mode worker
  // command line (a process that serves the worker protocol on its stdio,
  // e.g. `full_campaign ... --vpna-worker`; empty = fork mode).
  double term_grace_s = 2.0;
  std::vector<std::string> worker_argv;
  // Health plane: status file and watchdog (wall-clock telemetry only).
  obs::StatusOptions status;
  // Content-addressed shard cache; off by default.
  store::CacheConfig cache;
  // Durable journal (empty = none); `resume` replays its done shards from
  // the store and throws on a journal from another computation.
  std::string journal_path;
  bool resume = false;
  // Process backend: cooperative SIGINT/SIGTERM flag; when non-zero the
  // supervisor stops dispatching, reaps its workers, and the shards it did
  // not finish settle as kSkipped.
  const volatile std::sig_atomic_t* interrupt = nullptr;
};

struct ShardSlot {
  ShardFate fate = ShardFate::kPending;
  int attempts = 0;   // attempts spent (0 for store replays)
  std::string error;  // last failure description
};

// How a run went, as the executor observed it: wall-clock telemetry and
// store provenance, never payload. CampaignReport and ScaledCampaignReport
// carry it as their base, so every report and manifest reads one record.
struct ExecutionRecord {
  std::size_t jobs = 1;  // resolved worker count
  // In-process scheduling telemetry: attempts, retries and timeouts per
  // worker (one row in-caller; empty for the process backend).
  std::vector<util::WorkerCounters> workers;
  // Every watchdog alert raised (empty unless status armed the watchdog).
  std::vector<obs::WatchdogAlert> watchdog_alerts;
  // Per-shard cache provenance in canonical order; empty when cache off.
  std::vector<ShardCacheRecord> cache_records;
  bool execution_isolated = false;  // ran on the process backend
  bool interrupted = false;         // a shard settled kSkipped
  std::size_t resumed_shards = 0;   // replayed from the journal + store
  // Process backend telemetry.
  std::size_t process_spawns = 0;
  std::size_t process_crashes = 0;  // deaths with a shard in flight
  std::size_t process_kills = 0;    // timeout/watchdog escalations
  std::size_t process_timeouts = 0;
  std::vector<obs::ProcessStatus> processes;  // final per-slot snapshot
};

struct ExecutorResult : ExecutionRecord {
  std::vector<ShardSlot> slots;  // aligned with names
};

class ShardExecutor {
 public:
  explicit ShardExecutor(ExecutionOptions options);

  // Runs every shard of `shards` and returns one settled slot per shard.
  // Throws std::runtime_error when `resume` meets a journal written for a
  // different fingerprint.
  [[nodiscard]] ExecutorResult run(const ShardSet& shards) const;

 private:
  ExecutionOptions options_;
};

// The worker-process body for `shards`: serves run commands on stdin and
// answers with `encode(run(i))` frames on stdout — exactly what the process
// backend's fork-mode children run. Exec-mode workers call this.
int serve_shard_worker(const ShardSet& shards);

}  // namespace vpna::core
