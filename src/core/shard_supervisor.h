// Shard-process supervisor: the crash/hang containment engine behind
// `--isolate`.
//
// The supervisor runs `jobs` persistent worker processes, each executing
// one shard at a time in its own heap. Work is fed over the command pipe
// (core/worker_protocol.h) and results stream back as checksummed frames,
// so the supervisor's address space is never exposed to anything a shard
// does: a worker that segfaults, is OOM-killed, exits non-zero, corrupts
// its result stream, or hangs is *contained* —
//
//   death/garbage  → the in-flight shard is retried on a fresh process
//                    after a fixed exponential backoff (50 ms doubling to
//                    2 s), up to its attempt budget, then reported as
//                    crashed (the campaign quarantines it and completes);
//   hang           → the hard per-shard timeout escalates SIGTERM → grace
//                    → SIGKILL, then the retry path above; a shard the
//                    status board's median-multiple watchdog alerts on
//                    escalates the same way on the next pass;
//   exception      → the worker catches it and reports an error frame (the
//                    process survives and takes more work); exhausted
//                    error retries surface like in-process exhaustion.
//
// The supervisor itself is single-threaded — one poll(2) loop over worker
// pipes — which keeps fork() safe in library (fork-without-exec) mode and
// makes every state transition deterministic given the same sequence of
// worker events. Completed shards invoke `on_terminal` immediately, which
// is where the campaign files the artifact: a supervisor killed at any
// instant leaves a store holding exactly the shards whose results are
// durable, and a re-run over that store replays them.
//
// Deterministic supervisor-crash injection (re-run tests, CI):
//   VPNA_CRASH_SUPERVISOR=<n>[:kill|segv|exit]
// self-destructs the supervisor right after the n-th terminal outcome has
// been recorded (artifact included) — the scripted stand-in for a host
// crash mid-campaign.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/shard_executor.h"
#include "obs/status.h"

namespace vpna::core {

// Terminal state of one supervised shard.
struct SupervisedShard {
  enum class Outcome : std::uint8_t {
    kPending,  // never scheduled (not in `indices`, or run interrupted)
    kDone,     // ok frame received; `payload` holds the report bytes
    kError,    // every attempt ended in an in-worker exception
    kCrashed,  // every attempt ended in process death / kill / torn stream
    kSkipped,  // interrupted before completion
  };
  Outcome outcome = Outcome::kPending;
  int attempts = 0;
  std::string payload;  // canonical report bytes (kDone only)
  std::string error;    // last error/exit description (kError/kCrashed)
};

[[nodiscard]] std::string_view supervised_outcome_name(
    SupervisedShard::Outcome outcome) noexcept;

struct SupervisorResult {
  std::vector<SupervisedShard> shards;  // indexed by global shard index
  // Final per-slot process telemetry (obs::ProcessStatus is also what the
  // supervisor pushes into the StatusBoard each tick).
  std::vector<obs::ProcessStatus> processes;
  std::size_t spawns = 0;
  std::size_t crashes = 0;   // process deaths with a shard in flight
  std::size_t kills = 0;     // timeout/watchdog escalations
  std::size_t timeouts = 0;  // attempts that hit the hard budget
};

class ShardSupervisor {
 public:
  // `run(index, attempt)` executes in the CHILD (fork mode) and must
  // return the shard's canonical payload bytes; exceptions become error
  // frames. Ignored in exec mode (the exec'd binary brings its own).
  using ChildRun = std::function<std::string(std::uint32_t, std::uint32_t)>;
  // Invoked in the SUPERVISOR the moment a shard reaches a terminal
  // outcome (artifact hook). Never invoked for kSkipped.
  using TerminalHook = std::function<void(std::size_t, const SupervisedShard&)>;

  // Reads the process-backend half of `options`: jobs (0 runs one
  // worker; the executor resolves it first), shard_attempts,
  // shard_timeout_s, term_grace_s, worker_argv, interrupt, and the status
  // file and watchdog multiple.
  ShardSupervisor(ExecutionOptions options,
                  std::vector<std::string> names, ChildRun child_run);

  // Runs the shards listed in `indices` (each < names.size()). `status`
  // may be null; when given, attempt heartbeats and per-process info flow
  // into it, its watchdog is scanned every pass, and the status file is
  // rewritten atomically every interval. Terminal outcomes are the hook's
  // to publish.
  SupervisorResult run(const std::vector<std::size_t>& indices,
                       obs::StatusBoard* status,
                       const TerminalHook& on_terminal = nullptr);

 private:
  ExecutionOptions options_;
  std::vector<std::string> names_;
  ChildRun child_run_;
};

}  // namespace vpna::core
