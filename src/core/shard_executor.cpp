#include "core/shard_executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/shard_supervisor.h"
#include "core/worker_protocol.h"
#include "obs/profiler.h"
#include "store/journal.h"

namespace vpna::core {

std::string_view cache_outcome_name(ShardCacheRecord::Outcome outcome) noexcept {
  switch (outcome) {
    case ShardCacheRecord::Outcome::kBypass:
      return "bypass";
    case ShardCacheRecord::Outcome::kHit:
      return "hit";
    case ShardCacheRecord::Outcome::kMiss:
      return "miss";
    case ShardCacheRecord::Outcome::kCorrupt:
      return "corrupt";
  }
  return "bypass";
}

CacheSummary summarize_cache(
    const std::vector<ShardCacheRecord>& records) noexcept {
  CacheSummary s;
  s.shards = records.size();
  for (const auto& r : records) {
    switch (r.outcome) {
      case ShardCacheRecord::Outcome::kBypass: ++s.bypassed; break;
      case ShardCacheRecord::Outcome::kHit:
        ++s.hits;
        s.bytes_read += r.bytes;
        break;
      case ShardCacheRecord::Outcome::kMiss: ++s.misses; break;
      case ShardCacheRecord::Outcome::kCorrupt: ++s.corrupt; break;
    }
    if (r.stored) {
      ++s.stored;
      s.bytes_written += r.bytes;
    }
  }
  return s;
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Background health monitor for the in-process backends: on every tick it
// runs the watchdog scan, refreshes the per-worker counter snapshot on the
// board, and atomically rewrites the status file. RAII — destruction stops
// the thread and runs one final tick so the file ends at 100% with the
// complete alert list. Purely observational: it reads pool counters and
// board state, so it can never perturb shard results. (The process
// backend ticks inline: its supervisor stays single-threaded for fork.)
class StatusMonitor {
 public:
  StatusMonitor(obs::StatusBoard& board, const obs::StatusOptions& opts,
                const util::TaskPool* pool)
      : board_(board), opts_(opts), pool_(pool) {
    thread_ = std::thread([this] { loop(); });
  }

  ~StatusMonitor() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    tick();
  }

  StatusMonitor(const StatusMonitor&) = delete;
  StatusMonitor& operator=(const StatusMonitor&) = delete;

 private:
  void loop() {
    const auto interval = std::chrono::duration<double, std::milli>(
        opts_.interval_ms < 1.0 ? 1.0 : opts_.interval_ms);
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (cv_.wait_for(lock, interval, [this] { return stop_; })) return;
      lock.unlock();
      tick();
      lock.lock();
    }
  }

  void tick() {
    board_.watchdog_scan(opts_.watchdog_multiple);
    if (pool_ != nullptr) {
      std::vector<obs::WorkerStatus> workers;
      for (const auto& c : pool_->counters()) {
        obs::WorkerStatus w;
        w.tasks_run = c.tasks_run;
        w.steals = c.steals;
        w.busy_wall_s = c.busy_wall_s;
        workers.push_back(w);
      }
      board_.set_workers(std::move(workers));
    }
    if (!opts_.file.empty())
      obs::write_file_atomic(opts_.file,
                             obs::render_status_json(board_.snapshot()));
  }

  obs::StatusBoard& board_;
  obs::StatusOptions opts_;
  const util::TaskPool* pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// The child side of the process backend: run the shard, ship its bytes.
ShardSupervisor::ChildRun child_run(const ShardSet& shards) {
  return [&shards](std::uint32_t index, std::uint32_t) {
    shards.run(index);
    return shards.encode(index);
  };
}

// One execution of one shard set: the seven steps, each written once, and
// the three backends that schedule the attempts between them.
class Execution {
 public:
  // Resolves the options every backend reads: jobs (0 = hardware
  // concurrency) and the attempt budget (at least one).
  Execution(const ShardSet& shards, ExecutionOptions options)
      : shards_(shards), options_(std::move(options)), n_(shards.names.size()) {
    if (options_.jobs == 0)
      options_.jobs = std::max(1u, std::thread::hardware_concurrency());
    options_.shard_attempts = std::max(1, options_.shard_attempts);
    result_.slots.resize(n_);
    result_.jobs = options_.jobs;
    result_.execution_isolated = options_.isolate;
  }
  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;

  ExecutorResult run() {
    if (options_.status.engaged()) {
      board_.emplace();
      board_->begin(shards_.names, result_.jobs);
    }
    derive_keys();
    const std::vector<char> journaled = replay_journal();
    open_journal(journaled.empty());
    consult_cache(journaled);

    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < n_; ++i)
      if (result_.slots[i].fate == ShardFate::kPending) todo.push_back(i);
    if (options_.isolate)
      run_processes(todo);
    else if (result_.jobs == 1)
      run_in_caller(todo);
    else
      run_pool(todo);

    for (const auto& slot : result_.slots)
      if (slot.fate == ShardFate::kSkipped) result_.interrupted = true;
    if (board_) result_.watchdog_alerts = board_->alerts();
    return std::move(result_);
  }

 private:
  [[nodiscard]] bool cache_on() const { return !keys_.empty(); }

  // Step 1: one content address per shard, derived up front (cheap, pure)
  // and only when a store will see it.
  void derive_keys() {
    if (!options_.cache.enabled() || !shards_.key) return;
    store_.emplace(options_.cache);
    keys_.reserve(n_);
    result_.cache_records.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      keys_.push_back(shards_.key(i));
      result_.cache_records[i].provider = shards_.names[i];
      result_.cache_records[i].key_id = keys_[i].id();
    }
  }

  // Step 2: the shards a previous run of this computation journaled done
  // under their current keys (empty when there is no journal to resume).
  // The store consult below replays them; anything it cannot replay
  // recomputes.
  std::vector<char> replay_journal() {
    if (!options_.resume || options_.journal_path.empty()) return {};
    store::JournalHeader header;
    std::vector<store::JournalEntry> entries;
    if (!store::CampaignJournal::load(options_.journal_path, &header, &entries))
      return {};  // no loadable journal: a fresh run that carries resume
    if (header.campaign_fingerprint != shards_.fingerprint)
      throw std::runtime_error(
          "ShardExecutor: --resume refused — the journal describes a "
          "different campaign configuration (seed, code epoch, options, "
          "or shard selection changed)");
    std::vector<char> journaled(n_, 0);
    for (const auto& e : entries) {
      if (e.outcome != "done" || e.index >= n_ ||
          e.provider != shards_.names[e.index])
        continue;
      if (cache_on() && !e.key_id.empty() && e.key_id != keys_[e.index].id())
        continue;  // journaled under a different key: recompute
      journaled[e.index] = 1;
    }
    return journaled;
  }

  void open_journal(bool fresh) {
    if (options_.journal_path.empty()) return;
    store::JournalHeader header;
    header.campaign_fingerprint = shards_.fingerprint;
    header.seed = shards_.seed;
    header.shards = n_;
    header.cache_dir = options_.cache.dir;
    journal_ = store::CampaignJournal::open(options_.journal_path, header, fresh);
  }

  void journal(std::size_t i, std::string_view outcome, int attempts,
               std::string_view detail) {
    if (!journal_ || !journal_->valid()) return;
    store::JournalEntry e;
    e.index = i;
    e.provider = shards_.names[i];
    e.outcome = std::string(outcome);
    if (cache_on()) e.key_id = keys_[i].id();
    e.attempts = attempts;
    e.detail = std::string(detail);
    std::lock_guard<std::mutex> lock(journal_mu_);
    journal_->record(e);
  }

  // Step 3: every shard consults the store before any backend runs; a
  // decodable hit settles the shard without ever calling `run`.
  void consult_cache(const std::vector<char>& journaled) {
    if (!cache_on()) return;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!fetch(i)) continue;
      if (!journaled.empty() && journaled[i] != 0)
        ++result_.resumed_shards;
      else
        journal(i, "done", 0, "cache-hit");
    }
  }

  bool fetch(std::size_t i) {
    obs::ProfileScope profile("campaign.cache");
    ShardCacheRecord& record = result_.cache_records[i];
    store::FetchResult fetched = store_->fetch(keys_[i]);
    if (fetched.status == store::FetchStatus::kHit) {
      if (shards_.decode(i, fetched.payload)) {
        record.outcome = ShardCacheRecord::Outcome::kHit;
        record.bytes = fetched.payload.size();
        if (board_) board_->cache_event(obs::StatusBoard::CacheEvent::kHit);
        result_.slots[i].fate = ShardFate::kDone;
        if (board_) board_->shard_finished(i, obs::StatusBoard::Outcome::kDone);
        return true;
      }
      // Integrity-valid but undecodable (foreign writer, or a codec change
      // that forgot its version bump): corruption from the campaign's point
      // of view. Evict (rw only) so the recompute's put lands clean.
      store_->discard(keys_[i]);
      fetched.status = store::FetchStatus::kCorrupt;
    }
    const bool corrupt = fetched.status == store::FetchStatus::kCorrupt;
    record.outcome = corrupt ? ShardCacheRecord::Outcome::kCorrupt
                             : ShardCacheRecord::Outcome::kMiss;
    if (board_)
      board_->cache_event(corrupt ? obs::StatusBoard::CacheEvent::kCorrupt
                                  : obs::StatusBoard::CacheEvent::kMiss);
    return false;
  }

  // Steps 4–7: the one place a computed shard becomes terminal. A done
  // shard's artifact is filed before its journal line is written, so the
  // journal never promises an artifact that was not put; every other fate
  // fills the slot with the set's placeholder and never leaves an artifact.
  // The terminal status heartbeat is published here (attempt heartbeats
  // come from the backends), and the slot index is the canonical position,
  // so the merge is the slots. `bytes` is the shard's encoding when the
  // backend already holds it.
  void settle(std::size_t i, ShardFate fate, int attempts, std::string error,
              const std::string* bytes = nullptr) {
    ShardSlot& slot = result_.slots[i];
    slot.fate = fate;
    slot.attempts = attempts;
    slot.error = std::move(error);
    if (fate == ShardFate::kDone) {
      if (cache_on() && store_->config().writable()) {
        obs::ProfileScope profile("campaign.cache");
        const std::string encoded = bytes == nullptr ? shards_.encode(i) : "";
        const std::string& artifact = bytes == nullptr ? encoded : *bytes;
        if (store_->put(keys_[i], artifact)) {
          result_.cache_records[i].stored = true;
          result_.cache_records[i].bytes = artifact.size();
        }
      }
      journal(i, "done", attempts, "");
      if (board_) board_->shard_finished(i, obs::StatusBoard::Outcome::kDone);
      return;
    }
    shards_.placeholder(i, fate);
    if (cache_on()) {
      result_.cache_records[i].outcome = ShardCacheRecord::Outcome::kBypass;
      result_.cache_records[i].bytes = 0;
    }
    if (fate == ShardFate::kSkipped) return;
    const bool hard = fate == ShardFate::kFailed;
    journal(i, hard ? "failed" : "quarantined", attempts, slot.error);
    if (board_)
      board_->shard_finished(i, hard ? obs::StatusBoard::Outcome::kFailed
                                     : obs::StatusBoard::Outcome::kQuarantined);
  }

  [[nodiscard]] ShardFate exhausted() const {
    return shards_.graceful ? ShardFate::kQuarantined : ShardFate::kFailed;
  }

  // The in-process attempt loop shared by the in-caller and pool backends:
  // up to `shard_attempts` runs, each checked against the wall budget when it
  // returns (a thread cannot be preempted). Counts land in `row`, which
  // only the calling thread writes.
  void attempt(std::size_t i, int worker, util::WorkerCounters& row) {
    for (int n = 1;; ++n) {
      ++row.tasks_run;
      if (board_) board_->shard_started(i, worker);
      const auto t0 = std::chrono::steady_clock::now();
      std::string error;
      try {
        shards_.run(i);
      } catch (const std::exception& e) {
        error = e.what();
      } catch (...) {
        error = "unknown exception";
      }
      const double wall_s = seconds_since(t0);
      row.busy_wall_s += wall_s;
      if (error.empty() && options_.shard_timeout_s > 0.0 &&
          wall_s > options_.shard_timeout_s) {
        ++row.timeouts;
        error = "attempt exceeded the shard timeout";
      }
      if (error.empty()) {
        settle(i, ShardFate::kDone, n, "");
        return;
      }
      if (n >= options_.shard_attempts) {
        settle(i, exhausted(), n, std::move(error));
        return;
      }
      ++row.retries;
      if (board_) board_->shard_attempt_failed(i);
    }
  }

  void run_in_caller(const std::vector<std::size_t>& todo) {
    std::optional<StatusMonitor> monitor;
    if (board_) monitor.emplace(*board_, options_.status, nullptr);
    result_.workers.resize(1);
    for (std::size_t i : todo) attempt(i, -1, result_.workers[0]);
  }

  void run_pool(const std::vector<std::size_t>& todo) {
    util::TaskPool pool(result_.jobs);
    result_.workers.resize(pool.worker_count());
    // Declared after the pool so it joins (and takes its final counter
    // snapshot) before the pool is torn down.
    std::optional<StatusMonitor> monitor;
    if (board_) monitor.emplace(*board_, options_.status, &pool);
    std::vector<std::future<void>> futures;
    futures.reserve(todo.size());
    for (std::size_t i : todo)
      futures.push_back(pool.submit([this, i] {
        const int worker = util::TaskPool::current_worker_index();
        attempt(i, worker, result_.workers[static_cast<std::size_t>(worker)]);
      }));
    obs::ProfileScope merge_profile("campaign.merge");
    for (auto& f : futures) f.get();
    // A task's future resolves before its worker books the task; drain the
    // pool so the steal and cpu snapshot is complete.
    pool.wait_idle();
    const auto pool_rows = pool.counters();
    for (std::size_t w = 0; w < pool_rows.size(); ++w) {
      result_.workers[w].steals = pool_rows[w].steals;
      result_.workers[w].busy_cpu_s = pool_rows[w].busy_cpu_s;
    }
  }

  void run_processes(const std::vector<std::size_t>& todo) {
    ShardSupervisor supervisor(options_, shards_.names, child_run(shards_));
    // Settled the moment the outcome is terminal: a supervisor killed
    // right after this leaves a durable record of exactly the shards whose
    // results survive.
    SupervisorResult sres = supervisor.run(
        todo, board_ ? &*board_ : nullptr,
        [&](std::size_t i, const SupervisedShard& s) {
          switch (s.outcome) {
            case SupervisedShard::Outcome::kDone:
              // A checksummed frame that doesn't decode means codec skew,
              // not line noise — quarantine rather than trust it.
              if (shards_.decode(i, s.payload))
                settle(i, ShardFate::kDone, s.attempts, "", &s.payload);
              else
                settle(i, ShardFate::kCrashed, s.attempts,
                       "result frame does not decode");
              break;
            case SupervisedShard::Outcome::kCrashed:
              settle(i, ShardFate::kCrashed, s.attempts, s.error);
              break;
            case SupervisedShard::Outcome::kError:
              settle(i, exhausted(), s.attempts, s.error);
              break;
            default:
              break;
          }
        });
    for (std::size_t i : todo)
      if (result_.slots[i].fate == ShardFate::kPending)
        settle(i, ShardFate::kSkipped, sres.shards[i].attempts, "interrupted");
    result_.process_spawns = sres.spawns;
    result_.process_crashes = sres.crashes;
    result_.process_kills = sres.kills;
    result_.process_timeouts = sres.timeouts;
    result_.processes = std::move(sres.processes);
  }

  const ShardSet& shards_;
  ExecutionOptions options_;
  const std::size_t n_;
  ExecutorResult result_;
  std::optional<obs::StatusBoard> board_;
  std::optional<store::ArtifactStore> store_;
  std::vector<store::ShardKey> keys_;
  std::optional<store::CampaignJournal> journal_;
  std::mutex journal_mu_;
};

}  // namespace

ShardExecutor::ShardExecutor(ExecutionOptions options)
    : options_(std::move(options)) {}

ExecutorResult ShardExecutor::run(const ShardSet& shards) const {
  return Execution(shards, options_).run();
}

int serve_shard_worker(const ShardSet& shards) {
  return shard_worker_loop(0, 1, child_run(shards));
}

}  // namespace vpna::core
