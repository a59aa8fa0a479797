// Work-stealing thread pool for embarrassingly parallel campaign work.
//
// Each worker owns a deque; submissions are distributed round-robin and an
// idle worker steals from the back of a victim's deque. The pool only
// schedules: a task runs once and its result or exception lands in its
// future (retries and budgets belong to core::ShardExecutor). Every worker
// keeps lightweight counters (tasks run, steals, busy wall/cpu time) that
// campaign reports surface.
//
// The pool never makes results depend on scheduling. Any task set whose
// tasks are independent and individually deterministic yields the same
// results at any worker count — that contract is what the parallel
// campaign engine builds on (see DESIGN.md §7).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace vpna::util {

// Counters one worker accumulates over its lifetime. Snapshot via
// TaskPool::counters(); totals via TaskPool::total_counters(). The pool
// never retries, so it leaves `retries` and `timeouts` at zero; the shard
// executor's per-worker rows fill them from its attempt loop.
struct WorkerCounters {
  std::uint64_t tasks_run = 0;  // task bodies (executor: attempts) started
  std::uint64_t steals = 0;     // tasks taken from another worker's deque
  std::uint64_t retries = 0;    // failed attempts that were re-run
  std::uint64_t timeouts = 0;   // attempts discarded for exceeding budget
  double busy_wall_s = 0.0;     // wall time spent inside task bodies
  double busy_cpu_s = 0.0;      // thread cpu time spent inside task bodies
};

class TaskPool {
 public:
  // workers == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit TaskPool(std::size_t workers = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  // Index of the pool worker running the calling thread, or -1 when the
  // caller is not a pool worker (e.g. the serial in-caller path). Lets a
  // task attribute status heartbeats to its worker without threading the
  // index through every task signature.
  [[nodiscard]] static int current_worker_index() noexcept;

  // Schedules `fn` and returns a future for its result; an exception
  // thrown by `fn` propagates through the future.
  template <typename F>
  auto submit(F fn) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    auto fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  // Blocks until every submitted task has finished.
  void wait_idle();

  // Per-worker counter snapshot. Values are exact once the pool is idle;
  // mid-flight reads are safe but may lag in-progress tasks.
  [[nodiscard]] std::vector<WorkerCounters> counters() const;
  [[nodiscard]] WorkerCounters total_counters() const;

 private:
  using Task = std::function<void()>;

  struct Worker {
    // Guards both queue and counters. Every counter write — the steal bump
    // in try_acquire and the post-task merge in worker_loop — happens
    // under this mutex, and counters() reads under it too, so a concurrent
    // snapshot can lag in-flight tasks but never observes a torn update.
    mutable std::mutex mu;
    std::deque<Task> queue;
    WorkerCounters counters;
    std::thread thread;
  };

  void enqueue(Task task);
  void worker_loop(std::size_t index);
  bool try_acquire(std::size_t index, Task& out);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t next_queue_ = 0;  // round-robin submission target (under mu_)

  mutable std::mutex mu_;            // guards next_queue_ and wake/idle state
  std::condition_variable wake_cv_;  // work available or shutting down
  std::condition_variable idle_cv_;  // pending_ reached zero
  std::size_t queued_ = 0;           // tasks enqueued, not yet picked up
  std::size_t pending_ = 0;          // tasks enqueued, not yet finished
  bool stop_ = false;
};

}  // namespace vpna::util
