// Wall-clock phase profiler — the real-time counterpart of the sim-time
// trace layer (trace.h).
//
// A ProfileScope marks one phase of real work (shard build, routing-plane
// freeze, one suite, merge, serialization). Scopes nest on a thread-local
// frame stack; closing a scope attributes its wall time to the phase both
// inclusively (total) and exclusively (self = total minus enclosed
// phases), and to the full stack path for a flame-style summary. Every
// thread accumulates into its own tables; Profiler::report() folds the
// per-thread tables into one deterministic-ordered hot-phase report
// (self-time descending, name ascending on ties).
//
// Cost contract: when the profiler is disabled (the default), constructing
// a ProfileScope is one relaxed atomic load and a branch — no clock read,
// no allocation, no lock — so instrumentation sites can stay in place
// permanently (DESIGN.md §13 records both paths' cost). When enabled, a
// scope costs two steady_clock reads plus one short uncontended lock at
// close.
//
// Determinism quarantine: wall times legitimately vary run to run, so
// nothing the profiler produces ever lands in a campaign payload — the
// report is a separate artifact (full_campaign --profile), exactly like
// the volatile-marker section of the metrics rendering.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vpna::obs {

// Accumulated wall time of one phase (or one stack path).
struct PhaseStats {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  // inclusive of enclosed phases
  std::int64_t self_ns = 0;   // exclusive

  void fold(const PhaseStats& o) noexcept {
    calls += o.calls;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
  }
};

// The folded cross-thread profile.
struct ProfileReport {
  struct Phase {
    std::string name;
    PhaseStats stats;
  };
  // One row per distinct frame-stack path ("shard.run;test.pings"),
  // self-time ordered — a textual flame graph.
  struct PathRow {
    std::string path;
    PhaseStats stats;
  };
  std::vector<Phase> phases;  // self-time desc, name asc on ties
  std::vector<PathRow> flame; // top-N paths, same ordering
  std::size_t threads = 0;    // threads that recorded at least one frame
};

namespace detail {
// Thread-local frame push/pop behind the enabled() fast path; not part of
// the instrumentation API (use ProfileScope).
void push_frame(std::string_view name);
void pop_frame() noexcept;
extern std::atomic<bool> g_profiler_enabled;
}  // namespace detail

// Process-wide profiler registry. Threads register lazily on their first
// enabled ProfileScope; their tables survive thread exit so a report can
// be taken after a TaskPool has been torn down.
class Profiler {
 public:
  static Profiler& instance();

  // Enabling mid-run is safe: scopes opened while disabled stay inert for
  // their whole lifetime (and vice versa), so frames always balance.
  static void enable() noexcept {
    detail::g_profiler_enabled.store(true, std::memory_order_relaxed);
  }
  static void disable() noexcept {
    detail::g_profiler_enabled.store(false, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool enabled() noexcept {
    return detail::g_profiler_enabled.load(std::memory_order_relaxed);
  }

  // Clears every thread's accumulated tables (open frames keep running and
  // will accumulate on close). For benches and tests.
  void reset();

  // Folds every thread's tables. `flame_top_n` bounds the path summary;
  // the per-phase table is always complete.
  [[nodiscard]] ProfileReport report(std::size_t flame_top_n = 12) const;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

 private:
  Profiler() = default;
  friend void detail::push_frame(std::string_view);
  struct Impl;
};

// Text rendering of a report ("phase <name> calls=N total_ms=… self_ms=…"
// plus the flame section). Telemetry by nature: never byte-compared.
[[nodiscard]] std::string render_profile_text(const ProfileReport& report);

// RAII phase marker. Inert (and near-free) while the profiler is disabled.
class ProfileScope {
 public:
  explicit ProfileScope(std::string_view name) {
    if (Profiler::enabled()) {
      active_ = true;
      detail::push_frame(name);
    }
  }
  ~ProfileScope() {
    if (active_) detail::pop_frame();
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  bool active_ = false;
};

}  // namespace vpna::obs
