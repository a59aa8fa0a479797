// Sim-time-aware structured tracing.
//
// A TraceRecorder collects spans (RAII, nested) and point events,
// timestamped in virtual microseconds from the util::SimClock it is bound
// to. Sim time is the only time axis: a trace is a pure function of the
// shard that recorded it (wall time is obs::Profiler's job), which is what
// lets a traced shard's trace be cached alongside its report.
//
// Determinism contract: a recorder is owned by exactly one unit of
// deterministic work (a campaign shard) and is only ever touched by the
// thread currently running that unit — there are no locks, no atomics and
// no cross-thread sharing, so tracing cannot perturb TaskPool scheduling,
// and trace *content* depends only on the simulation, never on worker
// count. Interleaving across shards is canonicalized at export time by
// (sim_ts, shard, sequence) — see export.h.
//
// Instrumentation sites construct `obs::Span`/`obs::Instant` objects, which
// resolve the recorder bound to the current thread by ScopedObservation.
// When nothing is bound (the default), construction is a thread-local read
// plus a branch: no allocation, no work — the netsim per-packet hot path
// stays fast.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"

namespace vpna::obs {

struct TraceConfig {
  bool enabled = false;
  // Emit a per-router-hop instant for every packet walked through netsim.
  // Off by default: hop instants multiply the event volume by the mean path
  // length and are only worth it when debugging routing/middlebox behaviour.
  bool packet_hops = false;
};

struct TraceArg {
  std::string key;
  std::string value;
};

struct TraceEvent {
  std::uint32_t id = 0;      // 1-based within the recorder, in begin order
  std::uint32_t parent = 0;  // enclosing open span (0 = root)
  std::uint32_t depth = 0;   // nesting depth at begin
  char phase = 'X';          // 'X' complete span, 'i' instant
  std::string name;
  std::string category;
  std::int64_t sim_ts_us = 0;
  std::int64_t sim_dur_us = 0;  // instants: 0; open spans: -1 until ended
  std::vector<TraceArg> args;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(TraceConfig config = {});

  // Timestamps come from `clock` (virtual µs); a recorder with no clock
  // stamps everything at 0. Bind before the first span.
  void bind_clock(const util::SimClock* clock) noexcept { clock_ = clock; }

  [[nodiscard]] const TraceConfig& config() const noexcept { return config_; }

  // Low-level API (Span/Instant are the intended interface).
  std::uint32_t begin_span(std::string_view name, std::string_view category);
  void end_span(std::uint32_t id);
  std::uint32_t add_instant(std::string_view name, std::string_view category);
  void add_arg(std::uint32_t id, std::string_view key, std::string_view value);

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::vector<TraceEvent> take_events() {
    return std::move(events_);
  }
  [[nodiscard]] std::size_t open_spans() const noexcept {
    return stack_.size();
  }

 private:
  TraceConfig config_;
  const util::SimClock* clock_ = nullptr;
  std::vector<TraceEvent> events_;
  std::vector<std::uint32_t> stack_;  // open span ids
};

namespace detail {
// The thread-bound recorder. Exposed (as a detail) so the no-tracer checks
// below inline into the per-packet hot path; use tracer()/ScopedObservation.
extern thread_local TraceRecorder* t_tracer;
}  // namespace detail

// The recorder bound to this thread by ScopedObservation, or nullptr.
[[nodiscard]] inline TraceRecorder* tracer() noexcept {
  return detail::t_tracer;
}
[[nodiscard]] inline bool tracing() noexcept {
  return detail::t_tracer != nullptr;
}
// True when per-packet hop instants were requested (implies tracing()).
[[nodiscard]] inline bool packet_hops_enabled() noexcept {
  return detail::t_tracer != nullptr &&
         detail::t_tracer->config().packet_hops;
}

// Binds a recorder and a metrics registry to the current thread for the
// scope's lifetime, restoring the previous binding on destruction. Either
// pointer may be null (trace-only or metrics-only observation).
class ScopedObservation {
 public:
  ScopedObservation(TraceRecorder* recorder, MetricsRegistry* metrics);
  ~ScopedObservation();

  ScopedObservation(const ScopedObservation&) = delete;
  ScopedObservation& operator=(const ScopedObservation&) = delete;

 private:
  TraceRecorder* prev_tracer_;
  MetricsRegistry* prev_meter_;
};

// RAII span against the thread-bound recorder; a no-op shell when nothing
// is bound. Ends at destruction (or explicitly via end()).
class Span {
 public:
  Span() = default;
  Span(std::string_view name, std::string_view category);
  Span(Span&& o) noexcept : rec_(o.rec_), id_(o.id_) { o.rec_ = nullptr; }
  Span& operator=(Span&& o) noexcept;
  ~Span() { end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(std::string_view key, std::string_view value);
  void arg(std::string_view key, std::int64_t value);
  void arg(std::string_view key, double value);
  void end();

  [[nodiscard]] explicit operator bool() const noexcept {
    return rec_ != nullptr;
  }

 private:
  TraceRecorder* rec_ = nullptr;
  std::uint32_t id_ = 0;
};

// Point event against the thread-bound recorder; same no-op contract.
class Instant {
 public:
  Instant(std::string_view name, std::string_view category);

  void arg(std::string_view key, std::string_view value);
  void arg(std::string_view key, std::int64_t value);

  [[nodiscard]] explicit operator bool() const noexcept {
    return rec_ != nullptr;
  }

 private:
  TraceRecorder* rec_ = nullptr;
  std::uint32_t id_ = 0;
};

}  // namespace vpna::obs
