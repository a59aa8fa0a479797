// Wall-clock spans the benchmark records around its own calls into the
// library's public API. A span has a name, a start, an end and the span
// that was open when it began; self time is its duration minus what its
// children cover. One Tracer per thread: spans never cross threads.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the same tracer's spans, -1 = root
};

class Tracer {
 public:
  // Opens a span as a child of the innermost open one; returns its id.
  int open(std::string_view name);
  // Closes span `id`, which must be the innermost open span (SpanScope
  // guarantees it, exceptions included).
  void close(int id) noexcept;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

// Opens a span on construction and closes it on destruction. A null
// tracer makes the scope inert, so untraced code paths share the code.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string_view name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Per-name aggregate: every duration, plus summed duration and self time.
struct SpanStats {
  std::vector<double> durations_s;
  double total_s = 0.0;
  double self_s = 0.0;
};

using SpanTable = std::map<std::string, SpanStats>;

// Folds one tracer's spans into `table` (self time computed per tracer,
// so tables from several threads can be merged by repeated calls).
void aggregate_spans(const std::vector<Span>& spans, SpanTable& table);

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
