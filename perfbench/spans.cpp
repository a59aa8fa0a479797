#include "spans.h"

namespace perfbench {

int Tracer::open(std::string_view name) {
  spans_.push_back(Span{std::string(name), now_ns(), 0, current_});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int id) noexcept {
  auto& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  current_ = span.parent;
}

void aggregate_spans(const std::vector<Span>& spans, SpanTable& table) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const auto& s : spans)
    if (s.parent >= 0)
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    auto& stats = table[spans[i].name];
    stats.durations_s.push_back(dur);
    stats.total_s += dur;
    stats.self_s += dur - child_s[i];
  }
}

}  // namespace perfbench
