#include "obs/trace_codec.h"

#include "util/byte_codec.h"

namespace vpna::obs {

namespace {

using util::ByteReader;
using util::ByteWriter;

void encode_event(ByteWriter& w, const TraceEvent& ev) {
  w.u32(ev.id);
  w.u32(ev.parent);
  w.u32(ev.depth);
  w.u8(static_cast<std::uint8_t>(ev.phase));
  w.str(ev.name);
  w.str(ev.category);
  w.i64(ev.sim_ts_us);
  w.i64(ev.sim_dur_us);
  w.u32(static_cast<std::uint32_t>(ev.args.size()));
  for (const auto& arg : ev.args) {
    w.str(arg.key);
    w.str(arg.value);
  }
}

bool decode_event(ByteReader& r, TraceEvent* ev) {
  std::uint8_t phase = 0;
  if (!(r.u32(&ev->id) && r.u32(&ev->parent) && r.u32(&ev->depth) &&
        r.u8(&phase) && (phase == 'X' || phase == 'i') && r.str(&ev->name) &&
        r.str(&ev->category) && r.i64(&ev->sim_ts_us) &&
        r.i64(&ev->sim_dur_us)))
    return false;
  ev->phase = static_cast<char>(phase);
  std::uint32_t n = 0;
  if (!r.count(&n)) return false;
  ev->args.resize(n);
  for (auto& arg : ev->args)
    if (!(r.str(&arg.key) && r.str(&arg.value))) return false;
  return true;
}

// Reads one name of a sorted name list: names must be strictly ascending,
// as the registry's maps and set store them, so no two encodings decode to
// the same registry.
bool next_name(ByteReader& r, std::string* name, const std::string* prev) {
  return r.str(name) && (prev == nullptr || *prev < *name);
}

// Decodes `n` (name, value) entries into `map`, appending at the end.
template <typename Map, typename ReadValue>
bool decode_sorted(ByteReader& r, Map& map, ReadValue read_value) {
  std::uint32_t n = 0;
  if (!r.count(&n)) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name;
    typename Map::mapped_type value{};
    const std::string* prev = map.empty() ? nullptr : &map.rbegin()->first;
    if (!(next_name(r, &name, prev) && read_value(&value))) return false;
    map.emplace_hint(map.end(), std::move(name), std::move(value));
  }
  return true;
}

}  // namespace

void encode_metrics(ByteWriter& w, const MetricsRegistry& m) {
  w.u32(static_cast<std::uint32_t>(m.counters_.size()));
  for (const auto& [name, value] : m.counters_) {
    w.str(name);
    w.u64(value);
  }
  w.u32(static_cast<std::uint32_t>(m.gauges_.size()));
  for (const auto& [name, value] : m.gauges_) {
    w.str(name);
    w.f64(value);
  }
  w.u32(static_cast<std::uint32_t>(m.histograms_.size()));
  for (const auto& [name, h] : m.histograms_) {
    w.str(name);
    w.u32(static_cast<std::uint32_t>(h.bounds.size()));
    for (const double b : h.bounds) w.f64(b);
    for (const std::uint64_t c : h.counts) w.u64(c);
    w.u64(h.total);
    w.f64(h.sum);
  }
  w.u32(static_cast<std::uint32_t>(m.volatile_.size()));
  for (const auto& name : m.volatile_) w.str(name);
}

bool decode_metrics(ByteReader& r, MetricsRegistry* m) {
  const auto read_histogram = [&r](HistogramData* h) {
    // A registry histogram always has one count per bound plus +inf.
    std::uint32_t bounds = 0;
    if (!r.count(&bounds)) return false;
    h->bounds.resize(bounds);
    for (double& b : h->bounds)
      if (!r.f64(&b)) return false;
    h->counts.resize(bounds + std::size_t{1});
    for (std::uint64_t& c : h->counts)
      if (!r.u64(&c)) return false;
    return r.u64(&h->total) && r.f64(&h->sum);
  };
  if (!(decode_sorted(r, m->counters_,
                      [&r](std::uint64_t* v) { return r.u64(v); }) &&
        decode_sorted(r, m->gauges_, [&r](double* v) { return r.f64(v); }) &&
        decode_sorted(r, m->histograms_, read_histogram)))
    return false;
  std::uint32_t n = 0;
  if (!r.count(&n)) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name;
    const std::string* prev =
        m->volatile_.empty() ? nullptr : &*m->volatile_.rbegin();
    if (!next_name(r, &name, prev)) return false;
    m->volatile_.emplace_hint(m->volatile_.end(), std::move(name));
  }
  return true;
}

std::string encode_shard_trace(const ShardTrace& trace) {
  std::string out;
  out.reserve(64 + 96 * trace.events.size());
  ByteWriter w(out);
  w.u32(kShardTraceFormatVersion);
  w.str(trace.shard);
  w.u32(static_cast<std::uint32_t>(trace.events.size()));
  for (const auto& ev : trace.events) encode_event(w, ev);
  encode_metrics(w, trace.metrics);
  return out;
}

bool decode_shard_trace(std::string_view bytes, ShardTrace* out) {
  ByteReader r(bytes);
  std::uint32_t version = 0;
  if (!r.u32(&version) || version != kShardTraceFormatVersion) return false;
  if (!r.str(&out->shard)) return false;
  std::uint32_t n = 0;
  if (!r.count(&n)) return false;
  out->events.resize(n);
  for (auto& ev : out->events)
    if (!decode_event(r, &ev)) return false;
  out->metrics = MetricsRegistry{};
  return decode_metrics(r, &out->metrics) && r.done();
}

}  // namespace vpna::obs
