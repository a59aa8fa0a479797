#include "obs/export.h"

#include <algorithm>

#include "util/strings.h"

namespace vpna::obs {

namespace {

// (shard index, event) reference used to build the canonical ordering.
struct Ref {
  std::size_t shard;
  const TraceEvent* ev;
};

std::vector<Ref> canonical_order(const std::vector<ShardTrace>& shards) {
  std::vector<Ref> refs;
  std::size_t total = 0;
  for (const auto& s : shards) total += s.events.size();
  refs.reserve(total);
  for (std::size_t i = 0; i < shards.size(); ++i)
    for (const auto& ev : shards[i].events) refs.push_back(Ref{i, &ev});
  // Stable: equal timestamps keep (shard, sequence) append order.
  std::stable_sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return a.ev->sim_ts_us < b.ev->sim_ts_us;
  });
  return refs;
}

void append_args_object(std::string& out, const TraceEvent& ev) {
  out += "{";
  bool first = true;
  for (const auto& arg : ev.args) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(arg.key) + "\":\"" + json_escape(arg.value) +
           "\"";
  }
  out += "}";
}

}  // namespace

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += util::format("\\u%04x", c);
        else
          out += c;
    }
  }
  return out;
}

std::string chrome_trace_json(const std::vector<ShardTrace>& shards) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };

  emit("{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
       "\"args\":{\"name\":\"vpna campaign (sim time)\"}}");
  for (std::size_t i = 0; i < shards.size(); ++i) {
    emit(util::format(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"%s\"}}",
        i + 1, json_escape(shards[i].shard).c_str()));
  }

  for (const auto& ref : canonical_order(shards)) {
    const TraceEvent& ev = *ref.ev;
    std::string line = util::format(
        "{\"ph\":\"%c\",\"pid\":1,\"tid\":%zu,\"name\":\"%s\","
        "\"cat\":\"%s\",\"ts\":%lld",
        ev.phase, ref.shard + 1, json_escape(ev.name).c_str(),
        json_escape(ev.category).c_str(),
        static_cast<long long>(ev.sim_ts_us));
    if (ev.phase == 'X') {
      // Spans still open at export render with zero duration.
      line += util::format(
          ",\"dur\":%lld",
          static_cast<long long>(ev.sim_dur_us < 0 ? 0 : ev.sim_dur_us));
    } else {
      line += ",\"s\":\"t\"";
    }
    line += ",\"args\":";
    append_args_object(line, ev);
    line += "}";
    emit(line);
  }
  out += "\n]}\n";
  return out;
}

std::string trace_jsonl(const std::vector<ShardTrace>& shards) {
  std::string out;
  for (const auto& ref : canonical_order(shards)) {
    const TraceEvent& ev = *ref.ev;
    out += util::format(
        "{\"shard\":\"%s\",\"id\":%u,\"parent\":%u,\"depth\":%u,"
        "\"ph\":\"%c\",\"name\":\"%s\",\"cat\":\"%s\",\"ts_us\":%lld,"
        "\"dur_us\":%lld,\"args\":",
        json_escape(shards[ref.shard].shard).c_str(), ev.id, ev.parent,
        ev.depth, ev.phase, json_escape(ev.name).c_str(),
        json_escape(ev.category).c_str(),
        static_cast<long long>(ev.sim_ts_us),
        static_cast<long long>(ev.sim_dur_us < 0 ? 0 : ev.sim_dur_us));
    append_args_object(out, ev);
    out += "}\n";
  }
  return out;
}

MetricsRegistry merged_metrics(const std::vector<ShardTrace>& shards) {
  MetricsRegistry merged;
  for (const auto& s : shards) merged.merge(s.metrics);
  return merged;
}

}  // namespace vpna::obs
