// Trace/metrics exporters.
//
// A campaign's observation is a vector of ShardTrace (one per shard, in
// canonical catalog order). Exports canonicalize event interleaving by
// stable-sorting all events on sim timestamp — ties resolve to (shard,
// sequence) order via sort stability — so two runs of the same seed export
// byte-identical bytes at any worker count.
//
// Chrome trace output is the trace-event JSON format: load it in
// chrome://tracing or https://ui.perfetto.dev. Each shard renders as one
// "thread" (tid = catalog position), which shows every shard's sim-time
// lane side by side regardless of which OS thread actually ran it.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vpna::obs {

// Everything observed while one shard ran: its trace events and its
// deterministic metrics.
struct ShardTrace {
  std::string shard;  // provider / shard label
  std::vector<TraceEvent> events;
  MetricsRegistry metrics;
};

// Chrome trace-event JSON ({"traceEvents": [...]}). ts/dur are virtual
// microseconds.
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<ShardTrace>& shards);

// One JSON object per line per event — grep/jq-friendly log form.
[[nodiscard]] std::string trace_jsonl(const std::vector<ShardTrace>& shards);

// Merges every shard's metrics (canonical order) into one registry.
[[nodiscard]] MetricsRegistry merged_metrics(
    const std::vector<ShardTrace>& shards);

// JSON string escaping for exporters and bench emitters.
[[nodiscard]] std::string json_escape(std::string_view raw);

}  // namespace vpna::obs
