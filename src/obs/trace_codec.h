// Canonical byte codec for one shard's observation (obs::ShardTrace): its
// trace events with their args, and its MetricsRegistry — counters,
// gauges, histograms and volatile marks.
//
// This is what lets a traced shard be an ordinary shard: its trace rides
// the worker frame from an isolated process and is filed in the artifact
// store beside its report, so a cache hit replays the trace as exactly as
// it replays the report.
//
// Same discipline as core/report_codec: little-endian, versioned, doubles
// bit-exact (NaN and -0 gauges survive), and decode_shard_trace() is the
// strict inverse of encode_shard_trace() — every read bounds-checked, the
// phase byte validated, metric names required in strictly ascending order
// (the registry's own order, so encode(decode(bytes)) == bytes), trailing
// bytes and version mismatches rejected. It never throws.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/export.h"

namespace vpna::obs {

// Bumped whenever the encoding changes shape.
inline constexpr std::uint32_t kShardTraceFormatVersion = 1;

[[nodiscard]] std::string encode_shard_trace(const ShardTrace& trace);

// Strict inverse of encode_shard_trace: false on any malformed input.
[[nodiscard]] bool decode_shard_trace(std::string_view bytes, ShardTrace* out);

}  // namespace vpna::obs
