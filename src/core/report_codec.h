// Canonical byte codec for shard reports — the artifact payload of the
// content-addressed campaign cache.
//
// encode_provider_report() serializes every field of a ProviderReport
// (all nested suite results, degradation records, speed-test stats,
// optionals, doubles bit-exact) into a versioned little-endian byte
// string; decode_provider_report() is its strict inverse. The contract is
// byte-level round-tripping: decode(encode(r)) == r field-for-field and
// encode(decode(bytes)) == bytes — the randomized codec fuzz suite
// enforces both, so a cached shard replayed through the canonical-order
// merge is indistinguishable from a recomputed one.
//
// Decoding is defensive, never trusting: every read is bounds-checked,
// every enum is range-validated, trailing bytes are rejected, and the
// format version must match exactly. A failed decode returns false with
// the output untouched semantics-wise (contents unspecified) — the cache
// layer treats it as a corrupt artifact and recomputes. It never throws
// and never reads out of bounds (the fuzz suite runs under ASan).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/runner.h"
#include "obs/trace_codec.h"

namespace vpna::core {

// Bumped whenever the encoding changes shape. Folded into the cache key
// (store::ShardKey::payload_format) so old artifacts are simply never
// addressed by new code; the in-band check below is the belt to that
// suspenders.
inline constexpr std::uint32_t kShardReportFormatVersion = 1;

[[nodiscard]] std::string encode_provider_report(const ProviderReport& report);

// Strict inverse of encode_provider_report: false on any malformed input
// (short buffer, bad enum, version mismatch, trailing bytes).
[[nodiscard]] bool decode_provider_report(std::string_view bytes,
                                          ProviderReport* out);

// --- traced shard codec ------------------------------------------------------
// A traced provider shard's artifact: its report and its obs::ShardTrace,
// each in its own strict encoding, behind one version word. The version
// moves with either codec and never equals kShardReportFormatVersion, so
// as a store::ShardKey::payload_format it keeps traced and untraced
// artifacts at different addresses.

inline constexpr std::uint32_t kTracedShardFormatVersion =
    (obs::kShardTraceFormatVersion << 16) | kShardReportFormatVersion;

[[nodiscard]] std::string encode_traced_shard(const ProviderReport& report,
                                              const obs::ShardTrace& trace);
// Strict inverse of encode_traced_shard; also false when the trace names
// a different shard than the report.
[[nodiscard]] bool decode_traced_shard(std::string_view bytes,
                                       ProviderReport* report,
                                       obs::ShardTrace* trace);

// FNV-1a fingerprint over every RunnerOptions field that can change a
// shard report's bytes (vantage-point budget, suite toggles, attempt
// counts, fault profile, speed-test configuration). Purely presentational
// or scheduling options never feed this. One of the six ShardKey fields.
[[nodiscard]] std::uint64_t runner_options_fingerprint(
    const RunnerOptions& options);

// --- scaled census codec -----------------------------------------------------
// The scaled campaign's per-shard artifact is a ScaledShardCensus (defined
// in core/parallel_campaign.h) — a handful of counts and a fingerprint,
// encoded under the same strict-decode discipline.

struct ScaledShardCensus;

inline constexpr std::uint32_t kShardCensusFormatVersion = 1;

[[nodiscard]] std::string encode_shard_census(const ScaledShardCensus& census);
[[nodiscard]] bool decode_shard_census(std::string_view bytes,
                                       ScaledShardCensus* out);

}  // namespace vpna::core
