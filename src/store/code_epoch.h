// The code epoch: a build-stamped constant folded into every artifact
// cache key.
//
// Caching a shard is sound because a shard is a pure function of its key
// — (code epoch, payload format, catalog entry fingerprint, shard seed,
// fault profile, capacity profile, options fingerprint). The first field
// is the one the machine cannot derive: *which implementation* of that
// pure function produced the artifact. Any change that can alter a cached
// artifact's bytes MUST bump kCodeEpoch, which cleanly orphans every
// artifact written by older code (they simply stop being addressed; no
// migration, no invalidation scan).
//
// Policy:
//  - Bump on any payload-affecting change, however small: runner logic,
//    protocol behaviour, fault plans, catalog construction, the codecs.
//    When in doubt, bump: a stale hit is a silent wrong answer, a
//    spurious miss is one recompute.
//  - Trace content is cached payload too: a traced shard's artifact holds
//    its ShardTrace (events, args, metrics). So a change that alters what
//    a traced shard records — a span, an arg, a counter, a histogram
//    bucket — also bumps kCodeEpoch. One version number covers both; the
//    golden pins (ParallelCampaign.DefaultCampaignMatchesGoldenFingerprint
//    for the payload, ParallelCampaign.TracedSubsetMatchesGoldenTracePin
//    for the trace) fail until the bump and the re-pin land together.
//  - Never bump for wall-clock telemetry (status, profiling, manifest
//    provenance, scheduling metrics) — none of it is in an artifact.
//  - Each codec carries its own format version (core::
//    kShardReportFormatVersion, obs::kShardTraceFormatVersion, ...)
//    checked at decode time, so a codec change is caught even if an epoch
//    bump is forgotten — it surfaces as a decode failure (treated as a
//    miss), never as a wrong payload.
#pragma once

#include <cstdint>

namespace vpna::store {

inline constexpr std::uint32_t kCodeEpoch = 1;

}  // namespace vpna::store
