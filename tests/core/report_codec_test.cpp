// Shard-report and shard-trace codecs: randomized round-trip fuzzing (the
// cache soundness contract — encode(decode(encode(r))) must be
// byte-identical to encode(r) for arbitrary report and trace contents,
// doubles bit-exact, optionals and empty vectors included) plus
// strict-decode rejection of malformed bytes. The whole suite runs under
// the ASan/UBSan CI lanes, so a decoder overread on truncated or mutated
// input is a hard failure here.
#include "core/report_codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/parallel_campaign.h"
#include "obs/trace_codec.h"
#include "util/rng.h"

namespace vpna {
namespace {

std::string random_string(util::Rng& rng, std::size_t max_len) {
  const auto len = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    out += static_cast<char>(rng.uniform_int(0, 255));
  return out;
}

// Doubles with teeth: specials (NaN, infinities, signed zero, denormal)
// drawn often enough that a printf-style lossy encoding would be caught.
double random_double(util::Rng& rng) {
  switch (rng.uniform_int(0, 9)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return std::numeric_limits<double>::infinity();
    case 2:
      return -std::numeric_limits<double>::infinity();
    case 3:
      return -0.0;
    case 4:
      return std::numeric_limits<double>::denorm_min();
    default:
      return static_cast<double>(rng.uniform_int(-1'000'000, 1'000'000)) /
             997.0;
  }
}

bool random_bool(util::Rng& rng) { return rng.uniform_int(0, 1) == 1; }

std::int32_t random_i32(util::Rng& rng) {
  return static_cast<std::int32_t>(
      rng.uniform_int(std::numeric_limits<std::int32_t>::min(),
                      std::numeric_limits<std::int32_t>::max()));
}

netsim::IpAddr random_addr(util::Rng& rng) {
  if (random_bool(rng)) {
    std::array<std::uint8_t, 16> v6{};
    for (auto& b : v6) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    return netsim::IpAddr::v6(v6);
  }
  return netsim::IpAddr::v4(
      static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
      static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
      static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
      static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
}

transport::Error random_error(util::Rng& rng) {
  transport::Error e;
  e.kind = static_cast<transport::ErrorKind>(rng.uniform_int(
      0, static_cast<std::int64_t>(transport::ErrorKind::kRedirectLimit)));
  e.status = static_cast<netsim::TransactStatus>(rng.uniform_int(
      0, static_cast<std::int64_t>(netsim::TransactStatus::kTtlExpired)));
  e.code = static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff));
  return e;
}

core::VantagePointReport random_vantage_point(util::Rng& rng) {
  core::VantagePointReport vp;
  vp.provider = random_string(rng, 24);
  vp.vantage_id = random_string(rng, 24);
  vp.advertised_country = random_string(rng, 4);
  vp.advertised_city = random_string(rng, 16);
  vp.egress_addr = random_addr(rng);
  vp.connected = random_bool(rng);

  vp.degradation.degraded = random_bool(rng);
  vp.degradation.stage = random_string(rng, 12);
  vp.degradation.error = random_error(rng);
  vp.degradation.attempts = random_i32(rng);
  vp.degradation.faults_seen = rng.next();

  vp.metadata.routing_table = random_string(rng, 64);
  vp.metadata.dns_resolvers.resize(
      static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (auto& s : vp.metadata.dns_resolvers) s = random_string(rng, 20);
  vp.metadata.interfaces.resize(
      static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (auto& s : vp.metadata.interfaces) s = random_string(rng, 20);

  vp.dns_manipulation.names_tested = random_i32(rng);
  vp.dns_manipulation.mismatches.resize(
      static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (auto& m : vp.dns_manipulation.mismatches) {
    m.hostname = random_string(rng, 20);
    m.via_default = random_string(rng, 20);
    m.via_google = random_string(rng, 20);
    m.default_owner = random_string(rng, 20);
    m.google_owner = random_string(rng, 20);
    m.suspicious = random_bool(rng);
  }

  vp.dom_collection.pages.resize(
      static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (auto& p : vp.dom_collection.pages) {
    p.hostname = random_string(rng, 20);
    p.load_ok = random_bool(rng);
    p.redirect = static_cast<core::RedirectClass>(rng.uniform_int(
        0, static_cast<std::int64_t>(core::RedirectClass::kUnrelated)));
    p.final_host = random_string(rng, 20);
    p.dom_matches_groundtruth = random_bool(rng);
    p.unexpected_request_urls.resize(
        static_cast<std::size_t>(rng.uniform_int(0, 2)));
    for (auto& u : p.unexpected_request_urls) u = random_string(rng, 40);
  }

  vp.tls.hosts.resize(static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (auto& h : vp.tls.hosts) {
    h.hostname = random_string(rng, 20);
    h.handshake_ok = random_bool(rng);
    h.chain_valid = random_bool(rng);
    h.fingerprint_matches = random_bool(rng);
    h.presented_issuer = random_string(rng, 20);
    h.http_status = random_i32(rng);
    h.upgraded_to_https = random_bool(rng);
    h.upgrade_stripped = random_bool(rng);
    h.blocked_403 = random_bool(rng);
    h.empty_200 = random_bool(rng);
  }

  vp.recursive_origin.resolved = random_bool(rng);
  vp.recursive_origin.tag = random_string(rng, 16);
  if (random_bool(rng)) vp.recursive_origin.resolver_seen = random_addr(rng);
  vp.recursive_origin.resolver_owner = random_string(rng, 16);

  vp.pings.targets.resize(static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (auto& t : vp.pings.targets) {
    t.name = random_string(rng, 16);
    t.addr = random_addr(rng);
    if (random_bool(rng)) t.rtt_ms = random_double(rng);
  }
  vp.pings.root_traceroute.resize(
      static_cast<std::size_t>(rng.uniform_int(0, 3)));
  for (auto& h : vp.pings.root_traceroute) {
    h.ttl = random_i32(rng);
    if (random_bool(rng)) h.router = random_addr(rng);
    h.rtt_ms = random_double(rng);
  }

  vp.geo_api.answered = random_bool(rng);
  vp.geo_api.country_code = random_string(rng, 4);
  vp.geo_api.city = random_string(rng, 16);

  vp.proxy.request_succeeded = random_bool(rng);
  vp.proxy.proxy_detected = random_bool(rng);
  vp.proxy.headers_added = random_bool(rng);
  vp.proxy.headers_rewritten = random_bool(rng);
  vp.proxy.sent = random_string(rng, 60);
  vp.proxy.received = random_string(rng, 60);

  vp.dns_leak.queries_issued = random_i32(rng);
  vp.dns_leak.plaintext_dns_on_physical_interface = random_i32(rng);
  vp.dns_leak.queries_failed = random_i32(rng);
  vp.dns_leak.last_error = random_error(rng);

  vp.ipv6_leak.attempts = random_i32(rng);
  vp.ipv6_leak.v6_packets_on_physical_interface = random_i32(rng);
  vp.ipv6_leak.v6_connections_succeeded_outside_tunnel = random_i32(rng);
  vp.ipv6_leak.lookup_failures = random_i32(rng);
  vp.ipv6_leak.connect_failures = random_i32(rng);
  vp.ipv6_leak.last_error = random_error(rng);

  vp.tunnel_failure.failure_induced = random_bool(rng);
  vp.tunnel_failure.window_seconds = random_double(rng);
  vp.tunnel_failure.probes_sent = random_i32(rng);
  vp.tunnel_failure.probes_escaped_clear = random_i32(rng);
  vp.tunnel_failure.probes_failed = random_i32(rng);
  vp.tunnel_failure.last_probe_error = random_error(rng);
  vp.tunnel_failure.final_state = static_cast<vpn::ClientState>(rng.uniform_int(
      0, static_cast<std::int64_t>(vpn::ClientState::kTunnelFailedOpen)));

  vp.pcap.packets_scanned = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
  vp.pcap.unexpected_inbound_dns = random_i32(rng);
  vp.pcap.unattributed_outbound_dns = random_i32(rng);

  vp.speed_test.ran = random_bool(rng);
  vp.speed_test.goodput_mbps = random_double(rng);
  vp.speed_test.base_rtt_ms = random_double(rng);
  vp.speed_test.min_rtt_ms = random_double(rng);
  vp.speed_test.queue_delay_mean_ms = random_double(rng);
  vp.speed_test.queue_delay_max_ms = random_double(rng);
  vp.speed_test.queue_delay_p50_ms = random_double(rng);
  vp.speed_test.queue_delay_p90_ms = random_double(rng);
  vp.speed_test.queue_delay_p99_ms = random_double(rng);
  vp.speed_test.loss_rate = random_double(rng);
  vp.speed_test.ecn_rate = random_double(rng);
  vp.speed_test.sent_packets = rng.next();
  vp.speed_test.delivered_packets = rng.next();
  vp.speed_test.queue_drops = rng.next();
  vp.speed_test.fault_drops = rng.next();
  vp.speed_test.ecn_marks = rng.next();
  vp.speed_test.cwnd_decreases = random_i32(rng);
  return vp;
}

core::ProviderReport random_report(util::Rng& rng) {
  core::ProviderReport r;
  r.provider = random_string(rng, 32);
  r.subscription = static_cast<vpn::SubscriptionType>(rng.uniform_int(
      0, static_cast<std::int64_t>(vpn::SubscriptionType::kFree)));
  r.has_custom_client = random_bool(rng);
  r.quarantined = random_bool(rng);
  r.vantage_points.resize(static_cast<std::size_t>(rng.uniform_int(0, 4)));
  for (auto& vp : r.vantage_points) vp = random_vantage_point(rng);
  return r;
}

// A trace with teeth: nested spans (some left open), instants, args,
// arbitrary timestamps, and a registry holding counters, special-valued
// gauges, histograms and volatile marks, all built through the public API.
obs::ShardTrace random_trace(util::Rng& rng) {
  obs::TraceRecorder recorder(obs::TraceConfig{.enabled = true});
  std::vector<std::uint32_t> open;
  const auto events = rng.uniform_int(0, 24);
  for (std::int64_t e = 0; e < events; ++e) {
    switch (rng.uniform_int(0, 3)) {
      case 0:
      case 1:
        open.push_back(recorder.begin_span(random_string(rng, 12),
                                           random_string(rng, 8)));
        break;
      case 2: {
        const auto id = recorder.add_instant(random_string(rng, 12),
                                             random_string(rng, 8));
        recorder.add_arg(id, random_string(rng, 6), random_string(rng, 10));
        break;
      }
      default:
        if (!open.empty()) {
          recorder.end_span(open.back());
          open.pop_back();
        }
    }
    if (!open.empty() && random_bool(rng))
      recorder.add_arg(open.back(), random_string(rng, 6),
                       random_string(rng, 10));
  }
  obs::ShardTrace trace;
  trace.shard = random_string(rng, 16);
  trace.events = recorder.take_events();
  for (auto& ev : trace.events) {
    ev.sim_ts_us = rng.uniform_int(-1'000'000, 1'000'000'000);
    if (ev.sim_dur_us > 0) ev.sim_dur_us = rng.uniform_int(0, 1'000'000);
  }
  // Specials a printf-style encoding would lose, in every trace.
  trace.metrics.set_gauge("gauge.nan", std::numeric_limits<double>::quiet_NaN());
  trace.metrics.set_gauge("gauge.negzero", -0.0);
  const auto metrics = rng.uniform_int(0, 12);
  for (std::int64_t m = 0; m < metrics; ++m) {
    const std::string name = random_string(rng, 10);
    switch (rng.uniform_int(0, 3)) {
      case 0:
        trace.metrics.add(name, rng.next());
        break;
      case 1:
        trace.metrics.set_gauge(name, random_double(rng));
        break;
      case 2:
        for (int o = 0; o < 3; ++o)
          trace.metrics.observe(name, random_double(rng), obs::kRttBucketsMs);
        break;
      default:
        trace.metrics.set_volatile(name);
    }
  }
  return trace;
}

class ReportCodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReportCodecFuzz, EncodeDecodeEncodeIsByteIdentical) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    const auto report = random_report(rng);
    const std::string first = core::encode_provider_report(report);
    core::ProviderReport decoded;
    ASSERT_TRUE(core::decode_provider_report(first, &decoded))
        << "iteration " << i;
    EXPECT_EQ(decoded.provider, report.provider);
    ASSERT_EQ(decoded.vantage_points.size(), report.vantage_points.size());
    const std::string second = core::encode_provider_report(decoded);
    ASSERT_EQ(first, second) << "iteration " << i;
  }
}

TEST_P(ReportCodecFuzz, TraceEncodeDecodeEncodeIsByteIdentical) {
  util::Rng rng(GetParam() ^ 0x7ace);
  for (int i = 0; i < 40; ++i) {
    const auto trace = random_trace(rng);
    const std::string first = obs::encode_shard_trace(trace);
    obs::ShardTrace decoded;
    ASSERT_TRUE(obs::decode_shard_trace(first, &decoded)) << "iteration " << i;
    EXPECT_EQ(decoded.shard, trace.shard);
    ASSERT_EQ(decoded.events.size(), trace.events.size());
    EXPECT_EQ(decoded.metrics.render_text(), trace.metrics.render_text());
    EXPECT_TRUE(std::isnan(*decoded.metrics.gauge("gauge.nan")));
    EXPECT_TRUE(std::signbit(*decoded.metrics.gauge("gauge.negzero")));
    ASSERT_EQ(obs::encode_shard_trace(decoded), first) << "iteration " << i;

    // The traced shard artifact nests both codecs.
    const auto report = random_report(rng);
    decoded.shard = report.provider;
    const std::string shard = core::encode_traced_shard(report, decoded);
    core::ProviderReport report_out;
    obs::ShardTrace trace_out;
    ASSERT_TRUE(core::decode_traced_shard(shard, &report_out, &trace_out));
    EXPECT_EQ(core::encode_traced_shard(report_out, trace_out), shard);
  }
}

TEST_P(ReportCodecFuzz, TruncationAtEveryPrefixIsRejected) {
  util::Rng rng(GetParam() ^ 0x7717ull);
  const auto report = random_report(rng);
  const std::string valid = core::encode_provider_report(report);
  core::ProviderReport out;
  for (std::size_t len = 0; len < valid.size(); ++len)
    EXPECT_FALSE(core::decode_provider_report(valid.substr(0, len), &out))
        << "prefix of " << len << " bytes decoded";

  auto trace = random_trace(rng);
  const std::string trace_bytes = obs::encode_shard_trace(trace);
  obs::ShardTrace trace_out;
  for (std::size_t len = 0; len < trace_bytes.size(); ++len)
    EXPECT_FALSE(obs::decode_shard_trace(trace_bytes.substr(0, len), &trace_out))
        << "trace prefix of " << len << " bytes decoded";
  trace.shard = report.provider;
  const std::string shard = core::encode_traced_shard(report, trace);
  for (std::size_t len = 0; len < shard.size(); len += 7)
    EXPECT_FALSE(core::decode_traced_shard(shard.substr(0, len), &out,
                                           &trace_out))
        << "traced shard prefix of " << len << " bytes decoded";
}

TEST_P(ReportCodecFuzz, TrailingBytesAreRejected) {
  util::Rng rng(GetParam() + 17);
  const auto report = random_report(rng);
  std::string bytes = core::encode_provider_report(report);
  bytes.push_back('\0');
  core::ProviderReport out;
  EXPECT_FALSE(core::decode_provider_report(bytes, &out));

  auto trace = random_trace(rng);
  std::string trace_bytes = obs::encode_shard_trace(trace);
  trace_bytes.push_back('\0');
  obs::ShardTrace trace_out;
  EXPECT_FALSE(obs::decode_shard_trace(trace_bytes, &trace_out));
  trace.shard = report.provider;
  std::string shard = core::encode_traced_shard(report, trace);
  shard.push_back('\0');
  EXPECT_FALSE(core::decode_traced_shard(shard, &out, &trace_out));
}

TEST_P(ReportCodecFuzz, MutatedBytesNeverCrash) {
  util::Rng rng(GetParam() ^ 0xfeedull);
  const auto report = random_report(rng);
  const std::string valid = core::encode_provider_report(report);
  for (int i = 0; i < 300; ++i) {
    std::string bytes = valid;
    const int edits = static_cast<int>(rng.uniform_int(1, 4));
    for (int e = 0; e < edits && !bytes.empty(); ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          bytes[pos] = static_cast<char>(rng.uniform_int(0, 255));
          break;
        case 1:
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                       static_cast<char>(rng.uniform_int(0, 255)));
          break;
        default:
          bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos));
          break;
      }
    }
    core::ProviderReport out;
    // Decoding may succeed (a mutation can land in string content) — but a
    // successful decode must re-encode to exactly the mutated input.
    if (core::decode_provider_report(bytes, &out)) {
      EXPECT_EQ(core::encode_provider_report(out), bytes);
    }
  }
}

TEST_P(ReportCodecFuzz, MutatedTraceBytesNeverCrash) {
  util::Rng rng(GetParam() ^ 0xbeefull);
  const std::string valid = obs::encode_shard_trace(random_trace(rng));
  for (int i = 0; i < 300; ++i) {
    std::string bytes = valid;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] = static_cast<char>(rng.uniform_int(0, 255));
    obs::ShardTrace out;
    // Strictness: whatever still decodes re-encodes to the same bytes.
    if (obs::decode_shard_trace(bytes, &out)) {
      EXPECT_EQ(obs::encode_shard_trace(out), bytes);
    }
  }
}

TEST_P(ReportCodecFuzz, RandomGarbageNeverCrash) {
  util::Rng rng(GetParam() + 0xabcdull);
  for (int i = 0; i < 200; ++i) {
    const auto len =
        static_cast<std::size_t>(rng.uniform_int(0, 600));
    std::string garbage;
    garbage.reserve(len);
    for (std::size_t b = 0; b < len; ++b)
      garbage += static_cast<char>(rng.uniform_int(0, 255));
    core::ProviderReport out;
    (void)core::decode_provider_report(garbage, &out);
    core::ScaledShardCensus census;
    (void)core::decode_shard_census(garbage, &census);
    obs::ShardTrace trace;
    (void)obs::decode_shard_trace(garbage, &trace);
    (void)core::decode_traced_shard(garbage, &out, &trace);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReportCodecFuzz,
                         ::testing::Values(1ull, 20181031ull,
                                           0x9e3779b97f4a7c15ull));

TEST(ReportCodec, VersionMismatchIsRejected) {
  core::ProviderReport report;
  report.provider = "X";
  std::string bytes = core::encode_provider_report(report);
  bytes[0] = static_cast<char>(bytes[0] + 1);  // little-endian version word
  core::ProviderReport out;
  EXPECT_FALSE(core::decode_provider_report(bytes, &out));
}

TEST(ReportCodec, TraceVersionMismatchIsRejected) {
  obs::ShardTrace trace;
  trace.shard = "X";
  std::string bytes = obs::encode_shard_trace(trace);
  obs::ShardTrace out;
  ASSERT_TRUE(obs::decode_shard_trace(bytes, &out));
  bytes[0] = static_cast<char>(bytes[0] + 1);  // little-endian version word
  EXPECT_FALSE(obs::decode_shard_trace(bytes, &out));

  core::ProviderReport report;
  report.provider = "X";
  std::string shard = core::encode_traced_shard(report, trace);
  core::ProviderReport report_out;
  ASSERT_TRUE(core::decode_traced_shard(shard, &report_out, &out));
  shard[0] = static_cast<char>(shard[0] + 1);
  EXPECT_FALSE(core::decode_traced_shard(shard, &report_out, &out));
  // An untraced artifact is not a traced one, nor the reverse.
  EXPECT_FALSE(core::decode_traced_shard(core::encode_provider_report(report),
                                         &report_out, &out));
  EXPECT_FALSE(core::decode_provider_report(
      core::encode_traced_shard(report, trace), &report_out));
}

TEST(ReportCodec, TraceRejectsBadPhaseByteAndForeignShardName) {
  obs::ShardTrace trace;
  trace.shard = "s";
  obs::TraceEvent ev;
  ev.id = 1;
  ev.phase = 'i';
  ev.name = "n";
  trace.events = {ev};
  std::string bytes = obs::encode_shard_trace(trace);
  obs::ShardTrace out;
  ASSERT_TRUE(obs::decode_shard_trace(bytes, &out));
  // version u32, shard str (4 + 1), event count u32, id/parent/depth u32s.
  const std::size_t phase_at = 4 + 5 + 4 + 12;
  ASSERT_EQ(bytes[phase_at], 'i');
  bytes[phase_at] = 'B';
  EXPECT_FALSE(obs::decode_shard_trace(bytes, &out));

  core::ProviderReport report;
  report.provider = "not-s";
  core::ProviderReport report_out;
  EXPECT_FALSE(core::decode_traced_shard(
      core::encode_traced_shard(report, trace), &report_out, &out));
}

TEST(ReportCodec, CensusRoundTripsAndRejectsMalformedBytes) {
  core::ScaledShardCensus census;
  census.provider = "ScaledVPN-0042";
  census.vantage_points = 7;
  census.hosts = 19;
  census.clients = 4;
  census.modeled_subscribers = 123456;
  census.address_fingerprint = 0x0123456789abcdefull;
  const std::string bytes = core::encode_shard_census(census);
  core::ScaledShardCensus out;
  ASSERT_TRUE(core::decode_shard_census(bytes, &out));
  EXPECT_EQ(out.provider, census.provider);
  EXPECT_EQ(out.vantage_points, census.vantage_points);
  EXPECT_EQ(out.hosts, census.hosts);
  EXPECT_EQ(out.clients, census.clients);
  EXPECT_EQ(out.modeled_subscribers, census.modeled_subscribers);
  EXPECT_EQ(out.address_fingerprint, census.address_fingerprint);
  EXPECT_EQ(core::encode_shard_census(out), bytes);

  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_FALSE(core::decode_shard_census(bytes.substr(0, len), &out));
  std::string trailing = bytes;
  trailing.push_back('\0');
  EXPECT_FALSE(core::decode_shard_census(trailing, &out));
  std::string wrong_version = bytes;
  wrong_version[0] = static_cast<char>(wrong_version[0] + 1);
  EXPECT_FALSE(core::decode_shard_census(wrong_version, &out));
}

TEST(ReportCodec, RunnerOptionsFingerprintTracksPayloadAffectingOptions) {
  const core::RunnerOptions base;
  const auto fp = core::runner_options_fingerprint(base);
  EXPECT_EQ(fp, core::runner_options_fingerprint(base));  // stable

  auto vps = base;
  vps.vantage_points_per_provider += 1;
  auto web = base;
  web.run_web_suites = !base.run_web_suites;
  auto window = base;
  window.tunnel_failure_window_s += 0.25;
  auto attempts = base;
  attempts.connect_attempts += 1;
  auto faults = base;
  faults.fault_profile = faults::FaultProfile::kFlaky;
  auto speed = base;
  speed.speed_test = !base.speed_test;
  for (const auto& changed : {vps, web, window, attempts, faults, speed})
    EXPECT_NE(core::runner_options_fingerprint(changed), fp);
}

}  // namespace
}  // namespace vpna
