// Benchmark workload binary: runs one workload through the library's public API and
// prints one JSON object of raw measurements as its last stdout line.
// perfbench/run.py builds this binary, turns the samples into the metrics
// named in BENCHMARK.json and applies the correctness gates; run it through
// run.py rather than directly.
//
//   perfbench_workloads --workload audit|census|replay --seed N --seconds S
//                    --trace 0|1 --work-dir DIR
//
// --trace 0 times whole passes with no instrumentation. --trace 1 repeats
// the workload's shard sequence at the base seed with wall-clock spans
// around every public call into a layer (see spans.h), alternating each
// traced pass with an untraced one so the tracing overhead is measured too.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/report_aggregation.h"
#include "core/parallel_campaign.h"
#include "core/report_codec.h"
#include "core/runner.h"
#include "dns/client.h"
#include "ecosystem/evaluated.h"
#include "ecosystem/scale.h"
#include "ecosystem/testbed.h"
#include "faults/profile.h"
#include "http/client.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spans.h"
#include "store/artifact_store.h"
#include "tlssim/handshake.h"
#include "transport/policy.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/task_pool.h"
#include "vpn/client.h"

using namespace vpna;
using perfbench::SpanScope;
using perfbench::SpanTable;
using perfbench::Tracer;

namespace {

using Clock = std::chrono::steady_clock;

// The paper-scale seed whose payload fingerprints run.py pins.
constexpr std::uint64_t kGoldenSeed = 20181031;
// Set-up repetitions per run (the median is reported); the replay fill
// is a whole cold campaign, so it repeats fewer times.
constexpr std::size_t kSetupReps = 9;
constexpr std::size_t kReplaySetupReps = 3;
// Routing-plane builds per audit set-up rep (one build takes a few ms).
constexpr std::size_t kPlaneBuildsPerRep = 10;
// Passes always measured, however short the window.
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinTracedPairs = 2;
constexpr std::size_t kCensusProviders = 4096;
constexpr std::uint32_t kCensusSubscribers = 1000;
constexpr std::size_t kCensusJobs = 4;
// Shards per census pass recomputed one by one as the payload reference.
constexpr std::size_t kCensusSampledShards = 128;
constexpr const char* kProbeDomain = "daily-courier-news.com";

const char* const kSuites[] = {
    "ground_truth", "tls",           "dom_collection", "dns_manipulation",
    "proxy_detection", "recursive_origin", "pings",     "geo_api",
    "dns_leak",     "ipv6_leak",     "tunnel_failure", "pcap_scan",
};

// Existing obs counters read after a traced pass, and the per-layer metric
// name each one is reported under.
const std::pair<const char*, const char*> kCounters[] = {
    {"dns.lookups", "dns.lookups"},
    {"http.fetches", "http.fetches"},
    {"http.exchanges", "http.exchanges"},
    {"http.page_loads", "http.page_loads"},
    {"tls.handshakes", "tlssim.handshakes"},
    {"transport.flows", "transport.flows"},
    {"transport.exchanges", "transport.exchanges"},
    {"transport.retries", "transport.retries"},
    {"transport.failures", "transport.failures"},
    {"net.via_tunnel", "netsim.via_tunnel"},
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::string hex64(std::uint64_t v) {
  return util::format("%016llx", static_cast<unsigned long long>(v));
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// --- JSON output -------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return util::format("%.9g", v);
}

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& integer(std::string_view key, std::uint64_t v) {
    return raw(key, util::format("%llu", static_cast<unsigned long long>(v)));
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, "\"" + obs::json_escape(v) + "\"");
  }
  JsonObject& nums(std::string_view key, const std::vector<double>& v) {
    std::string arr = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      arr += (i ? "," : "") + json_number(v[i]);
    return raw(key, arr + "]");
  }
  JsonObject& strs(std::string_view key, const std::vector<std::string>& v) {
    std::string arr = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      arr += std::string(i ? "," : "") + "\"" + obs::json_escape(v[i]) + "\"";
    return raw(key, arr + "]");
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string done() const {
    return body_.empty() ? "{}" : body_ + "}";
  }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& objects) {
  std::string out = "[";
  for (std::size_t i = 0; i < objects.size(); ++i)
    out += (i ? "," : "") + objects[i];
  return out + "]";
}

// --- shared workload pieces --------------------------------------------------

// The default full_campaign configuration: 3 vantage points per provider,
// faults off, two shard attempts, cache off.
core::CampaignOptions audit_options(std::size_t jobs) {
  core::CampaignOptions o;
  o.runner.vantage_points_per_provider = 3;
  o.jobs = jobs;
  o.shard_attempts = 2;
  return o;
}

std::vector<std::string> evaluated_names() {
  std::vector<std::string> out;
  for (const auto& ep : ecosystem::evaluated_providers())
    out.push_back(ep.spec.name);
  return out;
}

std::uint64_t payload_fp(const core::CampaignReport& report) {
  return util::fnv1a(analysis::serialize_campaign_payload(report));
}

std::size_t failed_shards(const core::CampaignReport& r) {
  std::size_t n = r.failed_providers.size() + r.crash_quarantined_providers.size();
  for (const auto& p : r.providers)
    if (p.quarantined) ++n;
  return n;
}

// One measured pass of a trace-0 run.
struct Pass {
  std::uint64_t seed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t shards = 0;
  std::size_t failed = 0;
  std::size_t rss_kb = 0;
  std::uint64_t fp = 0;
  // Workload-specific reference facts, filled after the window.
  JsonObject extra;
};

// Runs `pass(i)` for pass i = 0, 1, ... while the next pass (estimated by
// the median so far) still fits in `seconds`; at least kMinPasses.
std::vector<Pass> measure_window(double seconds,
                                 const std::function<Pass(std::size_t)>& pass) {
  std::vector<Pass> out;
  std::vector<double> walls;
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i >= kMinPasses && seconds_since(t0) + median(walls) > seconds) break;
    out.push_back(pass(i));
    walls.push_back(out.back().wall_s);
  }
  return out;
}

// Resets the kernel's resident-set high-water mark (VmHWM) to the current
// RSS, so the next read gives the peak of what ran in between. Returns
// false where /proc/self/clear_refs is not writable.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// Times `fn` under wall clock and process CPU (all threads), and records
// the process's peak RSS during it (0 when the peak cannot be reset).
template <typename Fn>
void time_pass(Pass& p, Fn&& fn) {
  const bool hwm = reset_peak_rss();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  fn();
  p.wall_s = seconds_since(t0);
  p.cpu_s = cpu_seconds() - cpu0;
  p.rss_kb = hwm ? util::peak_rss_kb() : 0;
}

std::string passes_json(const std::vector<Pass>& passes) {
  std::vector<std::string> objs;
  for (const auto& p : passes) {
    JsonObject o = p.extra;
    o.integer("seed", p.seed)
        .num("wall_s", p.wall_s)
        .num("cpu_s", p.cpu_s)
        .integer("shards", p.shards)
        .integer("failed", p.failed)
        .integer("rss_kb", p.rss_kb)
        .str("fp", hex64(p.fp));
    objs.push_back(o.done());
  }
  return json_array(objs);
}

// --- the traced audit shard: runner order, public calls only -----------------

// Deterministic tallies a traced pass gathers beside its spans.
struct Tally {
  std::uint64_t shards_built = 0;
  std::uint64_t hosts = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t connect_attempts = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t codec_shards = 0;
  std::uint64_t codec_bytes = 0;
  std::uint64_t store_consults = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

core::MetadataSnapshot collect_metadata(const netsim::Host& host) {
  core::MetadataSnapshot meta;
  meta.routing_table = host.routes().dump();
  for (const auto& server : host.dns_servers())
    meta.dns_resolvers.push_back(server.str());
  for (const auto& iface : host.interfaces()) {
    std::string desc = iface.name;
    if (iface.addr4) desc += " inet " + iface.addr4->str();
    if (iface.addr6) desc += " inet6 " + iface.addr6->str();
    if (!iface.up) desc += " (down)";
    meta.interfaces.push_back(std::move(desc));
  }
  return meta;
}

// Vantage-point choice of TestRunner::run_provider: country diversity
// first, then catalog order.
std::vector<const vpn::DeployedVantagePoint*> select_vantage_points(
    const vpn::DeployedProvider& provider, std::size_t limit) {
  std::vector<const vpn::DeployedVantagePoint*> selected;
  if (limit == 0 || provider.vantage_points.size() <= limit) {
    for (const auto& vp : provider.vantage_points) selected.push_back(&vp);
    return selected;
  }
  std::set<std::string> countries;
  for (const auto& vp : provider.vantage_points) {
    if (selected.size() >= limit) break;
    if (countries.insert(vp.spec.advertised_country).second)
      selected.push_back(&vp);
  }
  for (const auto& vp : provider.vantage_points) {
    if (selected.size() >= limit) break;
    if (std::find(selected.begin(), selected.end(), &vp) == selected.end())
      selected.push_back(&vp);
  }
  return selected;
}

template <typename Fn>
auto suite(Tracer* t, const char* name, Fn&& fn) {
  SpanScope span(t, std::string("core.") + name);
  return fn();
}

core::VantagePointReport traced_vantage_point(
    ecosystem::Testbed& tb, const vpn::DeployedProvider& provider,
    const vpn::DeployedVantagePoint& vp, std::uint32_t session,
    const core::RunnerOptions& options, const core::GroundTruth& truth,
    Tracer* t, Tally& tally) {
  core::VantagePointReport report;
  report.provider = provider.spec.name;
  report.vantage_id = vp.spec.id;
  report.advertised_country = vp.spec.advertised_country;
  report.advertised_city = vp.spec.advertised_city;
  report.egress_addr = vp.addr;

  auto& world = *tb.world;
  auto& client = *tb.client;
  client.capture().clear();

  vpn::VpnClient vpn_client(world.network(), client, provider.spec, session);
  vpn::ConnectResult connect;
  for (int attempt = 0; attempt < std::max(1, options.connect_attempts);
       ++attempt) {
    ++tally.connect_attempts;
    {
      SpanScope span(t, "vpn.connect");
      connect = vpn_client.connect(vp.addr);
    }
    if (connect.connected) break;
  }
  report.connected = connect.connected;
  if (!connect.connected) {
    ++tally.connect_failures;
    if (options.fault_profile != faults::FaultProfile::kOff)
      throw std::runtime_error("perfbench: fault profiles are out of scope");
    return report;
  }

  report.metadata = collect_metadata(client);
  report.dns_manipulation = suite(t, "dns_manipulation", [&] {
    return core::run_dns_manipulation_test(world, client);
  });
  if (options.run_web_suites) {
    report.dom_collection = suite(t, "dom_collection", [&] {
      return core::run_dom_collection_test(world, client, truth);
    });
    report.tls =
        suite(t, "tls", [&] { return core::run_tls_test(world, client, truth); });
  }
  report.proxy = suite(t, "proxy_detection", [&] {
    return core::run_proxy_detection_test(world, client);
  });
  report.recursive_origin = suite(t, "recursive_origin", [&] {
    return core::run_recursive_dns_origin_test(
        world, client,
        util::format("t%u-%s-%s", session, provider.spec.name.c_str(),
                     vp.spec.id.c_str()));
  });
  report.pings = suite(t, "pings",
                       [&] { return core::run_ping_probe_test(world, client); });
  report.geo_api = suite(t, "geo_api",
                         [&] { return core::run_geo_api_test(world, client); });
  if (provider.spec.has_custom_client || !options.respect_client_model) {
    report.dns_leak = suite(t, "dns_leak",
                            [&] { return core::run_dns_leak_test(world, client); });
    report.ipv6_leak = suite(
        t, "ipv6_leak", [&] { return core::run_ipv6_leak_test(world, client); });
  }
  report.tunnel_failure = suite(t, "tunnel_failure", [&] {
    return core::run_tunnel_failure_test(world, client, vpn_client,
                                         options.tunnel_failure_window_s);
  });
  report.pcap = suite(t, "pcap_scan", [&] { return core::run_pcap_scan(client); });
  if (options.speed_test)
    throw std::runtime_error("perfbench: the speed-test suite is out of scope");
  vpn_client.disconnect();
  return report;
}

// One provider shard as run_provider_shard runs it, rebuilt from public
// calls so each layer can carry a span. The caller opens the "shard" span.
core::ProviderReport traced_audit_shard(
    const std::string& name, std::uint64_t seed,
    const core::RunnerOptions& options,
    const std::shared_ptr<const netsim::RoutingPlane>& plane, Tracer* t,
    Tally& tally) {
  transport::ScopedSessionPolicy session_policy(
      faults::session_policy_for(options.fault_profile));
  ecosystem::Testbed tb;
  {
    SpanScope span(t, "ecosystem.build");
    tb = ecosystem::build_provider_shard(name, seed, plane,
                                         options.fault_profile,
                                         options.speed_test);
  }
  if (!tb.world) throw std::invalid_argument("perfbench: unknown provider " + name);
  ++tally.shards_built;
  tally.hosts += tb.world->host_count();
  tally.arena_bytes += tb.world->host_arena_used_bytes();

  core::TestRunner runner(tb, options);
  {
    SpanScope span(t, "core.ground_truth");
    runner.collect_ground_truth();
  }
  const auto* deployed = tb.provider(name);
  if (deployed == nullptr)
    throw std::runtime_error("perfbench: shard missing " + name);

  core::ProviderReport report;
  report.provider = name;
  report.subscription = deployed->spec.subscription;
  report.has_custom_client = deployed->spec.has_custom_client;
  std::uint32_t session = 1;
  for (const auto* vp :
       select_vantage_points(*deployed, options.vantage_points_per_provider))
    report.vantage_points.push_back(traced_vantage_point(
        tb, *deployed, *vp, session++, options, runner.ground_truth(), t, tally));
  return report;
}

// The merge ParallelCampaign::run ends with, for a payload comparison.
core::CampaignReport merged_report(std::uint64_t seed,
                                   std::vector<core::ProviderReport> providers) {
  core::CampaignReport report;
  report.seed = seed;
  report.providers = std::move(providers);
  for (const auto& p : report.providers)
    if (p.degraded()) report.degraded_providers.push_back(p.provider);
  return report;
}

// --- per-layer metrics from one traced pass ----------------------------------

using Metrics = std::map<std::string, double>;

double dur_median_scaled(const SpanTable& table, const std::string& name,
                         double scale) {
  const auto it = table.find(name);
  return it == table.end() ? 0.0 : median(it->second.durations_s) * scale;
}

double total_scaled(const SpanTable& table, const std::string& name,
                    double scale) {
  const auto it = table.find(name);
  return it == table.end() ? 0.0 : it->second.total_s * scale;
}

double calls(const SpanTable& table, const std::string& name) {
  const auto it = table.find(name);
  return it == table.end() ? 0.0 : static_cast<double>(it->second.durations_s.size());
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Metric names whose values are counts: a traced pass repeated at one seed
// must reproduce them exactly (run.py gates on it).
std::vector<std::string> count_metric_names() {
  std::vector<std::string> out = {
      "ecosystem.hosts_per_shard", "ecosystem.arena_bytes_per_host",
      "vpn.connect_attempts",      "vpn.connect_failures",
      "store.hit_ratio",           "store.bytes_read",
      "store.bytes_written",       "codec.bytes_per_shard",
  };
  for (const char* s : kSuites) out.push_back(std::string("core.") + s + "_calls");
  for (const auto& [counter, metric] : kCounters) out.emplace_back(metric);
  return out;
}

Metrics layer_metrics(const SpanTable& spans, const Tally& tally,
                      const std::map<std::string, std::uint64_t>& counters) {
  Metrics m;
  m["ecosystem.build_ms"] = dur_median_scaled(spans, "ecosystem.build", 1e3);
  m["ecosystem.hosts_per_shard"] = ratio(tally.hosts, tally.shards_built);
  m["ecosystem.arena_bytes_per_host"] = ratio(tally.arena_bytes, tally.hosts);

  std::vector<double> shard_ms;
  if (const auto it = spans.find("shard"); it != spans.end())
    for (double d : it->second.durations_s) shard_ms.push_back(d * 1e3);
  m["shard.ms_p50"] = percentile(shard_ms, 50);
  m["shard.ms_p95"] = percentile(shard_ms, 95);
  m["shard.ms_max"] = percentile(shard_ms, 100);

  for (const char* s : kSuites) {
    const std::string span = std::string("core.") + s;
    m[span + "_ms"] = total_scaled(spans, span, 1e3);
    m[span + "_calls"] = calls(spans, span);
  }
  const auto shard_it = spans.find("shard");
  m["core.shard_self_ms"] = shard_it == spans.end() ? 0.0 : shard_it->second.self_s * 1e3;

  m["vpn.connect_ms"] = total_scaled(spans, "vpn.connect", 1e3);
  m["vpn.connect_attempts"] = static_cast<double>(tally.connect_attempts);
  m["vpn.connect_failures"] = static_cast<double>(tally.connect_failures);

  for (const auto& [counter, metric] : kCounters) {
    const auto it = counters.find(counter);
    m[metric] = it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }

  m["store.fetch_us"] = dur_median_scaled(spans, "store.fetch", 1e6);
  m["store.put_us"] = dur_median_scaled(spans, "store.put", 1e6);
  m["store.hit_ratio"] = ratio(tally.store_hits, tally.store_consults);
  m["store.bytes_read"] = static_cast<double>(tally.bytes_read);
  m["store.bytes_written"] = static_cast<double>(tally.bytes_written);

  m["codec.decode_us"] = dur_median_scaled(spans, "codec.decode", 1e6);
  m["codec.encode_us"] = dur_median_scaled(spans, "codec.encode", 1e6);
  m["codec.bytes_per_shard"] = ratio(tally.codec_bytes, tally.codec_shards);

  m["analysis.serialize_ms"] = total_scaled(spans, "analysis.serialize", 1e3);
  return m;
}

std::map<std::string, std::uint64_t> read_counters(
    const std::vector<const obs::MetricsRegistry*>& registries) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [counter, metric] : kCounters) {
    std::uint64_t sum = 0;
    for (const auto* r : registries) sum += r->counter(counter);
    out[counter] = sum;
  }
  return out;
}

// --- direct layer calls: ns per operation --------------------------------

// Median ns/op over five batches of `n` calls. Each call is followed by a
// capture clear so the client's packet log stays bounded.
template <typename Op>
double ns_per_op(netsim::Host& client, std::size_t n, Op&& op) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      op();
      client.capture().clear();
    }
    batches.push_back(seconds_since(t0) * 1e9 / static_cast<double>(n));
  }
  return median(batches);
}

// Times single calls into the netsim, dns, http, tlssim and tunnel layers on
// one shard world built from the workload's seed. Every call is checked to
// succeed first, so a timing never describes a failing path.
Metrics micro_layers(std::uint64_t seed,
                     const std::shared_ptr<const netsim::RoutingPlane>& plane) {
  for (const auto& name : evaluated_names()) {
    auto tb = ecosystem::build_provider_shard(name, seed, plane);
    const auto* deployed = tb.provider(name);
    if (!tb.world || deployed == nullptr) continue;
    auto& world = *tb.world;
    auto& net = world.network();
    auto& client = *tb.client;
    const std::string url = std::string("http://") + kProbeDomain + "/";

    const auto lookup =
        dns::resolve_system(net, client, kProbeDomain, dns::RrType::kA);
    if (!lookup.ok() || lookup.addresses.empty() || world.anchors().empty())
      throw std::runtime_error("perfbench: probe world cannot resolve");
    const netsim::IpAddr site = lookup.addresses.front();
    netsim::Packet echo;
    echo.dst = world.anchors().front().addr;
    echo.proto = netsim::Proto::kIcmpEcho;
    http::HttpClient browser(net, client);
    if (!net.transact(client, echo).ok() || browser.fetch(url).status != 200 ||
        !tlssim::tls_handshake(net, client, site, kProbeDomain, world.ca_store())
             .completed())
      throw std::runtime_error("perfbench: probe call failed");
    client.capture().clear();

    Metrics m;
    m["netsim.transact_ns"] =
        ns_per_op(client, 20000, [&] { (void)net.transact(client, echo); });
    m["dns.resolve_ns"] = ns_per_op(client, 2000, [&] {
      (void)dns::resolve_system(net, client, kProbeDomain, dns::RrType::kA);
    });
    m["http.fetch_ns"] =
        ns_per_op(client, 1000, [&] { (void)browser.fetch(url); });
    m["http.page_load_ns"] =
        ns_per_op(client, 200, [&] { (void)browser.load_page(url); });
    m["tlssim.handshake_ns"] = ns_per_op(client, 2000, [&] {
      (void)tlssim::tls_handshake(net, client, site, kProbeDomain,
                                  world.ca_store());
    });

    for (const auto& vp : deployed->vantage_points) {
      vpn::VpnClient tunnel(net, client, deployed->spec);
      if (!tunnel.connect(vp.addr).connected) continue;
      if (browser.fetch(url).status != 200) {
        tunnel.disconnect();
        continue;
      }
      m["netsim.tunnel_fetch_ns"] =
          ns_per_op(client, 1000, [&] { (void)browser.fetch(url); });
      tunnel.disconnect();
      return m;
    }
  }
  throw std::runtime_error("perfbench: no provider could carry a tunneled fetch");
}

// --- workloads -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = kGoldenSeed;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;
};

// Result common to both modes.
JsonObject header(const Args& a, std::size_t jobs) {
  JsonObject o;
  o.str("workload", a.workload)
      .str("mode", a.trace ? "trace" : "time")
      .integer("seed", a.seed)
      .integer("jobs", jobs)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", compiler_id());
  return o;
}

template <typename Fn>
std::vector<double> setup_reps(std::size_t reps, Fn&& fn) {
  std::vector<double> out;
  for (std::size_t k = 0; k < reps; ++k) {
    const auto t0 = Clock::now();
    fn(k);
    out.push_back(seconds_since(t0));
  }
  return out;
}

// One traced/untraced pair of a trace-1 run.
struct TracedPair {
  double traced_s = 0.0;
  double untraced_s = 0.0;
  double untraced_cpu_s = 0.0;
  std::uint64_t traced_fp = 0;
  std::uint64_t untraced_fp = 0;
  Metrics metrics;
};

// Alternates traced and untraced passes until the window is spent (at
// least kMinTracedPairs), then appends the direct layer timings. Each call
// of `pair` gets a fresh tracer for its traced pass.
std::string run_traced(const Args& a, std::size_t jobs,
                       const std::function<TracedPair(Tracer*)>& pair,
                       const std::function<Metrics()>& micro) {
  std::vector<TracedPair> pairs;
  std::vector<double> walls;
  const auto t0 = Clock::now();
  while (pairs.size() < kMinTracedPairs ||
         seconds_since(t0) + median(walls) <= a.seconds) {
    Tracer tracer;
    pairs.push_back(pair(&tracer));
    walls.push_back(pairs.back().traced_s + pairs.back().untraced_s);
  }
  const Metrics direct = micro();

  std::vector<std::string> objs;
  for (const auto& p : pairs) {
    JsonObject metrics;
    for (const auto& [k, v] : p.metrics) metrics.num(k, v);
    objs.push_back(JsonObject{}
                       .num("traced_s", p.traced_s)
                       .num("untraced_s", p.untraced_s)
                       .num("untraced_cpu_s", p.untraced_cpu_s)
                       .str("traced_fp", hex64(p.traced_fp))
                       .str("untraced_fp", hex64(p.untraced_fp))
                       .raw("metrics", metrics.done())
                       .done());
  }
  JsonObject micro_json;
  for (const auto& [k, v] : direct) micro_json.num(k, v);
  return header(a, jobs)
      .raw("pairs", json_array(objs))
      .strs("count_metrics", count_metric_names())
      .raw("micro", micro_json.done())
      .done();
}

std::string run_audit(const Args& a) {
  const auto names = evaluated_names();
  std::shared_ptr<const netsim::RoutingPlane> plane;
  if (a.trace) {
    plane = ecosystem::shared_backbone_plane();
    const auto options = audit_options(1);
    return run_traced(
        a, 1,
        [&](Tracer* t) {
          TracedPair p;
          obs::MetricsRegistry registry;
          Tally tally;
          std::vector<core::ProviderReport> reports;
          const auto t0 = Clock::now();
          {
            obs::ScopedObservation scope(nullptr, &registry);
            for (const auto& name : names) {
              SpanScope shard(t, "shard");
              reports.push_back(
                  traced_audit_shard(name, a.seed, options.runner, plane, t, tally));
              SpanScope encode(t, "codec.encode");
              tally.codec_bytes += core::encode_provider_report(reports.back()).size();
              ++tally.codec_shards;
            }
            const auto merged = merged_report(a.seed, std::move(reports));
            SpanScope serialize(t, "analysis.serialize");
            p.traced_fp = payload_fp(merged);
          }
          p.traced_s = seconds_since(t0);
          SpanTable table;
          perfbench::aggregate_spans(t->spans(), table);
          p.metrics = layer_metrics(table, tally, read_counters({&registry}));

          Pass untraced;
          core::CampaignReport r;
          time_pass(untraced, [&] { r = core::ParallelCampaign(options).run({}, a.seed); });
          p.untraced_s = untraced.wall_s;
          p.untraced_cpu_s = untraced.cpu_s;
          p.untraced_fp = payload_fp(r);
          return p;
        },
        [&] { return micro_layers(a.seed, plane); });
  }

  // Set-up: the shared routing plane every shard adopts.
  // shared_backbone_plane() builds it once per process from a throwaway
  // world; each rep makes kPlaneBuildsPerRep such builds, so a rep is long
  // enough to time. The first build of rep 0 is the process-wide plane
  // itself, and rep 0 also pays the library's lazy first-use set-up.
  const auto setup = setup_reps(kSetupReps, [&](std::size_t k) {
    for (std::size_t b = 0; b < kPlaneBuildsPerRep; ++b) {
      if (k == 0 && b == 0) {
        plane = ecosystem::shared_backbone_plane();
        continue;
      }
      inet::World scout(0);
      if (!scout.network().routing_plane())
        throw std::runtime_error("perfbench: no routing plane");
    }
  });

  auto passes = measure_window(a.seconds, [&](std::size_t i) {
    Pass p;
    p.seed = a.seed + i;
    core::CampaignReport r;
    time_pass(p, [&] { r = core::ParallelCampaign(audit_options(1)).run({}, p.seed); });
    p.shards = r.providers.size();
    p.failed = failed_shards(r);
    p.fp = payload_fp(r);
    return p;
  });
  const std::size_t rss_kb = util::peak_rss_kb();

  // References: each pass seed again through the pooled engine (jobs 4),
  // and the golden seed through the measured configuration.
  std::uint64_t golden = 0;
  for (auto& p : passes) {
    const auto ref = core::ParallelCampaign(audit_options(4)).run({}, p.seed);
    p.extra.str("ref_fp", hex64(payload_fp(ref)));
    if (p.seed == kGoldenSeed) golden = p.fp;
  }
  if (golden == 0)
    golden = payload_fp(core::ParallelCampaign(audit_options(1)).run({}, kGoldenSeed));

  return header(a, 1)
      .nums("setup_s", setup)
      .raw("passes", passes_json(passes))
      .integer("peak_rss_kb", rss_kb)
      .str("golden_fp", hex64(golden))
      .done();
}

core::ScaledCampaignOptions census_options(std::uint64_t seed, std::size_t jobs) {
  core::ScaledCampaignOptions o;
  o.seed = seed;
  o.jobs = jobs;
  return o;
}

bool same_census(const core::ScaledShardCensus& x, const core::ScaledShardCensus& y) {
  return x.provider == y.provider && x.vantage_points == y.vantage_points &&
         x.hosts == y.hosts && x.clients == y.clients &&
         x.modeled_subscribers == y.modeled_subscribers &&
         x.address_fingerprint == y.address_fingerprint;
}

std::size_t census_failures(const core::ScaledCampaignReport& r) {
  std::size_t n = r.crashed_providers.size();
  for (const auto& s : r.shards)
    if (s.hosts == 0 || s.vantage_points == 0) ++n;
  return n;
}

// Reference check of one census pass: every row names the catalog's
// provider in order, and a sample of shards drawn from Rng(seed),
// recomputed one at a time, matches field for field. Returns the number
// of mismatches found.
std::size_t census_mismatches(
    const ecosystem::ScaledCatalog& catalog,
    const std::vector<core::ScaledShardCensus>& rows, std::uint64_t seed,
    const std::shared_ptr<const netsim::RoutingPlane>& plane) {
  if (rows.size() != catalog.providers.size()) return 1;
  for (std::size_t k = 0; k < rows.size(); ++k)
    if (rows[k].provider != catalog.providers[k].spec.name) return 1;
  util::Rng rng(seed);
  const auto options = census_options(seed, 1);
  std::size_t mismatches = 0;
  for (std::size_t s = 0; s < kCensusSampledShards; ++s) {
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1));
    if (!same_census(rows[k],
                     core::run_scaled_census_shard(catalog, k, options, plane)))
      ++mismatches;
  }
  return mismatches;
}

std::string run_census(const Args& a) {
  const auto plane = ecosystem::shared_backbone_plane();
  ecosystem::ScaledCatalog catalog;
  // Set-up: catalog generation.
  const auto setup = setup_reps(kSetupReps, [&](std::size_t) {
    catalog = ecosystem::generate_scaled_catalog(kCensusProviders,
                                                 kCensusSubscribers, a.seed);
  });

  if (a.trace) {
    return run_traced(
        a, kCensusJobs,
        // One tracer per pool worker instead of the one handed in.
        [&](Tracer*) {
          TracedPair p;
          const auto options = census_options(a.seed, kCensusJobs);
          std::vector<core::ScaledShardCensus> rows(catalog.providers.size());
          std::vector<Tracer> tracers(kCensusJobs);
          std::vector<obs::MetricsRegistry> registries(kCensusJobs);
          const auto t0 = Clock::now();
          {
            util::TaskPool pool(kCensusJobs);
            std::vector<std::future<core::ScaledShardCensus>> futures;
            for (std::size_t i = 0; i < rows.size(); ++i)
              futures.push_back(pool.submit([&, i] {
                const int worker = util::TaskPool::current_worker_index();
                if (worker < 0 || static_cast<std::size_t>(worker) >= tracers.size())
                  throw std::logic_error("perfbench: census task off the pool");
                const auto w = static_cast<std::size_t>(worker);
                obs::ScopedObservation scope(nullptr, &registries[w]);
                Tracer* t = &tracers[w];
                SpanScope shard(t, "shard");
                SpanScope build(t, "ecosystem.build");
                return core::run_scaled_census_shard(catalog, i, options, plane);
              }));
            for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = futures[i].get();
          }
          p.traced_s = seconds_since(t0);

          Pass untraced;
          core::ScaledCampaignReport r;
          time_pass(untraced, [&] { r = core::run_scaled_campaign(catalog, options); });
          p.untraced_s = untraced.wall_s;
          p.untraced_cpu_s = untraced.cpu_s;
          p.untraced_fp = r.payload_fingerprint;
          // Traced rows agree with the engine's, or the traced fingerprint
          // is reported as zero.
          bool equal = rows.size() == r.shards.size();
          for (std::size_t i = 0; equal && i < rows.size(); ++i)
            equal = same_census(rows[i], r.shards[i]);
          p.traced_fp = equal ? r.payload_fingerprint : 0;

          SpanTable table;
          std::vector<const obs::MetricsRegistry*> regs;
          for (std::size_t w = 0; w < kCensusJobs; ++w) {
            perfbench::aggregate_spans(tracers[w].spans(), table);
            regs.push_back(&registries[w]);
          }
          Tally tally;
          tally.shards_built = rows.size();
          for (const auto& row : rows) tally.hosts += row.hosts;
          // The engine sums arena bytes over the worlds it built; the
          // traced calls build the same worlds.
          tally.arena_bytes = r.arena_used_bytes;
          p.metrics = layer_metrics(table, tally, read_counters(regs));
          return p;
        },
        [&] { return micro_layers(a.seed, plane); });
  }

  // Each pass is checked right after its timing ends and its rows are then
  // dropped, so no pass's peak RSS includes rows the benchmark keeps.
  auto passes = measure_window(a.seconds, [&](std::size_t i) {
    Pass p;
    p.seed = a.seed + i;
    core::ScaledCampaignReport r;
    time_pass(p, [&] {
      r = core::run_scaled_campaign(catalog, census_options(p.seed, kCensusJobs));
    });
    p.shards = r.shards.size();
    p.failed = census_failures(r);
    p.fp = r.payload_fingerprint;
    p.extra
        .integer("ref_mismatches", census_mismatches(catalog, r.shards, p.seed, plane))
        .integer("ref_sampled", kCensusSampledShards);
    return p;
  });
  const std::size_t rss_kb = util::peak_rss_kb();

  // Golden: the default-seed catalog and census through the measured
  // configuration.
  std::uint64_t golden = 0;
  for (const auto& p : passes)
    if (a.seed == kGoldenSeed && p.seed == kGoldenSeed) golden = p.fp;
  if (golden == 0) {
    const auto golden_catalog = ecosystem::generate_scaled_catalog(
        kCensusProviders, kCensusSubscribers, kGoldenSeed);
    golden = core::run_scaled_campaign(golden_catalog,
                                       census_options(kGoldenSeed, kCensusJobs))
                 .payload_fingerprint;
  }

  return header(a, kCensusJobs)
      .nums("setup_s", setup)
      .raw("passes", passes_json(passes))
      .integer("peak_rss_kb", rss_kb)
      .str("golden_fp", hex64(golden))
      .done();
}

// Removes a store directory this process created.
void remove_store(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

std::string run_replay(const Args& a) {
  const auto plane = ecosystem::shared_backbone_plane();
  const auto names = evaluated_names();
  const auto store_dir = [&](std::size_t k) {
    return a.work_dir / util::format("replay-store-%zu", k);
  };
  const auto cached_options = [&](std::size_t k) {
    auto o = audit_options(1);
    o.cache.dir = store_dir(k).string();
    o.cache.mode = store::CacheMode::kReadWrite;
    return o;
  };

  // Set-up: the cold store fill, into a fresh directory each rep. The last
  // rep's store is the one the passes replay.
  std::vector<std::string> fill_fps;
  const auto setup = setup_reps(kReplaySetupReps, [&](std::size_t k) {
    remove_store(store_dir(k));
    fill_fps.push_back(
        hex64(payload_fp(core::ParallelCampaign(cached_options(k)).run({}, a.seed))));
  });
  for (std::size_t k = 0; k + 1 < kReplaySetupReps; ++k) remove_store(store_dir(k));
  const std::size_t live = kReplaySetupReps - 1;
  const auto options = cached_options(live);
  const store::ArtifactStore store(options.cache);
  std::vector<store::ShardKey> keys;
  for (const auto& name : names)
    keys.push_back(core::campaign_shard_key(name, a.seed, options.runner));
  const auto evicted = [&](std::uint64_t s) {
    util::Rng rng(s);
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1));
  };

  std::string out;
  if (a.trace) {
    // Every traced pass evicts the same provider, so its counts repeat.
    const std::size_t victim = evicted(a.seed);
    out = run_traced(
        a, 1,
        [&](Tracer* t) {
          TracedPair p;
          obs::MetricsRegistry registry;
          Tally tally;
          store.discard(keys[victim]);
          const auto t0 = Clock::now();
          {
            obs::ScopedObservation scope(nullptr, &registry);
            std::vector<core::ProviderReport> reports(names.size());
            for (std::size_t i = 0; i < names.size(); ++i) {
              SpanScope shard(t, "shard");
              store::FetchResult fetched;
              {
                SpanScope span(t, "store.fetch");
                fetched = store.fetch(keys[i]);
              }
              ++tally.store_consults;
              bool hit = false;
              if (fetched.status == store::FetchStatus::kHit) {
                SpanScope span(t, "codec.decode");
                hit = core::decode_provider_report(fetched.payload, &reports[i]) &&
                      reports[i].provider == names[i];
              }
              if (hit) {
                ++tally.store_hits;
                tally.bytes_read += fetched.payload.size();
                tally.codec_bytes += fetched.payload.size();
                ++tally.codec_shards;
                continue;
              }
              reports[i] = traced_audit_shard(names[i], a.seed, options.runner,
                                              plane, t, tally);
              std::string bytes;
              {
                SpanScope span(t, "codec.encode");
                bytes = core::encode_provider_report(reports[i]);
              }
              {
                SpanScope span(t, "store.put");
                if (store.put(keys[i], bytes)) tally.bytes_written += bytes.size();
              }
              tally.codec_bytes += bytes.size();
              ++tally.codec_shards;
            }
            const auto merged = merged_report(a.seed, std::move(reports));
            SpanScope serialize(t, "analysis.serialize");
            p.traced_fp = payload_fp(merged);
          }
          p.traced_s = seconds_since(t0);
          SpanTable table;
          perfbench::aggregate_spans(t->spans(), table);
          p.metrics = layer_metrics(table, tally, read_counters({&registry}));

          store.discard(keys[victim]);
          Pass untraced;
          time_pass(untraced, [&] {
            p.untraced_fp =
                payload_fp(core::ParallelCampaign(options).run({}, a.seed));
          });
          p.untraced_s = untraced.wall_s;
          p.untraced_cpu_s = untraced.cpu_s;
          return p;
        },
        [&] { return micro_layers(a.seed, plane); });
  } else {
    auto passes = measure_window(a.seconds, [&](std::size_t i) {
      Pass p;
      p.seed = a.seed + i;
      store.discard(keys[evicted(p.seed)]);
      core::CampaignReport r;
      time_pass(p, [&] {
        r = core::ParallelCampaign(options).run({}, a.seed);
        p.fp = payload_fp(r);
      });
      p.shards = r.providers.size();
      p.failed = failed_shards(r);
      const auto cache = core::summarize_cache(r.cache_records);
      p.extra.integer("hits", cache.hits)
          .integer("misses", cache.misses)
          .integer("stored", cache.stored);
      return p;
    });
    const std::size_t rss_kb = util::peak_rss_kb();
    // Reference: the audit workload's configuration, cache off, same seed.
    const auto audit_fp =
        payload_fp(core::ParallelCampaign(audit_options(1)).run({}, a.seed));
    out = header(a, 1)
              .nums("setup_s", setup)
              .strs("fill_fps", fill_fps)
              .raw("passes", passes_json(passes))
              .integer("peak_rss_kb", rss_kb)
              .str("audit_fp", hex64(audit_fp))
              .done();
  }
  remove_store(store_dir(live));
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workloads --workload audit|census|replay "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") a.trace = std::strcmp(value, "1") == 0;
    else if (flag == "--work-dir") a.work_dir = value;
    else return usage();
  }
  if (argc % 2 == 0 || a.work_dir.empty() || !(a.seconds > 0.0)) return usage();
  try {
    std::filesystem::create_directories(a.work_dir);
    std::string result;
    if (a.workload == "audit") result = run_audit(a);
    else if (a.workload == "census") result = run_census(a);
    else if (a.workload == "replay") result = run_replay(a);
    else return usage();
    std::printf("%s\n", result.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workloads: %s\n", e.what());
    return 1;
  }
}
