#include "store/artifact_store.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <unistd.h>

#include "util/byte_codec.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vpna::store {

namespace {

// On-disk artifact layout (all integers little-endian, fixed width):
//
//   magic[8]           "VPNASTO1"
//   u32 header_version kArtifactHeaderVersion
//   u32 key_len        length of the canonical key echo
//   key[key_len]       ShardKey::canonical() of the writer
//   u64 payload_len
//   u64 payload_fnv1a  checksum over the payload bytes
//   payload[payload_len]
//
// The key echo makes a content-address collision (two keys hashing to one
// file name) detectable: the fetch compares the echo against the caller's
// canonical key and reports corruption instead of serving foreign bytes.
constexpr char kMagic[8] = {'V', 'P', 'N', 'A', 'S', 'T', 'O', '1'};
constexpr std::uint32_t kArtifactHeaderVersion = 1;

[[nodiscard]] FetchResult corrupt(std::string detail) {
  FetchResult r;
  r.status = FetchStatus::kCorrupt;
  r.detail = std::move(detail);
  return r;
}

}  // namespace

std::string_view cache_mode_name(CacheMode m) noexcept {
  switch (m) {
    case CacheMode::kOff:
      return "off";
    case CacheMode::kReadWrite:
      return "rw";
    case CacheMode::kReadOnly:
      return "ro";
  }
  return "off";
}

bool parse_cache_mode(std::string_view name, CacheMode* out) noexcept {
  if (name == "off") {
    *out = CacheMode::kOff;
    return true;
  }
  if (name == "rw") {
    *out = CacheMode::kReadWrite;
    return true;
  }
  if (name == "ro") {
    *out = CacheMode::kReadOnly;
    return true;
  }
  return false;
}

std::string_view fetch_status_name(FetchStatus s) noexcept {
  switch (s) {
    case FetchStatus::kHit:
      return "hit";
    case FetchStatus::kMiss:
      return "miss";
    case FetchStatus::kCorrupt:
      return "corrupt";
  }
  return "miss";
}

std::string ShardKey::canonical() const {
  // Versioned, field-separated canonical form; adjacent values can never
  // alias because every field is terminated.
  return util::format(
      "vpna-shard-key-v1\x1f%u\x1f%u\x1f%016llx\x1f%016llx\x1f%s\x1f%d\x1f"
      "%016llx\x1f",
      code_epoch, payload_format,
      static_cast<unsigned long long>(catalog_fingerprint),
      static_cast<unsigned long long>(shard_seed), fault_profile.c_str(),
      link_capacities ? 1 : 0,
      static_cast<unsigned long long>(runner_options_fingerprint));
}

std::string ShardKey::id() const {
  const std::string canon = canonical();
  // Two independent FNV-1a streams (the second over a salted copy) give a
  // 128-bit address; the artifact's key echo still guards the (already
  // astronomically unlikely) collision.
  const std::uint64_t a = util::fnv1a(canon);
  const std::uint64_t b = util::fnv1a("vpna-shard-key-salt\x1f" + canon);
  return util::format("%016llx%016llx", static_cast<unsigned long long>(a),
                      static_cast<unsigned long long>(b));
}

ArtifactStore::ArtifactStore(CacheConfig config) : config_(std::move(config)) {
  if (config_.writable()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.dir, ec);
    // Failure surfaces naturally: every put() fails and the campaign runs
    // uncached, which is the correct degraded behaviour.
  }
}

std::string ArtifactStore::path_for(const ShardKey& key) const {
  return (std::filesystem::path(config_.dir) / (key.id() + ".vpna")).string();
}

FetchResult ArtifactStore::fetch(const ShardKey& key) const {
  FetchResult result;
  if (!config_.enabled()) return result;  // kMiss

  const std::string path = path_for(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return result;  // kMiss: no artifact under this key

  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  const auto fail = [&](std::string detail) {
    // Read-write stores self-heal: drop the bad artifact so the recompute
    // repairs it. Read-only stores must not touch the bytes.
    if (config_.writable()) {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
    return corrupt(std::move(detail));
  };

  util::ByteReader r(bytes);
  std::string_view magic;
  std::uint32_t header_version = 0;
  std::uint32_t key_len = 0;
  if (!(r.raw(sizeof kMagic, &magic) && r.u32(&header_version) &&
        r.u32(&key_len)))
    return fail("truncated header");
  if (magic != std::string_view(kMagic, sizeof kMagic)) return fail("bad magic");
  if (header_version != kArtifactHeaderVersion)
    return fail(util::format("header version %u (want %u)", header_version,
                             kArtifactHeaderVersion));
  std::string_view key_echo;
  if (!r.raw(key_len, &key_echo)) return fail("truncated key echo");
  if (key_echo != key.canonical())
    return fail("key echo mismatch (hash collision?)");
  std::uint64_t payload_len = 0;
  std::uint64_t checksum = 0;
  if (!(r.u64(&payload_len) && r.u64(&checksum)))
    return fail("truncated payload header");
  std::string_view payload;
  if (!r.raw(r.remaining(), &payload) || payload.size() != payload_len)
    return fail(util::format(
        "payload length mismatch (header %llu, file %llu)",
        static_cast<unsigned long long>(payload_len),
        static_cast<unsigned long long>(payload.size())));
  if (util::fnv1a(payload) != checksum) return fail("payload checksum mismatch");

  result.status = FetchStatus::kHit;
  result.payload.assign(payload);
  return result;
}

void ArtifactStore::discard(const ShardKey& key) const {
  if (!config_.writable()) return;
  std::error_code ec;
  std::filesystem::remove(path_for(key), ec);
}

bool ArtifactStore::put(const ShardKey& key, std::string_view payload) const {
  if (!config_.writable()) return false;

  std::string bytes;
  const std::string canon = key.canonical();
  bytes.reserve(sizeof kMagic + 24 + canon.size() + payload.size());
  util::ByteWriter w(bytes);
  w.raw(std::string_view(kMagic, sizeof kMagic));
  w.u32(kArtifactHeaderVersion);
  w.u32(static_cast<std::uint32_t>(canon.size()));
  w.raw(canon);
  w.u64(payload.size());
  w.u64(util::fnv1a(payload));
  w.raw(payload);

  // Unique temp name per writer — pid *and* a process-wide counter, so no
  // two writers ever share a temp file even across processes (forked
  // campaign workers start with identical counters; a counter alone would
  // collide and interleave their bytes). Then an atomic same-directory
  // rename: readers only ever see complete artifacts, and two writers
  // racing on one key both leave a valid file (last rename wins; the bytes
  // are identical by the determinism contract anyway).
  static std::atomic<std::uint64_t> tmp_counter{0};
  const std::string final_path = path_for(key);
  const std::string tmp_path = util::format(
      "%s.tmp.%ld.%llu", final_path.c_str(), static_cast<long>(::getpid()),
      static_cast<unsigned long long>(
          tmp_counter.fetch_add(1, std::memory_order_relaxed)));
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    return false;
  }
  return true;
}

}  // namespace vpna::store
