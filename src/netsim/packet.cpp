#include "netsim/packet.h"

#include <charconv>

#include "util/strings.h"

namespace vpna::netsim {

std::string_view proto_name(Proto p) noexcept {
  switch (p) {
    case Proto::kUdp:
      return "udp";
    case Proto::kTcp:
      return "tcp";
    case Proto::kIcmpEcho:
      return "icmp-echo";
    case Proto::kIcmpEchoReply:
      return "icmp-echo-reply";
    case Proto::kIcmpTimeExceeded:
      return "icmp-time-exceeded";
  }
  return "unknown";
}

std::string Packet::summary() const {
  return util::format("%s %s:%u -> %s:%u ttl=%d len=%zu",
                      std::string(proto_name(proto)).c_str(),
                      src.str().c_str(), src_port, dst.str().c_str(), dst_port,
                      ttl, payload.size());
}

namespace {

constexpr std::string_view kTunnelTag = "TUN1|";

}  // namespace

bool is_tunnel_frame(std::string_view payload) noexcept {
  return payload.starts_with(kTunnelTag);
}

std::string encode_inner(const Packet& inner) {
  // "TUN1|src|dst|proto|sport|dport|ttl|payload_len|payload"
  std::string head = util::format(
      "TUN1|%s|%s|%u|%u|%u|%d|%zu|", inner.src.str().c_str(),
      inner.dst.str().c_str(), static_cast<unsigned>(inner.proto),
      inner.src_port, inner.dst_port, inner.ttl, inner.payload.size());
  return head + inner.payload;
}

std::optional<Packet> decode_inner(std::string_view payload) {
  if (!is_tunnel_frame(payload)) return std::nullopt;
  // Split off the first 8 fields; the payload may itself contain '|'.
  std::string_view rest = payload.substr(kTunnelTag.size());
  std::array<std::string_view, 7> fields{};
  for (auto& f : fields) {
    const auto pos = rest.find('|');
    if (pos == std::string_view::npos) return std::nullopt;
    f = rest.substr(0, pos);
    rest = rest.substr(pos + 1);
  }
  Packet p;
  const auto src = IpAddr::parse(fields[0]);
  const auto dst = IpAddr::parse(fields[1]);
  if (!src || !dst) return std::nullopt;
  p.src = *src;
  p.dst = *dst;

  auto parse_uint = [](std::string_view s, unsigned long& out) {
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc{} && ptr == s.data() + s.size();
  };
  unsigned long proto = 0, sport = 0, dport = 0, ttl = 0, len = 0;
  if (!parse_uint(fields[2], proto) || proto > 4) return std::nullopt;
  if (!parse_uint(fields[3], sport) || sport > 0xffff) return std::nullopt;
  if (!parse_uint(fields[4], dport) || dport > 0xffff) return std::nullopt;
  if (!parse_uint(fields[5], ttl) || ttl > 255) return std::nullopt;
  if (!parse_uint(fields[6], len) || len != rest.size()) return std::nullopt;
  p.proto = static_cast<Proto>(proto);
  p.src_port = static_cast<std::uint16_t>(sport);
  p.dst_port = static_cast<std::uint16_t>(dport);
  p.ttl = static_cast<int>(ttl);
  p.payload = std::string(rest);
  return p;
}

}  // namespace vpna::netsim
