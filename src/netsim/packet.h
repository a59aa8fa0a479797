// The simulator's packet model. A Packet is a flat value type carrying the
// fields the measurement tests actually observe: addresses, protocol, ports,
// TTL and an opaque payload. Encapsulation (VPN tunnels) is modelled by
// serializing an inner packet into the payload of an outer one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "netsim/ip.h"

namespace vpna::netsim {

enum class Proto : std::uint8_t {
  kUdp,
  kTcp,
  kIcmpEcho,
  kIcmpEchoReply,
  kIcmpTimeExceeded,
};

[[nodiscard]] std::string_view proto_name(Proto p) noexcept;

struct Packet {
  IpAddr src;
  IpAddr dst;
  Proto proto = Proto::kUdp;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  int ttl = 64;
  std::string payload;

  [[nodiscard]] IpFamily family() const noexcept { return dst.family(); }

  // One-line rendering for capture dumps and test diagnostics.
  [[nodiscard]] std::string summary() const;
};

// Tunnel encapsulation: serializes an inner packet into a payload that
// decode_inner() round-trips exactly. The format is an internal detail of
// the simulator (a tagged, length-prefixed text encoding), standing in for
// the ESP/OpenVPN framing a real tunnel would use.
[[nodiscard]] std::string encode_inner(const Packet& inner);
[[nodiscard]] std::optional<Packet> decode_inner(std::string_view payload);
// True when `payload` carries an encode_inner() frame. A tag check only —
// decode_inner() still validates the rest. Capture scans use it to tell
// tunneled traffic from cleartext without knowing the format.
[[nodiscard]] bool is_tunnel_frame(std::string_view payload) noexcept;

// Well-known simulator port numbers.
inline constexpr std::uint16_t kPortDns = 53;
inline constexpr std::uint16_t kPortHttp = 80;
inline constexpr std::uint16_t kPortHttps = 443;
inline constexpr std::uint16_t kPortOpenVpn = 1194;
inline constexpr std::uint16_t kPortPptp = 1723;
inline constexpr std::uint16_t kPortIpsec = 500;
inline constexpr std::uint16_t kPortSstp = 4433;
inline constexpr std::uint16_t kPortSpeedTest = 5201;  // iperf3's default

}  // namespace vpna::netsim
