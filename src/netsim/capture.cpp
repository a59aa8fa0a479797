#include "netsim/capture.h"

#include "util/strings.h"

namespace vpna::netsim {

void CaptureBuffer::record_impl(util::SimTime time, Direction dir,
                                std::string_view interface_name,
                                const Packet& packet) {
  records_.push_back(
      CaptureRecord{time, dir, std::string(interface_name), packet});
}

std::vector<CaptureRecord> CaptureBuffer::on_interface(
    std::string_view interface_name) const {
  std::vector<CaptureRecord> out;
  for (const auto& r : records_)
    if (r.interface_name == interface_name) out.push_back(r);
  return out;
}

std::vector<CaptureRecord> CaptureBuffer::matching(
    const std::function<bool(const CaptureRecord&)>& pred) const {
  std::vector<CaptureRecord> out;
  for (const auto& r : records_)
    if (pred(r)) out.push_back(r);
  return out;
}

std::string CaptureBuffer::dump(std::size_t max_lines) const {
  std::string out;
  std::size_t lines = 0;
  for (const auto& r : records_) {
    if (lines >= max_lines) {
      out += util::format("... %zu more record(s)\n", records_.size() - lines);
      break;
    }
    const bool encapsulated = is_tunnel_frame(r.packet.payload);
    out += util::format(
        "%9.3fs %-5s %-3s %s %s:%u -> %s:%u len=%zu%s\n",
        r.time.seconds(), r.interface_name.c_str(),
        r.direction == Direction::kOut ? "OUT" : "IN",
        std::string(proto_name(r.packet.proto)).c_str(),
        r.packet.src.str().c_str(), r.packet.src_port,
        r.packet.dst.str().c_str(), r.packet.dst_port, r.packet.payload.size(),
        encapsulated ? " [tunnel]" : "");
    ++lines;
  }
  return out;
}

}  // namespace vpna::netsim
