#include "rmcast/wire.h"

#include <algorithm>

#include "inet/ip.h"

namespace rmc::rmcast {

std::optional<Header> read_header(Reader& r) {
  Header h;
  std::uint8_t type = r.u8();
  h.flags = r.u8();
  h.node_id = r.u16();
  h.session = r.u32();
  h.seq = r.u32();
  if (!r.ok()) return std::nullopt;
  if (type < static_cast<std::uint8_t>(PacketType::kData) ||
      type > static_cast<std::uint8_t>(PacketType::kGroupNak)) {
    return std::nullopt;
  }
  h.type = static_cast<PacketType>(type);
  return h;
}

std::optional<AllocRequest> read_alloc_request(Reader& r) {
  AllocRequest a;
  a.message_bytes = r.u64();
  a.packet_bytes = r.u32();
  a.total_packets = r.u32();
  if (!r.ok()) return std::nullopt;
  return a;
}

namespace {

// Packets a message travels in (overflow-safe for any 64-bit length).
std::uint64_t packet_count(std::uint64_t message_bytes, std::uint64_t packet_bytes) {
  const std::uint64_t packets =
      message_bytes / packet_bytes + (message_bytes % packet_bytes != 0 ? 1 : 0);
  return std::max<std::uint64_t>(1, packets);
}

}  // namespace

AllocRequest AllocRequest::for_message(std::uint64_t message_bytes,
                                       std::size_t packet_bytes) {
  return {message_bytes, static_cast<std::uint32_t>(packet_bytes),
          static_cast<std::uint32_t>(packet_count(message_bytes, packet_bytes))};
}

bool AllocRequest::well_formed() const {
  if (packet_bytes == 0 || std::uint64_t{packet_bytes} + kHeaderBytes > inet::kMaxUdpPayload) {
    return false;
  }
  return total_packets == packet_count(message_bytes, packet_bytes);
}

std::size_t AllocRequest::block_len(std::uint32_t seq) const {
  const std::uint64_t off = std::uint64_t{seq} * packet_bytes;
  const std::uint64_t remain = message_bytes - std::min(message_bytes, off);
  return static_cast<std::size_t>(std::min<std::uint64_t>(packet_bytes, remain));
}

std::size_t AllocRequest::group_blocks(std::uint32_t group, std::size_t k) const {
  const std::uint64_t first = std::uint64_t{group} * k;
  if (first >= total_packets) return 0;
  return static_cast<std::size_t>(std::min<std::uint64_t>(k, total_packets - first));
}

std::vector<std::uint32_t> GroupNak::missing_seqs(std::uint32_t group, std::size_t k,
                                                  std::size_t group_blocks) const {
  std::vector<std::uint32_t> seqs;
  for (std::size_t i = 0; i < group_blocks; ++i) {
    if ((missing >> i) & 1u) {
      seqs.push_back(group * static_cast<std::uint32_t>(k) + static_cast<std::uint32_t>(i));
    }
  }
  return seqs;
}

std::optional<GroupNak> read_group_nak(Reader& r) {
  GroupNak g;
  g.missing = r.u64();
  if (!r.ok()) return std::nullopt;
  return g;
}

Buffer make_control_packet(const Header& h) {
  Writer w(kHeaderBytes);
  write_header(w, h);
  return w.take();
}

net::PayloadRef make_packet_ref(const Header& h, BytesView body) {
  net::ArenaWriter w(kHeaderBytes + body.size());
  write_header(w, h);
  if (!body.empty()) w.bytes(body);
  return w.take();
}

const char* packet_type_name(PacketType type) {
  switch (type) {
    case PacketType::kData: return "DATA";
    case PacketType::kAck: return "ACK";
    case PacketType::kNak: return "NAK";
    case PacketType::kAllocReq: return "ALLOC_REQ";
    case PacketType::kAllocRsp: return "ALLOC_RSP";
    case PacketType::kEvict: return "EVICT";
    case PacketType::kSuspect: return "SUSPECT";
    case PacketType::kParity: return "PARITY";
    case PacketType::kGroupNak: return "GROUP_NAK";
  }
  return "UNKNOWN";
}

}  // namespace rmc::rmcast
