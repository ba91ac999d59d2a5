// Wire format of the reliable multicast protocols.
//
// The reproduced implementation (paper §4, "Packet Header") rides on UDP
// and adds a packet type plus a four-byte sequence number; sender identity
// comes from the UDP/IP header. This port keeps that scheme and adds two
// fields the original carried implicitly: an explicit node id (receiver
// rank within the static group — the original derived it from the source
// address) and a session id distinguishing consecutive messages so that
// stale control packets from a finished transfer can never corrupt the
// next one.
//
// Header layout (12 bytes, big-endian):
//   u8  type      u8  flags      u16 node_id
//   u32 session   u32 seq
// followed by the type-specific body.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/serial.h"
#include "net/frame_arena.h"

namespace rmc::rmcast {

enum class PacketType : std::uint8_t {
  kData = 1,
  kAck = 2,
  kNak = 3,
  kAllocReq = 4,
  kAllocRsp = 5,
  // Graceful degradation (sender-side failure detection):
  // kEvict — multicast by the sender; seq carries the node id removed from
  //   the acknowledgment roster, so survivors re-form their structures.
  // kSuspect — unicast to the sender by a tree parent; seq carries the
  //   child node id whose acknowledgments have stalled.
  kEvict = 6,
  kSuspect = 7,
  // Hybrid FEC (EC-XOR / EC-RS):
  // kParity — multicast by the sender after each group of k data packets;
  //   seq encodes the group id and parity index (group * m + index), and
  //   the body is one parity block.
  // kGroupNak — unicast to the sender by a receiver whose group failed to
  //   decode; seq carries the group id (RFC-1982 serial, like every other
  //   seq) and the body is a bitmap of the missing data blocks.
  kParity = 8,
  kGroupNak = 9,
};

// Flag bits on data packets.
inline constexpr std::uint8_t kFlagPoll = 0x01;     // NAK-polling: acknowledge me
inline constexpr std::uint8_t kFlagLast = 0x02;     // final packet of the message
inline constexpr std::uint8_t kFlagRetrans = 0x04;  // retransmission

// node_id of the sender itself (receivers are 0..N-1).
inline constexpr std::uint16_t kSenderNodeId = 0xFFFF;

inline constexpr std::size_t kHeaderBytes = 12;

// Serial sequence-number arithmetic (RFC 1982 style).
//
// Sequence numbers and cumulative counts are 32-bit and wrap: a
// long-lived session that packetizes a large stream — or one that starts
// its numbering near the top of the space — crosses 0xFFFFFFFF -> 0.
// Magnitude comparison breaks exactly there (0 < 0xFFFFFFFF, yet 0 is
// the *later* sequence number), so all ordering must go through the
// wrapping distance instead: `a` precedes `b` iff the signed difference
// a - b is negative. Valid whenever the two values are within 2^31 of
// each other, which every window/tracker invariant guarantees.
constexpr bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
constexpr bool seq_le(std::uint32_t a, std::uint32_t b) { return !seq_lt(b, a); }
constexpr bool seq_gt(std::uint32_t a, std::uint32_t b) { return seq_lt(b, a); }
constexpr bool seq_ge(std::uint32_t a, std::uint32_t b) { return !seq_lt(a, b); }

// Later / earlier of two sequence numbers under serial order.
constexpr std::uint32_t seq_max(std::uint32_t a, std::uint32_t b) {
  return seq_lt(a, b) ? b : a;
}
constexpr std::uint32_t seq_min(std::uint32_t a, std::uint32_t b) {
  return seq_lt(a, b) ? a : b;
}

struct Header {
  PacketType type = PacketType::kData;
  std::uint8_t flags = 0;
  std::uint16_t node_id = 0;
  std::uint32_t session = 0;
  // kData: packet sequence number.
  // kAck: cumulative count — "I (and everything I speak for) hold all
  //       packets with seq < this value".
  // kNak: first missing sequence number.
  // kAllocReq / kAllocRsp: 0.
  // kEvict / kSuspect: the node id being evicted / suspected.
  // kParity: group * m + parity_index (a sequence space parallel to the
  //          data packets', advancing m per group).
  // kGroupNak: the undecodable group id.
  std::uint32_t seq = 0;
};

// Body of an allocation request (paper Figure 6): tells receivers how much
// buffer to reserve and how the message will be packetized. Both ends
// derive every per-packet and per-group size from it.
struct AllocRequest {
  std::uint64_t message_bytes = 0;
  std::uint32_t packet_bytes = 0;
  std::uint32_t total_packets = 0;

  // The packetization of a `message_bytes` message into `packet_bytes`
  // packets; an empty message still travels as one (empty) packet.
  static AllocRequest for_message(std::uint64_t message_bytes, std::size_t packet_bytes);
  // True when the three fields agree and a packet fits one UDP datagram.
  // A request that does not add up would size the message buffer for one
  // message and index it for another (and, with a recycled buffer, could
  // deliver bytes a previous session left there).
  bool well_formed() const;
  // Bytes data packet `seq` carries: packet_bytes, except a short final
  // packet (0 past the message end).
  std::size_t block_len(std::uint32_t seq) const;
  // Data blocks in FEC group `group` of `k`-block groups: k, except a
  // short tail group (0 past the message end).
  std::size_t group_blocks(std::uint32_t group, std::size_t k) const;

  bool operator==(const AllocRequest&) const = default;
};

inline constexpr std::size_t kAllocRequestBytes = 16;

// Body of a group NAK: bit i set means data block i of the group (the
// packet with seq = group * k + i) is missing at the receiver. A u64
// bitmap caps FEC groups at 64 data blocks (fec::kMaxK).
struct GroupNak {
  std::uint64_t missing = 0;

  // The data sequence numbers the bitmap names in `group` of `k`-block
  // groups, ascending. Bits at or past `group_blocks` (the blocks a short
  // tail group actually holds) are ignored.
  std::vector<std::uint32_t> missing_seqs(std::uint32_t group, std::size_t k,
                                          std::size_t group_blocks) const;
};

inline constexpr std::size_t kGroupNakBytes = 8;

// The write_* helpers are templates over the serializer so the same wire
// code fills a growable rmc::Writer (tests, tools) or a fixed-size
// net::ArenaWriter (the protocol hot path, which serializes straight into
// a refcounted arena block and hands it to UdpSocket::send_ref without a
// copy). Byte output is identical either way.
template <typename W>
void write_header(W& w, const Header& h) {
  w.u8(static_cast<std::uint8_t>(h.type));
  w.u8(h.flags);
  w.u16(h.node_id);
  w.u32(h.session);
  w.u32(h.seq);
}
std::optional<Header> read_header(Reader& r);

template <typename W>
void write_alloc_request(W& w, const AllocRequest& a) {
  w.u64(a.message_bytes);
  w.u32(a.packet_bytes);
  w.u32(a.total_packets);
}
std::optional<AllocRequest> read_alloc_request(Reader& r);

template <typename W>
void write_group_nak(W& w, const GroupNak& g) {
  w.u64(g.missing);
}
std::optional<GroupNak> read_group_nak(Reader& r);

// Convenience: serialize a header-only control packet.
Buffer make_control_packet(const Header& h);
// A header plus an opaque body (a data or parity block; empty for a
// control packet) as an arena payload, ready for UdpSocket::send_ref.
net::PayloadRef make_packet_ref(const Header& h, BytesView body = {});

const char* packet_type_name(PacketType type);

}  // namespace rmc::rmcast
