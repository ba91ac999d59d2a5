// Wire-format tests: header and alloc-request codecs, the message
// geometry and GROUP_NAK expansion both ends derive from them, robustness
// against truncation and garbage (the receive path must drop malformed
// datagrams, never crash or misparse).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "rmcast/wire.h"

namespace rmc::rmcast {
namespace {

TEST(Wire, HeaderRoundTripsEveryTypeAndFlag) {
  for (std::uint8_t type = 1; type <= 9; ++type) {
    for (std::uint8_t flags : {0x00, 0x01, 0x02, 0x04, 0x07}) {
      Header in{static_cast<PacketType>(type), flags, 12345, 0xDEADBEEF, 0xCAFEF00D};
      Writer w;
      write_header(w, in);
      EXPECT_EQ(w.size(), kHeaderBytes);

      Reader r(BytesView(w.buffer().data(), w.buffer().size()));
      auto out = read_header(r);
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(out->type, in.type);
      EXPECT_EQ(out->flags, in.flags);
      EXPECT_EQ(out->node_id, in.node_id);
      EXPECT_EQ(out->session, in.session);
      EXPECT_EQ(out->seq, in.seq);
    }
  }
}

TEST(Wire, TruncatedHeaderRejected) {
  Header in{PacketType::kData, 0, 1, 2, 3};
  Writer w;
  write_header(w, in);
  for (std::size_t len = 0; len < kHeaderBytes; ++len) {
    Reader r(BytesView(w.buffer().data(), len));
    EXPECT_FALSE(read_header(r).has_value()) << "length " << len;
  }
}

TEST(Wire, UnknownTypeRejected) {
  for (std::uint8_t bad : {0, 10, 17, 255}) {
    Buffer bytes(kHeaderBytes, 0);
    bytes[0] = bad;
    Reader r(BytesView(bytes.data(), bytes.size()));
    EXPECT_FALSE(read_header(r).has_value()) << "type " << int{bad};
  }
}

TEST(Wire, AllocRequestRoundTrips) {
  AllocRequest in{(1ULL << 40) + 17, 50'000, 999};
  Writer w;
  write_alloc_request(w, in);
  EXPECT_EQ(w.size(), kAllocRequestBytes);
  Reader r(BytesView(w.buffer().data(), w.buffer().size()));
  auto out = read_alloc_request(r);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->message_bytes, in.message_bytes);
  EXPECT_EQ(out->packet_bytes, in.packet_bytes);
  EXPECT_EQ(out->total_packets, in.total_packets);
}

TEST(Wire, TruncatedAllocRequestRejected) {
  Writer w;
  write_alloc_request(w, AllocRequest{1, 2, 3});
  Reader r(BytesView(w.buffer().data(), kAllocRequestBytes - 1));
  EXPECT_FALSE(read_alloc_request(r).has_value());
}

TEST(Wire, ControlPacketIsHeaderOnly) {
  Header h{PacketType::kAck, 0, 7, 3, 100};
  Buffer packet = make_control_packet(h);
  EXPECT_EQ(packet.size(), kHeaderBytes);
  Reader r(BytesView(packet.data(), packet.size()));
  auto out = read_header(r);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, PacketType::kAck);
  EXPECT_EQ(out->seq, 100u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, TypeNames) {
  EXPECT_STREQ(packet_type_name(PacketType::kData), "DATA");
  EXPECT_STREQ(packet_type_name(PacketType::kNak), "NAK");
  EXPECT_STREQ(packet_type_name(PacketType::kAllocReq), "ALLOC_REQ");
  EXPECT_STREQ(packet_type_name(PacketType::kEvict), "EVICT");
  EXPECT_STREQ(packet_type_name(PacketType::kSuspect), "SUSPECT");
  EXPECT_STREQ(packet_type_name(PacketType::kParity), "PARITY");
  EXPECT_STREQ(packet_type_name(PacketType::kGroupNak), "GROUP_NAK");
}

// The FEC types must occupy their own ids: PARITY/GROUP_NAK parse as
// themselves and never collide with EVICT/SUSPECT (a mis-parse here
// would let a parity frame evict a node).
TEST(Wire, FecTypesNeverAliasEvictOrSuspect) {
  EXPECT_EQ(static_cast<std::uint8_t>(PacketType::kParity), 8);
  EXPECT_EQ(static_cast<std::uint8_t>(PacketType::kGroupNak), 9);
  for (PacketType t : {PacketType::kParity, PacketType::kGroupNak}) {
    Header in{t, 0, 3, 42, 0xABCD1234};
    Writer w;
    write_header(w, in);
    Reader r(BytesView(w.buffer().data(), w.buffer().size()));
    auto out = read_header(r);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->type, t);
    EXPECT_NE(out->type, PacketType::kEvict);
    EXPECT_NE(out->type, PacketType::kSuspect);
  }
}

TEST(Wire, GroupNakRoundTrips) {
  GroupNak in{0xDEADBEEF00FF0001ULL};
  Writer w;
  write_group_nak(w, in);
  EXPECT_EQ(w.size(), kGroupNakBytes);
  Reader r(BytesView(w.buffer().data(), w.buffer().size()));
  auto out = read_group_nak(r);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->missing, in.missing);
}

TEST(Wire, TruncatedGroupNakRejected) {
  Writer w;
  write_group_nak(w, GroupNak{7});
  Reader r(BytesView(w.buffer().data(), kGroupNakBytes - 1));
  EXPECT_FALSE(read_group_nak(r).has_value());
}

// ---------------------------------------------------------------------------
// Message geometry: both ends derive every packet and group size from the
// AllocRequest the handshake carries.

TEST(AllocGeometry, EmptyMessageIsOneEmptyPacket) {
  const AllocRequest a = AllocRequest::for_message(0, 100);
  EXPECT_EQ(a.message_bytes, 0u);
  EXPECT_EQ(a.packet_bytes, 100u);
  EXPECT_EQ(a.total_packets, 1u);
  EXPECT_TRUE(a.well_formed());
  EXPECT_EQ(a.block_len(0), 0u);
  EXPECT_EQ(a.group_blocks(0, 8), 1u);
  EXPECT_EQ(a.group_blocks(1, 8), 0u);
}

TEST(AllocGeometry, ExactlyOneFecGroup) {
  const AllocRequest a = AllocRequest::for_message(800, 100);
  EXPECT_EQ(a.total_packets, 8u);
  EXPECT_TRUE(a.well_formed());
  EXPECT_EQ(a.block_len(0), 100u);
  EXPECT_EQ(a.block_len(7), 100u);
  EXPECT_EQ(a.block_len(8), 0u);  // past the message end
  EXPECT_EQ(a.group_blocks(0, 8), 8u);
  EXPECT_EQ(a.group_blocks(1, 8), 0u);
}

TEST(AllocGeometry, OneGroupPlusAByte) {
  const AllocRequest a = AllocRequest::for_message(801, 100);
  EXPECT_EQ(a.total_packets, 9u);
  EXPECT_TRUE(a.well_formed());
  EXPECT_EQ(a.block_len(7), 100u);
  EXPECT_EQ(a.block_len(8), 1u);
  EXPECT_EQ(a.group_blocks(0, 8), 8u);
  EXPECT_EQ(a.group_blocks(1, 8), 1u);
  EXPECT_EQ(a.group_blocks(2, 8), 0u);
}

TEST(AllocGeometry, ShortTailGroup) {
  const AllocRequest a = AllocRequest::for_message(1050, 100);
  EXPECT_EQ(a.total_packets, 11u);
  EXPECT_TRUE(a.well_formed());
  EXPECT_EQ(a.block_len(9), 100u);
  EXPECT_EQ(a.block_len(10), 50u);
  EXPECT_EQ(a.group_blocks(0, 8), 8u);
  EXPECT_EQ(a.group_blocks(1, 8), 3u);
  EXPECT_EQ(a.group_blocks(0, 4), 4u);
  EXPECT_EQ(a.group_blocks(2, 4), 3u);
}

TEST(AllocGeometry, MalformedRequestsRejected) {
  EXPECT_FALSE((AllocRequest{100, 0, 1}).well_formed());  // zero packet size
  // A packet that does not fit one UDP datagram with its header.
  EXPECT_FALSE((AllocRequest{70'000, 65'500, 2}).well_formed());
  EXPECT_TRUE((AllocRequest{70'000, 65'495, 2}).well_formed());
  // Packet counts that do not add up.
  EXPECT_FALSE((AllocRequest{1050, 100, 10}).well_formed());
  EXPECT_FALSE((AllocRequest{1050, 100, 12}).well_formed());
  EXPECT_FALSE((AllocRequest{0, 100, 0}).well_formed());
  // A length near the top of the 64-bit space must not wrap into a match.
  EXPECT_FALSE((AllocRequest{UINT64_MAX, 1, 0}).well_formed());
  EXPECT_FALSE((AllocRequest{UINT64_MAX, 1, UINT32_MAX}).well_formed());
}

TEST(GroupNakExpansion, NamesExactlyTheMissingBlocksOfTheGroup) {
  // Bits expand into absolute sequence numbers within the group; bits at
  // or past the blocks a short tail group holds are ignored.
  const GroupNak nak{0b1000'0101};
  EXPECT_EQ(nak.missing_seqs(2, 8, 8), (std::vector<std::uint32_t>{16, 18, 23}));
  EXPECT_EQ(nak.missing_seqs(2, 8, 3), (std::vector<std::uint32_t>{16, 18}));
  EXPECT_EQ(nak.missing_seqs(0, 8, 0), std::vector<std::uint32_t>{});
  EXPECT_EQ(GroupNak{0}.missing_seqs(0, 8, 8), std::vector<std::uint32_t>{});
  // The full 64-block bitmap.
  EXPECT_EQ(GroupNak{~std::uint64_t{0}}.missing_seqs(1, 64, 64).size(), 64u);
  EXPECT_EQ(GroupNak{std::uint64_t{1} << 63}.missing_seqs(1, 64, 64),
            (std::vector<std::uint32_t>{127}));
}

// Fuzz-style property: random byte strings must either parse into a
// well-formed header or be rejected — never crash, never read out of
// bounds, and parsing must be a pure function of the first 12 bytes.
class WireFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzzTest, RandomBytesNeverBreakTheParser) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const std::size_t len = rng.uniform(40);
    Buffer bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());

    Reader r(BytesView(bytes.data(), bytes.size()));
    auto header = read_header(r);
    if (len < kHeaderBytes) {
      EXPECT_FALSE(header.has_value());
      continue;
    }
    if (header) {
      // Whatever parsed must re-serialize to the same 12 bytes.
      Writer w;
      write_header(w, *header);
      ASSERT_EQ(w.size(), kHeaderBytes);
      EXPECT_TRUE(std::equal(w.buffer().begin(), w.buffer().end(), bytes.begin()));
    } else {
      // Rejection must be because of the type octet, nothing else.
      EXPECT_TRUE(bytes[0] < 1 || bytes[0] > 9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Values(1, 2, 3, 4));

TEST(WireFuzz, RandomHeadersAlwaysRoundTrip) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    Header in;
    in.type = static_cast<PacketType>(1 + rng.uniform(9));
    in.flags = static_cast<std::uint8_t>(rng.next());
    in.node_id = static_cast<std::uint16_t>(rng.next());
    in.session = static_cast<std::uint32_t>(rng.next());
    in.seq = static_cast<std::uint32_t>(rng.next());
    Writer w;
    write_header(w, in);
    Reader r(BytesView(w.buffer().data(), w.buffer().size()));
    auto out = read_header(r);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->type, in.type);
    EXPECT_EQ(out->flags, in.flags);
    EXPECT_EQ(out->node_id, in.node_id);
    EXPECT_EQ(out->session, in.session);
    EXPECT_EQ(out->seq, in.seq);
  }
}

// ---------------------------------------------------------------------------
// Serial sequence arithmetic (RFC 1982 style).

TEST(SerialSeq, OrdersWithoutWrap) {
  EXPECT_TRUE(seq_lt(3, 7));
  EXPECT_FALSE(seq_lt(7, 3));
  EXPECT_FALSE(seq_lt(5, 5));
  EXPECT_TRUE(seq_le(5, 5));
  EXPECT_TRUE(seq_gt(7, 3));
  EXPECT_TRUE(seq_ge(5, 5));
}

TEST(SerialSeq, OrdersAcrossTheWrap) {
  // 0 comes *after* 0xFFFFFFFF: magnitude comparison gets exactly this
  // case backwards.
  EXPECT_TRUE(seq_lt(0xFFFFFFFFu, 0u));
  EXPECT_FALSE(seq_lt(0u, 0xFFFFFFFFu));
  EXPECT_TRUE(seq_lt(0xFFFFFFF0u, 0x0000000Fu));
  EXPECT_TRUE(seq_gt(0x00000002u, 0xFFFFFFFEu));
  EXPECT_TRUE(seq_le(0xFFFFFFFEu, 0x00000001u));
  EXPECT_TRUE(seq_ge(0x00000001u, 0xFFFFFFFEu));
}

TEST(SerialSeq, MaxMinFollowSerialOrder) {
  EXPECT_EQ(seq_max(3u, 7u), 7u);
  EXPECT_EQ(seq_min(3u, 7u), 3u);
  // Across the wrap the *small* integer is the later sequence number.
  EXPECT_EQ(seq_max(0xFFFFFFFEu, 0x00000001u), 0x00000001u);
  EXPECT_EQ(seq_min(0xFFFFFFFEu, 0x00000001u), 0xFFFFFFFEu);
}

TEST(SerialSeq, ValidWithinHalfTheSpace) {
  // The comparison holds for any pair within 2^31 of each other — the
  // furthest apart two live window values can ever be.
  const std::uint32_t base = 0x80000000u;
  EXPECT_TRUE(seq_lt(base, base + 0x7FFFFFFFu));
  EXPECT_TRUE(seq_gt(base + 0x7FFFFFFFu, base));
  // Increments stay ordered through the boundary one step at a time.
  std::uint32_t s = 0xFFFFFFFDu;
  for (int i = 0; i < 6; ++i, ++s) EXPECT_TRUE(seq_lt(s, s + 1));
}

}  // namespace
}  // namespace rmc::rmcast
