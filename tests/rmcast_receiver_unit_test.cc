// Receiver unit tests using fake runtime/sockets: exact per-packet
// behaviour of the four acknowledgment policies, duplicate and stale
// handling, NAK rate limiting, selective-repeat reordering, and the
// flat-tree chain relay — scenarios a live network reproduces only by
// luck, asserted here deterministically.
#include <gtest/gtest.h>

#include "common/buffer_recycler.h"
#include "fake_runtime.h"
#include "rmcast/receiver.h"

namespace rmc {
namespace {

using rmcast::Header;
using rmcast::PacketType;
using rmcast::ProtocolConfig;
using rmcast::ProtocolKind;
using test::fake_membership;
using test::FakeRuntime;
using test::FakeSocket;

constexpr std::size_t kN = 4;  // receivers in the fake group

Buffer data_packet(std::uint32_t session, std::uint32_t seq, std::uint8_t flags,
                   std::size_t len) {
  Writer w;
  rmcast::write_header(w, Header{PacketType::kData, flags, rmcast::kSenderNodeId,
                                 session, seq});
  Buffer body(len, static_cast<std::uint8_t>(seq));
  w.bytes(BytesView(body.data(), body.size()));
  return w.take();
}

Buffer alloc_packet(std::uint32_t session, std::uint64_t bytes, std::uint32_t pkt,
                    std::uint32_t total) {
  Writer w;
  rmcast::write_header(w, Header{PacketType::kAllocReq, 0, rmcast::kSenderNodeId,
                                 session, 0});
  rmcast::write_alloc_request(w, rmcast::AllocRequest{bytes, pkt, total});
  return w.take();
}

class ReceiverUnit {
 public:
  // Receivers given the same `assembly` are one group's (as a Session
  // wires them); null gives this receiver a group of its own.
  ReceiverUnit(ProtocolKind kind, std::size_t node_id, std::size_t height = 2,
               bool selective_repeat = false,
               std::shared_ptr<rmcast::GroupAssembly> assembly = nullptr)
      : membership_(fake_membership(kN)),
        data_socket_(membership_.group),
        control_socket_(membership_.receiver_control[node_id]) {
    config_.kind = kind;
    config_.packet_size = 100;
    config_.window_size = 8;
    config_.poll_interval = 3;
    config_.tree_height = height;
    config_.selective_repeat = selective_repeat;
    receiver_ = std::make_unique<rmcast::MulticastReceiver>(
        runtime_, data_socket_, control_socket_, rmcast::SharedMembership(membership_),
        node_id, config_, std::move(assembly));
    receiver_->set_message_handler([this](const Buffer& message, std::uint32_t session) {
      delivered_.push_back({session, message});
    });
  }

  // Starts session `s` with `total` packets of 100 bytes.
  void start_session(std::uint32_t s, std::uint32_t total) {
    data_socket_.inject(membership_.sender_control,
                        alloc_packet(s, std::uint64_t{total} * 100, 100, total));
  }

  void inject_data(std::uint32_t session, std::uint32_t seq, std::uint8_t flags = 0,
                   std::size_t len = 100) {
    data_socket_.inject(membership_.sender_control, data_packet(session, seq, flags, len));
  }

  // All control packets emitted so far (both sockets share the control
  // socket for sends).
  std::vector<Header> control_sent() const { return control_socket_.sent_headers(); }
  void clear_sent() { control_socket_.clear_sent(); }

  struct Delivery {
    std::uint32_t session;
    Buffer message;
  };

  FakeRuntime runtime_;
  rmcast::GroupMembership membership_;
  FakeSocket data_socket_;
  FakeSocket control_socket_;
  ProtocolConfig config_;
  std::unique_ptr<rmcast::MulticastReceiver> receiver_;
  std::vector<Delivery> delivered_;
};

TEST(ReceiverAlloc, RespondsToSenderAndAllocates) {
  ReceiverUnit u(ProtocolKind::kAck, 0);
  u.start_session(1, 5);
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kAllocRsp);
  EXPECT_EQ(sent[0].session, 1u);
  EXPECT_EQ(sent[0].node_id, 0);
  EXPECT_EQ(u.control_socket_.sent()[0].dst, u.membership_.sender_control);
  EXPECT_EQ(u.receiver_->stats().alloc_requests_received, 1u);
}

TEST(ReceiverAlloc, DuplicateRequestReAcknowledged) {
  ReceiverUnit u(ProtocolKind::kAck, 0);
  u.start_session(1, 5);
  u.start_session(1, 5);
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[1].type, PacketType::kAllocRsp);
  EXPECT_EQ(u.receiver_->stats().alloc_responses_sent, 2u);
}

TEST(ReceiverAlloc, OlderSessionIgnored) {
  ReceiverUnit u(ProtocolKind::kAck, 0);
  u.start_session(5, 3);
  u.clear_sent();
  u.start_session(4, 3);  // stale
  EXPECT_TRUE(u.control_sent().empty());
  EXPECT_EQ(u.receiver_->stats().stale_packets, 1u);
}

TEST(ReceiverData, AckPolicyAcknowledgesEveryInOrderPacket) {
  ReceiverUnit u(ProtocolKind::kAck, 2);
  u.start_session(1, 3);
  u.clear_sent();
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    u.inject_data(1, seq, seq == 2 ? rmcast::kFlagLast : 0);
  }
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sent[i].type, PacketType::kAck);
    EXPECT_EQ(sent[i].seq, i + 1);  // cumulative count
    EXPECT_EQ(sent[i].node_id, 2);
  }
  ASSERT_EQ(u.delivered_.size(), 1u);
  EXPECT_EQ(u.delivered_[0].message.size(), 300u);
}

TEST(ReceiverData, DataBeforeAllocIsStale) {
  ReceiverUnit u(ProtocolKind::kAck, 0);
  u.inject_data(1, 0);
  EXPECT_TRUE(u.control_sent().empty());
  EXPECT_EQ(u.receiver_->stats().stale_packets, 1u);
}

TEST(ReceiverData, WrongSessionDataIgnored) {
  ReceiverUnit u(ProtocolKind::kAck, 0);
  u.start_session(2, 3);
  u.clear_sent();
  u.inject_data(1, 0);  // previous session
  u.inject_data(3, 0);  // future session (impossible without alloc)
  EXPECT_TRUE(u.control_sent().empty());
  EXPECT_EQ(u.receiver_->stats().stale_packets, 2u);
}

TEST(ReceiverData, SeqBeyondTotalIgnored) {
  ReceiverUnit u(ProtocolKind::kAck, 0);
  u.start_session(1, 3);
  u.clear_sent();
  u.inject_data(1, 7);
  EXPECT_TRUE(u.control_sent().empty());
  EXPECT_EQ(u.receiver_->stats().stale_packets, 1u);
}

TEST(ReceiverData, GoBackNDropsOutOfOrderAndNaks) {
  ReceiverUnit u(ProtocolKind::kAck, 1);
  u.start_session(1, 4);
  u.clear_sent();
  u.inject_data(1, 0);
  u.inject_data(1, 2);  // gap: 1 missing
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0].type, PacketType::kAck);
  EXPECT_EQ(sent[1].type, PacketType::kNak);
  EXPECT_EQ(sent[1].seq, 1u);  // first missing
  EXPECT_EQ(u.control_socket_.sent()[1].dst, u.membership_.sender_control);
  // Packet 2 was dropped (GBN): retransmitted 1 then 2 must both be
  // consumed in order.
  u.clear_sent();
  u.inject_data(1, 1, rmcast::kFlagRetrans);
  u.inject_data(1, 2, rmcast::kFlagRetrans);
  sent = u.control_sent();
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0].seq, 2u);
  EXPECT_EQ(sent[1].seq, 3u);
  EXPECT_EQ(u.receiver_->stats().gaps_detected, 1u);
}

TEST(ReceiverData, NakRateLimited) {
  ReceiverUnit u(ProtocolKind::kNakPolling, 0);
  u.start_session(1, 10);
  u.clear_sent();
  u.inject_data(1, 3);  // gap at 0
  u.inject_data(1, 4);  // still gapped, within the NAK interval
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kNak);
  EXPECT_EQ(u.receiver_->stats().naks_suppressed, 1u);
  // After the interval, a fresh gap event emits again.
  u.runtime_.advance(sim::milliseconds(3));
  u.inject_data(1, 5);
  EXPECT_EQ(u.control_sent().size(), 2u);
}

TEST(ReceiverData, DuplicateReAcknowledgedUnderAckPolicy) {
  ReceiverUnit u(ProtocolKind::kAck, 0);
  u.start_session(1, 3);
  u.inject_data(1, 0);
  u.clear_sent();
  u.inject_data(1, 0, rmcast::kFlagRetrans);
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kAck);
  EXPECT_EQ(sent[0].seq, 1u);
  EXPECT_EQ(u.receiver_->stats().duplicates, 1u);
}

TEST(ReceiverNakPolling, AcknowledgesOnlyPolledAndLastPackets) {
  ReceiverUnit u(ProtocolKind::kNakPolling, 0);  // poll interval 3
  u.start_session(1, 7);
  u.clear_sent();
  // seq 2 and 5 carry POLL (i-1 mod i), seq 6 carries LAST.
  for (std::uint32_t seq = 0; seq < 7; ++seq) {
    std::uint8_t flags = 0;
    if (seq % 3 == 2) flags |= rmcast::kFlagPoll;
    if (seq == 6) flags |= rmcast::kFlagLast;
    u.inject_data(1, seq, flags);
  }
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 3u);
  EXPECT_EQ(sent[0].seq, 3u);
  EXPECT_EQ(sent[1].seq, 6u);
  EXPECT_EQ(sent[2].seq, 7u);
}

TEST(ReceiverNakPolling, DuplicateWithoutPollStaysSilent) {
  ReceiverUnit u(ProtocolKind::kNakPolling, 0);
  u.start_session(1, 5);
  u.inject_data(1, 0);
  u.inject_data(1, 1);
  u.clear_sent();
  u.inject_data(1, 0, rmcast::kFlagRetrans);  // no POLL, no LAST
  EXPECT_TRUE(u.control_sent().empty());
  u.inject_data(1, 1, rmcast::kFlagRetrans | rmcast::kFlagPoll);
  ASSERT_EQ(u.control_sent().size(), 1u);
  EXPECT_EQ(u.control_sent()[0].seq, 2u);
}

TEST(ReceiverRing, AcknowledgesOwnTokensOnly) {
  ReceiverUnit u(ProtocolKind::kRing, 1);  // group of 4: tokens 1, 5, 9...
  u.start_session(1, 10);
  u.clear_sent();
  for (std::uint32_t seq = 0; seq < 9; ++seq) u.inject_data(1, seq);
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0].seq, 2u);  // consumed token 1 -> cum 2
  EXPECT_EQ(sent[1].seq, 6u);  // consumed token 5 -> cum 6
}

TEST(ReceiverRing, EveryoneAcknowledgesTheLastPacket) {
  ReceiverUnit u(ProtocolKind::kRing, 2);  // tokens 2, 6
  u.start_session(1, 4);
  u.clear_sent();
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    u.inject_data(1, seq, seq == 3 ? rmcast::kFlagLast : 0);
  }
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0].seq, 3u);  // own token 2
  EXPECT_EQ(sent[1].seq, 4u);  // LAST: all receivers respond
}

TEST(ReceiverRing, RetransmittedDuplicateHealsLostAck) {
  ReceiverUnit u(ProtocolKind::kRing, 3);
  u.start_session(1, 8);
  for (std::uint32_t seq = 0; seq < 6; ++seq) u.inject_data(1, seq);
  u.clear_sent();
  // A retransmission of someone else's token: under selective repeat this
  // is the only healing prompt the sender can give, so every holder
  // re-acknowledges.
  u.inject_data(1, 0, rmcast::kFlagRetrans);
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kAck);
  EXPECT_EQ(sent[0].seq, 6u);
  // A plain (non-retransmitted) duplicate of a foreign token stays silent.
  u.clear_sent();
  u.inject_data(1, 0);
  EXPECT_TRUE(u.control_sent().empty());
}

TEST(ReceiverSelectiveRepeat, BuffersOutOfOrderAndDrainsOnFill) {
  ReceiverUnit u(ProtocolKind::kAck, 0, 2, /*selective_repeat=*/true);
  u.start_session(1, 5);
  u.clear_sent();
  u.inject_data(1, 0);
  u.inject_data(1, 2);
  u.inject_data(1, 3);
  // Buffered 2 and 3; one NAK for the gap at 1 (second gap rate-limited).
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0].type, PacketType::kAck);
  EXPECT_EQ(sent[1].type, PacketType::kNak);
  EXPECT_EQ(sent[1].seq, 1u);
  u.clear_sent();
  u.inject_data(1, 1, rmcast::kFlagRetrans);
  sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].seq, 4u);  // drained through the buffered packets
  EXPECT_GT(u.receiver_->stats().peak_reorder_bytes, 0u);
}

TEST(ReceiverDelivery, ExactlyOnceDespiteDuplicates) {
  ReceiverUnit u(ProtocolKind::kAck, 0);
  u.start_session(1, 2);
  u.inject_data(1, 0);
  u.inject_data(1, 1, rmcast::kFlagLast);
  u.inject_data(1, 1, rmcast::kFlagLast | rmcast::kFlagRetrans);
  ASSERT_EQ(u.delivered_.size(), 1u);
  EXPECT_EQ(u.delivered_[0].session, 1u);
  EXPECT_EQ(u.receiver_->stats().messages_delivered, 1u);
}

TEST(ReceiverRobustness, GarbageAndTruncatedPacketsIgnored) {
  ReceiverUnit u(ProtocolKind::kAck, 0);
  u.start_session(1, 3);
  u.clear_sent();
  Buffer garbage{0xFF, 0x00, 0x13};
  u.data_socket_.inject(u.membership_.sender_control, garbage);
  Buffer empty;
  u.data_socket_.inject(u.membership_.sender_control, empty);
  Buffer truncated(rmcast::kHeaderBytes - 3, 1);
  u.data_socket_.inject(u.membership_.sender_control, truncated);
  EXPECT_TRUE(u.control_sent().empty());
  EXPECT_TRUE(u.delivered_.empty());
}

TEST(ReceiverRobustness, OversizedLastBodyCountedStale) {
  // 250 bytes in 100-byte packets: the last slot holds 50. A full-size
  // body there would write past the message.
  ReceiverUnit u(ProtocolKind::kAck, 0);
  u.data_socket_.inject(u.membership_.sender_control, alloc_packet(1, 250, 100, 3));
  u.inject_data(1, 0);
  u.inject_data(1, 1);
  u.clear_sent();
  u.inject_data(1, 2, rmcast::kFlagLast, 100);
  EXPECT_EQ(u.receiver_->stats().stale_packets, 1u);
  EXPECT_TRUE(u.control_sent().empty());
  EXPECT_TRUE(u.delivered_.empty());
  u.inject_data(1, 2, rmcast::kFlagLast, 50);
  ASSERT_EQ(u.delivered_.size(), 1u);
  EXPECT_EQ(u.delivered_[0].message.size(), 250u);
}

TEST(ReceiverRobustness, ShortBodyCountedStale) {
  // A short body would leave a hole of stale bytes in the message.
  ReceiverUnit u(ProtocolKind::kAck, 0);
  u.start_session(1, 2);
  u.clear_sent();
  u.inject_data(1, 0, 0, 60);
  EXPECT_EQ(u.receiver_->stats().stale_packets, 1u);
  EXPECT_EQ(u.receiver_->stats().data_packets_received, 0u);
  EXPECT_TRUE(u.control_sent().empty());
  u.inject_data(1, 0);
  u.inject_data(1, 1, rmcast::kFlagLast);
  EXPECT_EQ(u.delivered_.size(), 1u);
}

TEST(ReceiverRobustness, MalformedAllocRequestsIgnored) {
  ReceiverUnit u(ProtocolKind::kAck, 0);
  const net::Endpoint from = u.membership_.sender_control;
  u.data_socket_.inject(from, alloc_packet(1, 300, 0, 3));   // zero packet size
  u.data_socket_.inject(from, alloc_packet(1, 300, 100, 4)); // 4 packets of 100 != 300 B
  u.data_socket_.inject(from, alloc_packet(1, 300, 100, 2));
  u.data_socket_.inject(from, alloc_packet(1, 0, 100, 0));   // even empty needs one
  u.data_socket_.inject(from, alloc_packet(1, 1 << 20, 70'000, 15));  // beyond UDP
  EXPECT_TRUE(u.control_sent().empty());
  EXPECT_EQ(u.receiver_->stats().alloc_requests_received, 0u);
  u.inject_data(1, 0);  // no session was opened
  EXPECT_EQ(u.receiver_->stats().stale_packets, 1u);
  // The well-formed request still works, including the empty message.
  u.data_socket_.inject(from, alloc_packet(1, 0, 100, 1));
  EXPECT_EQ(u.receiver_->stats().alloc_requests_received, 1u);
  u.inject_data(1, 0, rmcast::kFlagLast, 0);
  ASSERT_EQ(u.delivered_.size(), 1u);
  EXPECT_TRUE(u.delivered_[0].message.empty());
}

// --- recycled message buffers ------------------------------------------------

// Session `s`'s message: a pattern distinct per session.
Buffer session_message(std::uint32_t s, std::size_t bytes) {
  Buffer m(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    m[i] = static_cast<std::uint8_t>(i * 31 + s * 101 + (i >> 9));
  }
  return m;
}

std::uint32_t packet_count(const Buffer& message, std::uint32_t packet) {
  return static_cast<std::uint32_t>(
      std::max<std::size_t>(1, (message.size() + packet - 1) / packet));
}

// Opens session `s` of `message` in `packet`-byte packets.
void open_session(ReceiverUnit& u, std::uint32_t s, const Buffer& message,
                  std::uint32_t packet) {
  u.data_socket_.inject(u.membership_.sender_control,
                        alloc_packet(s, message.size(), packet,
                                     packet_count(message, packet)));
}

// Data packet `seq` of session `s` of `message`.
void inject_block(ReceiverUnit& u, std::uint32_t s, const Buffer& message,
                  std::uint32_t packet, std::uint32_t seq) {
  const std::uint32_t total = packet_count(message, packet);
  const std::size_t off = std::size_t{seq} * packet;
  const std::size_t len = std::min<std::size_t>(packet, message.size() - off);
  Writer w;
  rmcast::write_header(w, Header{PacketType::kData,
                                 seq + 1 == total ? rmcast::kFlagLast : std::uint8_t{0},
                                 rmcast::kSenderNodeId, s, seq});
  w.bytes(BytesView(message.data() + off, len));
  u.data_socket_.inject(u.membership_.sender_control, w.take());
}

// Runs one complete session of `message` in `packet`-byte packets.
void deliver_session(ReceiverUnit& u, std::uint32_t s, const Buffer& message,
                     std::uint32_t packet) {
  open_session(u, s, message, packet);
  for (std::uint32_t seq = 0; seq < packet_count(message, packet); ++seq) {
    inject_block(u, s, message, packet, seq);
  }
}

TEST(ReceiverRecycling, SessionsOfChangingSizeDeliverExactBytes) {
  // The buffer is reused across sessions and never zeroed: the 1 KB
  // session runs in the 2 MB session's storage, and the second 2 MB
  // session grows back into it. Every byte must still be this session's.
  ReceiverUnit u(ProtocolKind::kAck, 0);
  const std::vector<Buffer> messages = {session_message(1, 2'000'000),
                                        session_message(2, 1'000),
                                        session_message(3, 2'000'000)};
  for (std::uint32_t s = 1; s <= messages.size(); ++s) {
    deliver_session(u, s, messages[s - 1], 8000);
  }
  ASSERT_EQ(u.delivered_.size(), messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(u.delivered_[i].message, messages[i]) << "session " << i + 1;
  }
}

TEST(ReceiverRecycling, FreshReceiversAfterALargerTransferDeliverExactBytes) {
  {
    ReceiverUnit big(ProtocolKind::kAck, 0);
    deliver_session(big, 1, session_message(1, 2'000'000), 8000);
    ASSERT_EQ(big.delivered_.size(), 1u);
  }
  // The 2 MB buffer, full of session 1's bytes, is now pooled on this
  // thread; fresh receivers of smaller messages take from the pool.
  EXPECT_GE(BufferRecycler::instance().pooled(), 1u);
  std::vector<std::unique_ptr<ReceiverUnit>> fresh;
  for (std::size_t node = 0; node < 3; ++node) {
    fresh.push_back(std::make_unique<ReceiverUnit>(ProtocolKind::kAck, node));
  }
  const Buffer message = session_message(7, 300'001);
  for (auto& u : fresh) {
    deliver_session(*u, 7, message, 1000);
    ASSERT_EQ(u->delivered_.size(), 1u);
    EXPECT_EQ(u->delivered_[0].message, message);
  }
}

// --- one message per group --------------------------------------------------

TEST(ReceiverGroupAssembly, ADivergentReceiverDeliversItsOwnBytesInEitherFeedOrder) {
  // Two receivers of one group accept the same session, except that one
  // block reaches `tampered` with one byte flipped. Whichever receiver
  // stores that block first, each must deliver exactly what it accepted.
  const Buffer message = session_message(1, 1'050);  // 11 blocks of 100
  const std::size_t flipped = 437;                    // in block 4
  Buffer altered = message;
  altered[flipped] ^= 0x80;
  const std::uint32_t total = packet_count(message, 100);
  for (const bool tampered_first : {false, true}) {
    auto group = std::make_shared<rmcast::GroupAssembly>();
    ReceiverUnit clean(ProtocolKind::kAck, 0, 2, false, group);
    ReceiverUnit tampered(ProtocolKind::kAck, 1, 2, false, group);
    open_session(clean, 1, message, 100);
    open_session(tampered, 1, altered, 100);
    for (std::uint32_t seq = 0; seq < total; ++seq) {
      if (tampered_first) inject_block(tampered, 1, altered, 100, seq);
      inject_block(clean, 1, message, 100, seq);
      if (!tampered_first) inject_block(tampered, 1, altered, 100, seq);
    }
    ASSERT_EQ(clean.delivered_.size(), 1u);
    ASSERT_EQ(tampered.delivered_.size(), 1u);
    EXPECT_EQ(clean.delivered_[0].message, message) << "tampered first: " << tampered_first;
    const Buffer& own = tampered.delivered_[0].message;
    ASSERT_EQ(own.size(), message.size());
    std::vector<std::size_t> differ;
    for (std::size_t i = 0; i < own.size(); ++i) {
      if (own[i] != message[i]) differ.push_back(i);
    }
    EXPECT_EQ(differ, std::vector<std::size_t>{flipped})
        << "tampered first: " << tampered_first;
  }
}

TEST(ReceiverGroupAssembly, AStragglerKeepsItsSessionsBytes) {
  // `fast` finishes session 1 and fills most of session 2 before `slow`
  // has seen the second half of session 1; a receiver joining the group
  // late compares session 2 from its first block.
  auto group = std::make_shared<rmcast::GroupAssembly>();
  ReceiverUnit fast(ProtocolKind::kAck, 0, 2, false, group);
  ReceiverUnit slow(ProtocolKind::kAck, 1, 2, false, group);
  const Buffer first = session_message(1, 1'000);
  const Buffer second = session_message(2, 1'000);
  open_session(slow, 1, first, 100);
  for (std::uint32_t seq = 0; seq < 5; ++seq) inject_block(slow, 1, first, 100, seq);
  deliver_session(fast, 1, first, 100);
  open_session(fast, 2, second, 100);
  for (std::uint32_t seq = 0; seq < 8; ++seq) inject_block(fast, 2, second, 100, seq);
  for (std::uint32_t seq = 5; seq < 10; ++seq) inject_block(slow, 1, first, 100, seq);
  ReceiverUnit late(ProtocolKind::kAck, 2, 2, false, group);
  deliver_session(late, 2, second, 100);
  for (std::uint32_t seq = 8; seq < 10; ++seq) inject_block(fast, 2, second, 100, seq);
  ASSERT_EQ(slow.delivered_.size(), 1u);
  EXPECT_EQ(slow.delivered_[0].message, first);
  ASSERT_EQ(fast.delivered_.size(), 2u);
  EXPECT_EQ(fast.delivered_[0].message, first);
  EXPECT_EQ(fast.delivered_[1].message, second);
  ASSERT_EQ(late.delivered_.size(), 1u);
  EXPECT_EQ(late.delivered_[0].message, second);
}

// --- flat-tree chain behaviour ---------------------------------------------

Buffer chain_ack(std::uint32_t session, std::uint16_t node, std::uint32_t cum) {
  return rmcast::make_control_packet(
      Header{PacketType::kAck, 0, node, session, cum});
}

Buffer chain_alloc_rsp(std::uint32_t session, std::uint16_t node) {
  return rmcast::make_control_packet(Header{PacketType::kAllocRsp, 0, node, session, 0});
}

// Group of 4 with height 2: chains {0,1} and {2,3}; node 0 and 2 are
// heads, 1 and 3 are tails.
TEST(ReceiverTree, TailAcksEveryPacketToPredecessor) {
  ReceiverUnit u(ProtocolKind::kFlatTree, 1);
  u.start_session(1, 3);
  // Tail responds to alloc immediately, to its predecessor (node 0).
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kAllocRsp);
  EXPECT_EQ(u.control_socket_.sent()[0].dst, u.membership_.receiver_control[0]);
  u.clear_sent();
  u.inject_data(1, 0);
  sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kAck);
  EXPECT_EQ(sent[0].seq, 1u);
  EXPECT_EQ(u.control_socket_.sent()[0].dst, u.membership_.receiver_control[0]);
}

TEST(ReceiverTree, HeadWaitsForSuccessorBeforeAcking) {
  ReceiverUnit u(ProtocolKind::kFlatTree, 0);  // head of chain {0,1}
  u.start_session(1, 3);
  // Head must not respond to alloc until the tail's response arrives.
  EXPECT_TRUE(u.control_sent().empty());
  u.control_socket_.inject(u.membership_.receiver_control[1], chain_alloc_rsp(1, 1));
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kAllocRsp);
  EXPECT_EQ(u.control_socket_.sent()[0].dst, u.membership_.sender_control);

  // Data: holding the packet is necessary but not sufficient.
  u.clear_sent();
  u.inject_data(1, 0);
  EXPECT_TRUE(u.control_sent().empty());
  u.control_socket_.inject(u.membership_.receiver_control[1], chain_ack(1, 1, 1));
  sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kAck);
  EXPECT_EQ(sent[0].seq, 1u);
  EXPECT_EQ(u.control_socket_.sent()[0].dst, u.membership_.sender_control);
}

TEST(ReceiverTree, SuccessorAheadOfSelfIsClamped) {
  ReceiverUnit u(ProtocolKind::kFlatTree, 0);
  u.start_session(1, 4);
  u.control_socket_.inject(u.membership_.receiver_control[1], chain_alloc_rsp(1, 1));
  u.clear_sent();
  // The successor claims cum 3 but we only hold 1 packet: report min.
  u.inject_data(1, 0);
  u.control_socket_.inject(u.membership_.receiver_control[1], chain_ack(1, 1, 3));
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].seq, 1u);
  // Catching up reports the min again.
  u.clear_sent();
  u.inject_data(1, 1);
  u.inject_data(1, 2);
  sent = u.control_sent();
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[1].seq, 3u);
}

TEST(ReceiverTree, ChainTrafficBeforeAllocIsHeldForTheSession) {
  // The multicast ALLOC_REQ and the unicast chain traffic race; a head
  // may hear its tail's response (or even data ACKs) first and must apply
  // them once its own request arrives.
  ReceiverUnit u(ProtocolKind::kFlatTree, 0);
  u.control_socket_.inject(u.membership_.receiver_control[1], chain_alloc_rsp(1, 1));
  u.control_socket_.inject(u.membership_.receiver_control[1], chain_ack(1, 1, 1));
  EXPECT_TRUE(u.control_sent().empty());
  u.start_session(1, 3);
  // Alloc response flows immediately (tail already confirmed).
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kAllocRsp);
  // And the buffered chain ACK counts once data arrives.
  u.clear_sent();
  u.inject_data(1, 0);
  sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kAck);
  EXPECT_EQ(sent[0].seq, 1u);
}

TEST(ReceiverTree, ReAckFromSuccessorPropagatesUpstream) {
  ReceiverUnit u(ProtocolKind::kFlatTree, 0);
  u.start_session(1, 2);
  u.control_socket_.inject(u.membership_.receiver_control[1], chain_alloc_rsp(1, 1));
  u.inject_data(1, 0);
  u.control_socket_.inject(u.membership_.receiver_control[1], chain_ack(1, 1, 1));
  u.clear_sent();
  // The tail re-ACKs (it saw a retransmitted duplicate): the head forwards
  // the repair even though nothing advanced.
  u.control_socket_.inject(u.membership_.receiver_control[1], chain_ack(1, 1, 1));
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kAck);
  EXPECT_EQ(sent[0].seq, 1u);
}

// Tree ALLOC_RSP relay: a node answers upstream once its whole subtree
// has, and re-answers when a child repeats itself (the child's duplicate
// means some response above it was lost).
TEST(ReceiverTree, DuplicateAllocRspFromTailResendsUpstream) {
  ReceiverUnit u(ProtocolKind::kFlatTree, 0);  // head of chain {0,1}
  u.start_session(1, 3);
  u.control_socket_.inject(u.membership_.receiver_control[1], chain_alloc_rsp(1, 1));
  ASSERT_EQ(u.control_sent().size(), 1u);
  u.clear_sent();
  u.control_socket_.inject(u.membership_.receiver_control[1], chain_alloc_rsp(1, 1));
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kAllocRsp);
  EXPECT_EQ(sent[0].session, 1u);
  EXPECT_EQ(sent[0].node_id, 0);
  EXPECT_EQ(u.control_socket_.sent()[0].dst, u.membership_.sender_control);
  EXPECT_EQ(u.receiver_->stats().alloc_responses_sent, 2u);
  EXPECT_EQ(u.receiver_->stats().relayed_acks_received, 2u);
}

TEST(ReceiverTree, BinaryNodeAnswersAllocOnlyAfterBothChildren) {
  // Binary heap over 4 receivers: node 0's children are 1 and 2.
  ReceiverUnit u(ProtocolKind::kBinaryTree, 0);
  u.start_session(1, 3);
  EXPECT_TRUE(u.control_sent().empty());
  u.control_socket_.inject(u.membership_.receiver_control[2], chain_alloc_rsp(1, 2));
  EXPECT_TRUE(u.control_sent().empty());
  u.control_socket_.inject(u.membership_.receiver_control[1], chain_alloc_rsp(1, 1));
  auto sent = u.control_sent();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kAllocRsp);
  EXPECT_EQ(u.control_socket_.sent()[0].dst, u.membership_.sender_control);
}

TEST(ReceiverTree, ReportsFromNonChildrenAreStale) {
  ReceiverUnit u(ProtocolKind::kFlatTree, 0);  // child is node 1 only
  u.start_session(1, 3);
  u.inject_data(1, 0);
  ASSERT_TRUE(u.control_sent().empty());
  const std::uint64_t stale = u.receiver_->stats().stale_packets;
  u.control_socket_.inject(u.membership_.receiver_control[2], chain_ack(1, 2, 1));
  EXPECT_EQ(u.receiver_->stats().stale_packets, stale + 1);
  EXPECT_TRUE(u.control_sent().empty());
  u.control_socket_.inject(u.membership_.receiver_control[3], chain_alloc_rsp(1, 3));
  EXPECT_EQ(u.receiver_->stats().stale_packets, stale + 2);
  EXPECT_TRUE(u.control_sent().empty());
  EXPECT_EQ(u.receiver_->stats().relayed_acks_received, 0u);
}

// FakeRuntime whose modelled CPU costs take simulated time: run_cost()
// completes `cost` later, on advance(), so work can be caught in flight.
class CostedRuntime final : public rt::Runtime {
 public:
  sim::Time now() override { return clock_.now(); }
  rt::TimerId schedule_after(sim::Time delay, std::function<void()> fn) override {
    return clock_.schedule_after(delay, std::move(fn));
  }
  void cancel(rt::TimerId id) override { clock_.cancel(id); }
  void run_cost(sim::Time cost, std::function<void()> fn) override {
    clock_.schedule_after(cost, std::move(fn));
  }
  void advance(sim::Time delta) { clock_.advance(delta); }

 private:
  FakeRuntime clock_;
};

// EC-XOR parity of `group` (k blocks of data_packet()'s filler) in a
// PARITY packet.
Buffer xor_parity_packet(std::uint32_t session, std::uint32_t group, std::size_t k,
                         std::size_t len) {
  Writer w;
  rmcast::write_header(w, Header{PacketType::kParity, 0, rmcast::kSenderNodeId, session,
                                 group});
  std::uint8_t fold = 0;
  for (std::size_t i = 0; i < k; ++i) fold ^= static_cast<std::uint8_t>(group * k + i);
  const Buffer body(len, fold);
  w.bytes(BytesView(body.data(), body.size()));
  return w.take();
}

// The tail group's parity arrives while the previous group's decode is in
// flight, and then the stream goes silent. Everything the tail group
// needs is held once that decode drains, but a finished decode does not
// try the next group, and nothing else arrives to: the tail group decodes
// only when the inactivity timer fires, receiver_timeout after the last
// arrival. This pins that wait; a receiver that tries the next group
// after the drain delivers at the first decode's completion instead.
TEST(ReceiverFec, TailGroupDecodableDuringAnInFlightDecodeWaitsForSilence) {
  CostedRuntime runtime;
  const rmcast::GroupMembership membership = fake_membership(kN);
  FakeSocket data(membership.group);
  FakeSocket control(membership.receiver_control[0]);
  ProtocolConfig config;
  config.kind = ProtocolKind::kEcXor;
  config.packet_size = 100;
  config.fec.k = 4;
  config.fec.m = 1;
  config.window_size = 8;
  config.selective_repeat = true;
  config.receiver_driven_timeouts = true;
  config.receiver_timeout = sim::milliseconds(30);
  rmcast::MulticastReceiver receiver(runtime, data, control, membership, 0, config);
  sim::Time delivered_at = -1;
  Buffer message;
  receiver.set_message_handler([&](const Buffer& m, std::uint32_t) {
    delivered_at = runtime.now();
    message = m;
  });

  const auto& from = membership.sender_control;
  data.inject(from, alloc_packet(1, 800, 100, 8));  // groups {0..3} and {4..7}
  // Group 0 loses block 1; its parity starts a decode.
  for (std::uint32_t seq : {0u, 2u, 3u}) data.inject(from, data_packet(1, seq, 0, 100));
  data.inject(from, xor_parity_packet(1, 0, 4, 100));
  // While that decode runs, the tail group arrives without block 5.
  for (std::uint32_t seq : {4u, 6u}) data.inject(from, data_packet(1, seq, 0, 100));
  data.inject(from, data_packet(1, 7, rmcast::kFlagLast, 100));
  data.inject(from, xor_parity_packet(1, 1, 4, 100));
  EXPECT_EQ(receiver.stats().fec_decodes, 0u);

  runtime.advance(sim::milliseconds(1));  // well past one 400-byte decode
  EXPECT_EQ(receiver.stats().fec_decodes, 1u);
  EXPECT_EQ(delivered_at, -1);  // the tail group is decodable but waits

  runtime.advance(config.receiver_timeout);
  EXPECT_EQ(receiver.stats().fec_decodes, 2u);
  ASSERT_GE(delivered_at, config.receiver_timeout);
  EXPECT_EQ(receiver.stats().group_naks_sent, 0u);  // parity covered it
  ASSERT_EQ(message.size(), 800u);
  for (std::size_t i = 0; i < message.size(); ++i) {
    ASSERT_EQ(message[i], static_cast<std::uint8_t>(i / 100)) << "byte " << i;
  }
}

// Only Session's receivers skip validation (they share the roster it
// validated); a receiver built by hand still refuses a malformed roster.
TEST(ReceiverDeathTest, HandBuiltReceiverValidatesItsRoster) {
  rmcast::GroupMembership membership = fake_membership(kN);
  membership.receiver_control[2] = membership.receiver_control[1];
  FakeRuntime runtime;
  FakeSocket data(membership.group);
  FakeSocket control(membership.receiver_control[0]);
  ProtocolConfig config;
  config.kind = ProtocolKind::kAck;
  EXPECT_DEATH(rmcast::MulticastReceiver(runtime, data, control, membership, 0, config),
               "share control endpoint");
}

}  // namespace
}  // namespace rmc
