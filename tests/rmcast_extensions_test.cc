// Tests for the protocol extensions beyond the paper's four baseline
// configurations: the binary-tree aggregation structure (the paper's
// Figure-4 baseline), receiver-side multicast NAK suppression (the cited
// alternative to the paper's sender-side scheme), unicast NAK repairs,
// and rate-based flow control.
#include <gtest/gtest.h>

#include "fake_runtime.h"
#include "protocol_test_util.h"
#include "rmcast/receiver.h"
#include "rmcast/sender.h"

namespace rmc {
namespace {

using rmcast::Header;
using rmcast::PacketType;
using rmcast::ProtocolKind;
using test::pattern;
using test::ProtocolHarness;

// --- binary tree -------------------------------------------------------------

TEST(BinaryTreeLinks, HeapShape) {
  auto root = rmcast::binary_tree_links(0, 7);
  EXPECT_FALSE(root.has_parent);
  EXPECT_EQ(root.children, (std::vector<std::size_t>{1, 2}));

  auto mid = rmcast::binary_tree_links(2, 7);
  EXPECT_TRUE(mid.has_parent);
  EXPECT_EQ(mid.parent, 0u);
  EXPECT_EQ(mid.children, (std::vector<std::size_t>{5, 6}));

  auto leaf = rmcast::binary_tree_links(5, 7);
  EXPECT_EQ(leaf.parent, 2u);
  EXPECT_TRUE(leaf.children.empty());

  // Ragged bottom level: node 3 of 5 nodes has no children.
  auto edge = rmcast::binary_tree_links(1, 5);
  EXPECT_EQ(edge.children, (std::vector<std::size_t>{3, 4}));
  EXPECT_TRUE(rmcast::binary_tree_links(3, 5).children.empty());
}

TEST(BinaryTreeLinks, ParentChildMutual) {
  const std::size_t n = 13;
  for (std::size_t id = 0; id < n; ++id) {
    auto links = rmcast::binary_tree_links(id, n);
    for (std::size_t child : links.children) {
      auto child_links = rmcast::binary_tree_links(child, n);
      EXPECT_TRUE(child_links.has_parent);
      EXPECT_EQ(child_links.parent, id);
    }
    if (links.has_parent) {
      auto parent_links = rmcast::binary_tree_links(links.parent, n);
      EXPECT_NE(std::find(parent_links.children.begin(), parent_links.children.end(), id),
                parent_links.children.end());
    }
  }
}

rmcast::ProtocolConfig btree_config() {
  rmcast::ProtocolConfig c;
  c.kind = ProtocolKind::kBinaryTree;
  c.packet_size = 4000;
  c.window_size = 16;
  return c;
}

TEST(BinaryTree, DeliversExactPayload) {
  ProtocolHarness h(7, btree_config());
  Buffer message = pattern(120'000);
  ASSERT_TRUE(h.send_and_run(message));
  h.expect_all_delivered({message});
}

TEST(BinaryTree, SenderHearsOnlyTheRoot) {
  ProtocolHarness h(7, btree_config());
  ASSERT_TRUE(h.send_and_run(pattern(40'000)));  // 10 packets
  // Only receiver 0 reports to the sender: one cumulative ACK per packet.
  EXPECT_EQ(h.sender().stats().acks_received, 10u);
  EXPECT_EQ(h.receiver(0).stats().acks_sent, 10u);
  // Interior nodes aggregate two children each; leaves relay nothing.
  EXPECT_GT(h.receiver(0).stats().relayed_acks_received, 0u);
  EXPECT_EQ(h.receiver(5).stats().relayed_acks_received, 0u);
  EXPECT_EQ(h.receiver(6).stats().relayed_acks_received, 0u);
}

TEST(BinaryTree, SurvivesLoss) {
  inet::ClusterParams cluster;
  cluster.link.frame_error_rate = 0.01;
  cluster.seed = 3;
  ProtocolHarness h(7, btree_config(), cluster);
  Buffer message = pattern(150'000);
  ASSERT_TRUE(h.send_and_run(message, sim::seconds(60.0)));
  h.expect_all_delivered({message});
}

TEST(BinaryTree, SingleReceiverDegeneratesCleanly) {
  ProtocolHarness h(1, btree_config());
  Buffer message = pattern(9000);
  ASSERT_TRUE(h.send_and_run(message));
  h.expect_all_delivered({message});
}

TEST(BinaryTreeUnit, InteriorNodeAggregatesBothChildren) {
  using test::fake_membership;
  using test::FakeRuntime;
  using test::FakeSocket;

  // 7 receivers: node 1 has parent 0 and children 3, 4.
  rmcast::GroupMembership m = fake_membership(7);
  FakeRuntime runtime;
  FakeSocket data(m.group);
  FakeSocket control(m.receiver_control[1]);
  rmcast::ProtocolConfig config;
  config.kind = ProtocolKind::kBinaryTree;
  config.packet_size = 100;
  config.window_size = 8;
  rmcast::MulticastReceiver receiver(runtime, data, control, m, 1, config);

  // Alloc: must wait for BOTH children before reporting to the parent.
  Writer w;
  rmcast::write_header(w, Header{PacketType::kAllocReq, 0, rmcast::kSenderNodeId, 1, 0});
  rmcast::write_alloc_request(w, rmcast::AllocRequest{200, 100, 2});
  data.inject(m.sender_control, w.take());
  EXPECT_TRUE(control.sent().empty());
  data.inject(m.receiver_control[3],
              rmcast::make_control_packet(Header{PacketType::kAllocRsp, 0, 3, 1, 0}));
  EXPECT_TRUE(control.sent().empty());  // one child is not enough
  data.inject(m.receiver_control[4],
              rmcast::make_control_packet(Header{PacketType::kAllocRsp, 0, 4, 1, 0}));
  auto sent = control.sent_headers();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kAllocRsp);
  EXPECT_EQ(control.sent()[0].dst, m.receiver_control[0]);  // to the parent

  // Data: the upstream cum is min(self, child3, child4).
  control.clear_sent();
  Writer d;
  rmcast::write_header(d, Header{PacketType::kData, 0, rmcast::kSenderNodeId, 1, 0});
  Buffer body(100, 1);
  d.bytes(BytesView(body.data(), body.size()));
  data.inject(m.sender_control, d.take());
  EXPECT_TRUE(control.sent().empty());  // children have not confirmed
  data.inject(m.receiver_control[3],
              rmcast::make_control_packet(Header{PacketType::kAck, 0, 3, 1, 1}));
  EXPECT_TRUE(control.sent().empty());  // still waiting on child 4
  data.inject(m.receiver_control[4],
              rmcast::make_control_packet(Header{PacketType::kAck, 0, 4, 1, 1}));
  sent = control.sent_headers();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kAck);
  EXPECT_EQ(sent[0].seq, 1u);
}

// --- multicast NAK suppression ----------------------------------------------

TEST(NakSuppression, BackoffDelaysAndCancelsOnForeignNak) {
  using test::fake_membership;
  using test::FakeRuntime;
  using test::FakeSocket;

  rmcast::GroupMembership m = fake_membership(4);
  FakeRuntime runtime;
  FakeSocket data(m.group);
  FakeSocket control(m.receiver_control[0]);
  rmcast::ProtocolConfig config;
  config.kind = ProtocolKind::kNakPolling;
  config.packet_size = 100;
  config.window_size = 8;
  config.poll_interval = 4;
  config.multicast_nak_suppression = true;
  config.nak_suppress_delay = sim::milliseconds(2);
  rmcast::MulticastReceiver receiver(runtime, data, control, m, 0, config);

  auto inject_data = [&](std::uint32_t seq) {
    Writer w;
    rmcast::write_header(w, Header{PacketType::kData, 0, rmcast::kSenderNodeId, 1, seq});
    Buffer body(100, 1);
    w.bytes(BytesView(body.data(), body.size()));
    data.inject(m.sender_control, w.take());
  };
  {
    Writer w;
    rmcast::write_header(w,
                         Header{PacketType::kAllocReq, 0, rmcast::kSenderNodeId, 1, 0});
    rmcast::write_alloc_request(w, rmcast::AllocRequest{800, 100, 8});
    data.inject(m.sender_control, w.take());
  }
  control.clear_sent();

  // Gap: no NAK leaves immediately (random backoff).
  inject_data(2);
  EXPECT_TRUE(control.sent().empty());

  // A peer's NAK for the same gap arrives during the backoff: ours is
  // suppressed for good.
  data.inject(m.receiver_control[2],
              rmcast::make_control_packet(Header{PacketType::kNak, 0, 2, 1, 0}));
  runtime.advance(sim::milliseconds(5));
  EXPECT_TRUE(control.sent().empty());
  EXPECT_GT(receiver.stats().naks_suppressed, 0u);
}

TEST(NakSuppression, BackoffExpiresIntoDualDestinationNak) {
  using test::fake_membership;
  using test::FakeRuntime;
  using test::FakeSocket;

  rmcast::GroupMembership m = fake_membership(4);
  FakeRuntime runtime;
  FakeSocket data(m.group);
  FakeSocket control(m.receiver_control[1]);
  rmcast::ProtocolConfig config;
  config.kind = ProtocolKind::kNakPolling;
  config.packet_size = 100;
  config.window_size = 8;
  config.poll_interval = 4;
  config.multicast_nak_suppression = true;
  rmcast::MulticastReceiver receiver(runtime, data, control, m, 1, config);

  Writer w;
  rmcast::write_header(w, Header{PacketType::kAllocReq, 0, rmcast::kSenderNodeId, 1, 0});
  rmcast::write_alloc_request(w, rmcast::AllocRequest{800, 100, 8});
  data.inject(m.sender_control, w.take());
  control.clear_sent();

  Writer d;
  rmcast::write_header(d, Header{PacketType::kData, 0, rmcast::kSenderNodeId, 1, 3});
  Buffer body(100, 1);
  d.bytes(BytesView(body.data(), body.size()));
  data.inject(m.sender_control, d.take());

  runtime.advance(config.nak_suppress_delay + 1);
  // One NAK to the sender (unicast) and one to the group (multicast).
  ASSERT_EQ(control.sent().size(), 2u);
  EXPECT_EQ(control.sent()[0].dst, m.sender_control);
  EXPECT_EQ(control.sent()[1].dst, m.group);
  EXPECT_EQ(control.header_of(0).type, PacketType::kNak);
  EXPECT_EQ(control.header_of(0).seq, 0u);
}

TEST(NakSuppression, EndToEndUnderLossReducesNakTraffic) {
  auto run = [](bool suppression) {
    auto config = test::config_for(ProtocolKind::kNakPolling);
    config.multicast_nak_suppression = suppression;
    inet::ClusterParams cluster;
    cluster.link.frame_error_rate = 0.01;
    cluster.seed = 17;
    ProtocolHarness h(10, config, cluster);
    Buffer message = pattern(300'000);
    EXPECT_TRUE(h.send_and_run(message, sim::seconds(60.0)));
    h.expect_all_delivered({message});
    std::uint64_t naks = 0;
    for (std::size_t i = 0; i < 10; ++i) naks += h.receiver(i).stats().naks_sent;
    return naks;
  };
  std::uint64_t without = run(false);
  std::uint64_t with = run(true);
  // Multicast data loss hits one receiver per frame here (drops are on
  // distinct egress ports), so the savings are modest; the invariant is
  // that suppression never increases unicast NAK load on the sender.
  EXPECT_LE(with, without);
}

// --- unicast NAK repairs ------------------------------------------------------

TEST(UnicastRepair, SenderAnswersTheNakerOnly) {
  using test::fake_membership;
  using test::FakeRuntime;
  using test::FakeSocket;

  rmcast::GroupMembership m = fake_membership(4);
  FakeRuntime runtime;
  FakeSocket socket(m.sender_control);
  rmcast::ProtocolConfig config;
  config.kind = ProtocolKind::kAck;
  config.packet_size = 100;
  config.window_size = 4;
  config.unicast_nak_retransmissions = true;
  rmcast::MulticastSender sender(runtime, socket, m, config);

  Buffer message(400, 0x42);
  sender.send(BytesView(message.data(), message.size()),
              [](const rmcast::SendOutcome&) {});
  for (std::uint16_t node = 0; node < 4; ++node) {
    socket.inject(m.receiver_control[node],
                  rmcast::make_control_packet(
                      Header{PacketType::kAllocRsp, 0, node, 1, 0}));
  }
  std::size_t before = socket.sent().size();
  runtime.advance(config.suppress_interval + 1);
  socket.inject(m.receiver_control[2],
                rmcast::make_control_packet(Header{PacketType::kNak, 0, 2, 1, 1}));
  ASSERT_GT(socket.sent().size(), before);
  for (std::size_t i = before; i < socket.sent().size(); ++i) {
    EXPECT_EQ(socket.sent()[i].dst, m.receiver_control[2]) << "packet " << i;
    EXPECT_NE(socket.header_of(i).flags & rmcast::kFlagRetrans, 0);
  }
}

TEST(UnicastRepair, EndToEndUnderLoss) {
  auto config = test::config_for(ProtocolKind::kAck);
  config.unicast_nak_retransmissions = true;
  inet::ClusterParams cluster;
  cluster.link.frame_error_rate = 0.01;
  cluster.seed = 23;
  ProtocolHarness h(6, config, cluster);
  Buffer message = pattern(200'000);
  ASSERT_TRUE(h.send_and_run(message, sim::seconds(60.0)));
  h.expect_all_delivered({message});
}

TEST(UnicastRepair, SparesUnaffectedReceiversTheDuplicates) {
  auto run = [](bool unicast) {
    auto config = test::config_for(ProtocolKind::kAck);
    config.unicast_nak_retransmissions = unicast;
    inet::ClusterParams cluster;
    cluster.link.frame_error_rate = 0.01;
    cluster.seed = 29;
    ProtocolHarness h(8, config, cluster);
    Buffer message = pattern(300'000);
    EXPECT_TRUE(h.send_and_run(message, sim::seconds(60.0)));
    std::uint64_t dups = 0;
    for (std::size_t i = 0; i < 8; ++i) dups += h.receiver(i).stats().duplicates;
    return dups;
  };
  // Multicast repairs reach everyone including the 7 receivers that
  // already hold the packet; unicast repairs do not.
  EXPECT_LT(run(true), run(false));
}

// --- SRM-style peer repair ------------------------------------------------------

TEST(PeerRepair, RequiresSuppressionAndSelectiveRepeat) {
  rmcast::ProtocolConfig config;
  config.peer_repair = true;
  config.multicast_nak_suppression = false;
  config.selective_repeat = true;
  EXPECT_NE(rmcast::validate(config, 5), "");
  config.multicast_nak_suppression = true;
  config.selective_repeat = false;  // GBN discards what peers cannot refill
  EXPECT_NE(rmcast::validate(config, 5), "");
  config.selective_repeat = true;
  EXPECT_NE(rmcast::validate(config, 5), "");  // still needs the receiver timer
  config.receiver_driven_timeouts = true;
  EXPECT_EQ(rmcast::validate(config, 5), "");
}

class PeerRepairUnit : public ::testing::Test {
 protected:
  PeerRepairUnit()
      : membership_(test::fake_membership(4)),
        data_(membership_.group),
        control_(membership_.receiver_control[0]) {
    config_.kind = ProtocolKind::kNakPolling;
    config_.packet_size = 100;
    config_.window_size = 8;
    config_.poll_interval = 4;
    config_.multicast_nak_suppression = true;
    config_.selective_repeat = true;
    config_.receiver_driven_timeouts = true;
    config_.peer_repair = true;
    config_.repair_delay = sim::milliseconds(2);
    receiver_ = std::make_unique<rmcast::MulticastReceiver>(runtime_, data_, control_,
                                                            membership_, 0, config_);
    // Session of 3 packets; this receiver holds packets 0 and 1.
    Writer w;
    rmcast::write_header(w,
                         Header{PacketType::kAllocReq, 0, rmcast::kSenderNodeId, 1, 0});
    rmcast::write_alloc_request(w, rmcast::AllocRequest{300, 100, 3});
    data_.inject(membership_.sender_control, w.take());
    for (std::uint32_t seq = 0; seq < 2; ++seq) {
      Writer d;
      rmcast::write_header(d, Header{PacketType::kData, 0, rmcast::kSenderNodeId, 1, seq});
      Buffer body(100, static_cast<std::uint8_t>(seq + 1));
      d.bytes(BytesView(body.data(), body.size()));
      data_.inject(membership_.sender_control, d.take());
    }
    control_.clear_sent();
  }

  void inject_foreign_nak(std::uint32_t seq) {
    data_.inject(membership_.receiver_control[2],
                 rmcast::make_control_packet(Header{PacketType::kNak, 0, 2, 1, seq}));
  }

  rmcast::GroupMembership membership_;
  test::FakeRuntime runtime_;
  test::FakeSocket data_;
  test::FakeSocket control_;
  rmcast::ProtocolConfig config_;
  std::unique_ptr<rmcast::MulticastReceiver> receiver_;
};

TEST_F(PeerRepairUnit, RepairsHeldPacketAfterBackoff) {
  inject_foreign_nak(0);
  EXPECT_TRUE(control_.sent().empty());  // backoff first
  runtime_.advance(config_.repair_delay + 1);
  auto sent = control_.sent_headers();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].type, PacketType::kData);
  EXPECT_EQ(sent[0].seq, 0u);
  EXPECT_NE(sent[0].flags & rmcast::kFlagRetrans, 0);
  EXPECT_EQ(sent[0].node_id, 0);  // repair names its true origin
  EXPECT_EQ(control_.sent()[0].dst, membership_.group);
  // Payload is the original packet's bytes.
  EXPECT_EQ(control_.sent()[0].payload.size(), rmcast::kHeaderBytes + 100);
  EXPECT_EQ(control_.sent()[0].payload[rmcast::kHeaderBytes], 1);
  EXPECT_EQ(receiver_->stats().repairs_sent, 1u);
}

TEST_F(PeerRepairUnit, SomeoneElsesRepairCancelsOurs) {
  inject_foreign_nak(0);
  // Another peer's repair (a retransmitted duplicate) arrives during the
  // backoff: ours must be suppressed.
  Writer d;
  rmcast::write_header(d, Header{PacketType::kData, rmcast::kFlagRetrans, 3, 1, 0});
  Buffer body(100, 1);
  d.bytes(BytesView(body.data(), body.size()));
  data_.inject(membership_.receiver_control[3], d.take());
  runtime_.advance(config_.repair_delay + 1);
  for (const auto& h : control_.sent_headers()) {
    EXPECT_NE(h.type, PacketType::kData);
  }
  EXPECT_EQ(receiver_->stats().repairs_sent, 0u);
  EXPECT_EQ(receiver_->stats().repairs_suppressed, 1u);
}

TEST_F(PeerRepairUnit, DoesNotRepairWhatItLacks) {
  inject_foreign_nak(2);  // we only hold 0 and 1
  runtime_.advance(config_.repair_delay + 1);
  for (const auto& h : control_.sent_headers()) {
    EXPECT_NE(h.type, PacketType::kData);
  }
}

TEST(PeerRepair, EndToEndRelievesTheSender) {
  auto run = [](bool peer_repair) {
    auto config = test::config_for(ProtocolKind::kNakPolling);
    config.multicast_nak_suppression = true;
    config.selective_repeat = true;
    config.receiver_driven_timeouts = true;
    config.peer_repair = peer_repair;
    inet::ClusterParams cluster;
    cluster.link.frame_error_rate = 0.01;
    cluster.seed = 37;
    ProtocolHarness h(10, config, cluster);
    Buffer message = pattern(400'000);
    EXPECT_TRUE(h.send_and_run(message, sim::seconds(120.0)));
    h.expect_all_delivered({message});
    std::uint64_t repairs = 0;
    for (std::size_t i = 0; i < 10; ++i) repairs += h.receiver(i).stats().repairs_sent;
    return std::pair<std::uint64_t, std::uint64_t>(h.sender().stats().retransmissions,
                                                   repairs);
  };
  auto [base_retx, base_repairs] = run(false);
  auto [srm_retx, srm_repairs] = run(true);
  EXPECT_EQ(base_repairs, 0u);
  EXPECT_GT(srm_repairs, 0u);      // peers actually repaired
  // The sender retransmits less: data gaps are now healed by peers. It
  // does not go to zero — with NAKs diverted to the group the sender is
  // deaf, so lost *acknowledgments* (which no peer can repair) still cost
  // it timer-driven re-poll bursts.
  EXPECT_LT(srm_retx, base_retx);
}

// --- receiver-driven timeouts ---------------------------------------------------

TEST(ReceiverDriven, SilenceTriggersNak) {
  using test::fake_membership;
  using test::FakeRuntime;
  using test::FakeSocket;

  rmcast::GroupMembership m = fake_membership(3);
  FakeRuntime runtime;
  FakeSocket data(m.group);
  FakeSocket control(m.receiver_control[0]);
  rmcast::ProtocolConfig config;
  config.kind = ProtocolKind::kNakPolling;
  config.packet_size = 100;
  config.window_size = 8;
  config.poll_interval = 4;
  config.receiver_driven_timeouts = true;
  config.receiver_timeout = sim::milliseconds(30);
  rmcast::MulticastReceiver receiver(runtime, data, control, m, 0, config);

  Writer w;
  rmcast::write_header(w, Header{PacketType::kAllocReq, 0, rmcast::kSenderNodeId, 1, 0});
  rmcast::write_alloc_request(w, rmcast::AllocRequest{300, 100, 3});
  data.inject(m.sender_control, w.take());
  Writer d;
  rmcast::write_header(d, Header{PacketType::kData, 0, rmcast::kSenderNodeId, 1, 0});
  Buffer body(100, 1);
  d.bytes(BytesView(body.data(), body.size()));
  data.inject(m.sender_control, d.take());
  control.clear_sent();

  // The rest of the message never arrives; after the inactivity timeout
  // the receiver asks for it instead of waiting on the sender's timer.
  runtime.advance(sim::milliseconds(31));
  auto sent = control.sent_headers();
  ASSERT_FALSE(sent.empty());
  EXPECT_EQ(sent[0].type, PacketType::kNak);
  EXPECT_EQ(sent[0].seq, 1u);

  // And it keeps nudging while still incomplete.
  runtime.advance(sim::milliseconds(31));
  EXPECT_GT(control.sent_headers().size(), sent.size());
  EXPECT_GT(receiver.stats().naks_sent, 0u);
}

TEST(ReceiverDriven, QuietAfterDelivery) {
  using test::fake_membership;
  using test::FakeRuntime;
  using test::FakeSocket;

  rmcast::GroupMembership m = fake_membership(3);
  FakeRuntime runtime;
  FakeSocket data(m.group);
  FakeSocket control(m.receiver_control[0]);
  rmcast::ProtocolConfig config;
  config.kind = ProtocolKind::kAck;
  config.packet_size = 100;
  config.window_size = 8;
  config.receiver_driven_timeouts = true;
  rmcast::MulticastReceiver receiver(runtime, data, control, m, 0, config);

  Writer w;
  rmcast::write_header(w, Header{PacketType::kAllocReq, 0, rmcast::kSenderNodeId, 1, 0});
  rmcast::write_alloc_request(w, rmcast::AllocRequest{100, 100, 1});
  data.inject(m.sender_control, w.take());
  Writer d;
  rmcast::write_header(d, Header{PacketType::kData, rmcast::kFlagLast,
                                 rmcast::kSenderNodeId, 1, 0});
  Buffer body(100, 1);
  d.bytes(BytesView(body.data(), body.size()));
  data.inject(m.sender_control, d.take());
  control.clear_sent();

  runtime.advance(sim::seconds(1.0));
  EXPECT_TRUE(control.sent().empty());  // complete: the timer is disarmed
  EXPECT_EQ(runtime.pending_timers(), 0u);
}

TEST(ReceiverDriven, EndToEndUnderHeavyTailLoss) {
  auto config = test::config_for(ProtocolKind::kNakPolling);
  config.receiver_driven_timeouts = true;
  inet::ClusterParams cluster;
  cluster.link.frame_error_rate = 0.05;
  cluster.seed = 31;
  ProtocolHarness h(4, config, cluster);
  Buffer message = pattern(100'000);
  ASSERT_TRUE(h.send_and_run(message, sim::seconds(60.0)));
  h.expect_all_delivered({message});
}

// --- rate-based flow control ---------------------------------------------------

TEST(RateControl, PacesFirstTransmissions) {
  using test::fake_membership;
  using test::FakeRuntime;
  using test::FakeSocket;

  rmcast::GroupMembership m = fake_membership(2);
  FakeRuntime runtime;
  FakeSocket socket(m.sender_control);
  rmcast::ProtocolConfig config;
  config.kind = ProtocolKind::kAck;
  config.packet_size = 1000;
  config.window_size = 16;
  config.rate_limit_bps = 8e6;  // 1000+12 bytes ~= 1.012 ms per packet
  rmcast::MulticastSender sender(runtime, socket, m, config);

  Buffer message(4000, 0x11);
  sender.send(BytesView(message.data(), message.size()),
              [](const rmcast::SendOutcome&) {});
  for (std::uint16_t node = 0; node < 2; ++node) {
    socket.inject(m.receiver_control[node],
                  rmcast::make_control_packet(
                      Header{PacketType::kAllocRsp, 0, node, 1, 0}));
  }
  auto count_data = [&] {
    std::size_t n = 0;
    for (const auto& h : socket.sent_headers()) {
      if (h.type == PacketType::kData) ++n;
    }
    return n;
  };
  // Despite a 16-packet window, only the first packet leaves immediately.
  EXPECT_EQ(count_data(), 1u);
  runtime.advance(sim::microseconds(1100));
  EXPECT_EQ(count_data(), 2u);
  runtime.advance(sim::milliseconds(3));
  EXPECT_EQ(count_data(), 4u);
}

TEST(RateControl, EndToEndThroughputIsCapped) {
  auto config = test::config_for(ProtocolKind::kNakPolling);
  config.rate_limit_bps = 20e6;
  ProtocolHarness h(5, config);
  Buffer message = pattern(500'000);
  ASSERT_TRUE(h.send_and_run(message, sim::seconds(60.0)));
  h.expect_all_delivered({message});
  double seconds = sim::to_seconds(h.session().simulator().now());
  double bps = 500'000 * 8.0 / seconds;
  EXPECT_LT(bps, 20e6);
  EXPECT_GT(bps, 12e6);  // but not wildly below the cap
}

TEST(RateControl, ZeroMeansWindowOnly) {
  auto config = test::config_for(ProtocolKind::kAck);
  config.rate_limit_bps = 0.0;
  ProtocolHarness h(4, config);
  Buffer message = pattern(100'000);
  ASSERT_TRUE(h.send_and_run(message));
  h.expect_all_delivered({message});
}

}  // namespace
}  // namespace rmc
