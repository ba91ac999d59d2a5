// Tests for the sender window, cumulative-ACK tracker, flat-tree layout,
// group membership validation, and protocol-configuration validation.
#include <gtest/gtest.h>

#include <set>

#include "rmcast/config.h"
#include "rmcast/group.h"
#include "rmcast/window.h"

namespace rmc::rmcast {
namespace {

TEST(CumTracker, MinIsMinimumAcrossUnits) {
  CumTracker t;
  t.reset(3);
  EXPECT_EQ(t.min_cum(), 0u);
  EXPECT_TRUE(t.on_ack(0, 5));
  EXPECT_TRUE(t.on_ack(1, 3));
  EXPECT_EQ(t.min_cum(), 0u);  // unit 2 still at 0
  EXPECT_TRUE(t.on_ack(2, 4));
  EXPECT_EQ(t.min_cum(), 3u);
  EXPECT_EQ(t.unit_cum(0), 5u);
}

TEST(CumTracker, StaleAcksIgnored) {
  CumTracker t;
  t.reset(2);
  EXPECT_TRUE(t.on_ack(0, 10));
  EXPECT_FALSE(t.on_ack(0, 10));  // duplicate
  EXPECT_FALSE(t.on_ack(0, 4));   // regression
  EXPECT_EQ(t.unit_cum(0), 10u);
}

TEST(CumTracker, ReturnsUnitAdvanceNotMinAdvance) {
  // The ring protocol depends on this distinction: most ACKs advance a
  // unit without moving the minimum, and those must still report progress.
  CumTracker t;
  t.reset(2);
  EXPECT_TRUE(t.on_ack(0, 1));
  EXPECT_EQ(t.min_cum(), 0u);
  EXPECT_TRUE(t.on_ack(0, 2));
  EXPECT_EQ(t.min_cum(), 0u);
  EXPECT_TRUE(t.on_ack(1, 1));
  EXPECT_EQ(t.min_cum(), 1u);
}

TEST(SenderWindow, ClaimAndReleaseInvariants) {
  SenderWindow w;
  w.reset(10, 4);
  EXPECT_TRUE(w.can_send());
  EXPECT_EQ(w.claim_next(), 0u);
  EXPECT_EQ(w.claim_next(), 1u);
  EXPECT_EQ(w.claim_next(), 2u);
  EXPECT_EQ(w.claim_next(), 3u);
  EXPECT_FALSE(w.can_send());  // window full
  EXPECT_EQ(w.outstanding(), 4u);

  w.release_to(2);
  EXPECT_EQ(w.base(), 2u);
  EXPECT_TRUE(w.can_send());
  EXPECT_EQ(w.claim_next(), 4u);
  EXPECT_EQ(w.claim_next(), 5u);
  EXPECT_FALSE(w.can_send());
}

TEST(SenderWindow, StopsAtTotal) {
  SenderWindow w;
  w.reset(3, 10);
  w.claim_next();
  w.claim_next();
  w.claim_next();
  EXPECT_FALSE(w.can_send());  // all claimed despite window room
  w.release_to(3);
  EXPECT_TRUE(w.all_released());
}

TEST(SenderWindow, ReleaseIsMonotonic) {
  SenderWindow w;
  w.reset(10, 5);
  for (int i = 0; i < 5; ++i) w.claim_next();
  w.release_to(4);
  w.release_to(2);  // stale release must not move base backwards
  EXPECT_EQ(w.base(), 4u);
}

TEST(SenderWindow, TracksTransmissionsPerPacket) {
  SenderWindow w;
  w.reset(10, 4);
  std::uint32_t seq = w.claim_next();
  EXPECT_EQ(w.tx_count(seq), 0u);
  EXPECT_EQ(w.last_sent(seq), -1);
  w.mark_sent(seq, sim::microseconds(10));
  w.mark_sent(seq, sim::microseconds(30));
  EXPECT_EQ(w.tx_count(seq), 2u);
  EXPECT_EQ(w.last_sent(seq), sim::microseconds(30));
}

TEST(SenderWindowDeath, SeqOutsideWindowPanics) {
  SenderWindow w;
  w.reset(10, 4);
  w.claim_next();
  EXPECT_DEATH(w.last_sent(5), "outside the window");
  w.release_to(1);
  EXPECT_DEATH(w.mark_sent(0, 0), "outside the window");
}

// ---------------------------------------------------------------------------
// Sequence wraparound: a window that starts near 0xFFFFFFFF must slide
// through zero exactly as it slides anywhere else. These pin the serial
// arithmetic (wire.h) the window and tracker compare with.

constexpr std::uint32_t kNearWrap = 0xFFFFFFF0u;  // 16 before the boundary

TEST(SenderWindow, SlidesThroughTheWrap) {
  SenderWindow w;
  w.reset(/*total_packets=*/32, /*window_size=*/4, /*start_seq=*/kNearWrap);
  EXPECT_EQ(w.start(), kNearWrap);
  EXPECT_EQ(w.end(), kNearWrap + 32);  // == 0x00000010, wrapped
  EXPECT_EQ(w.base(), kNearWrap);

  // Drain the whole message; claim_next must hand out 0xFFFFFFF0..0xF,
  // then 0, 1, ... without ever stalling at the boundary.
  std::uint32_t expect = kNearWrap;
  while (!w.all_released()) {
    while (w.can_send()) {
      std::uint32_t seq = w.claim_next();
      EXPECT_EQ(seq, expect++);
      w.mark_sent(seq, sim::microseconds(1));
    }
    w.release_to(w.next());  // cumulative ACK for everything sent
  }
  EXPECT_EQ(w.base(), kNearWrap + 32);
  EXPECT_FALSE(w.can_send());
}

TEST(SenderWindow, OutstandingAndIndexSpanTheBoundary) {
  SenderWindow w;
  w.reset(10, 8, 0xFFFFFFFCu);
  for (int i = 0; i < 8; ++i) {
    std::uint32_t seq = w.claim_next();
    w.mark_sent(seq, sim::microseconds(10 + i));
  }
  // The window now covers 0xFFFFFFFC..0x00000003.
  EXPECT_EQ(w.outstanding(), 8u);
  EXPECT_EQ(w.last_sent(0xFFFFFFFEu), sim::microseconds(12));
  EXPECT_EQ(w.last_sent(0x00000002u), sim::microseconds(16));
  EXPECT_EQ(w.tx_count(0x00000003u), 1u);
}

TEST(SenderWindow, ReleaseIsMonotonicAcrossTheWrap) {
  SenderWindow w;
  w.reset(10, 8, 0xFFFFFFFCu);
  for (int i = 0; i < 8; ++i) w.claim_next();
  w.release_to(0x00000002u);  // past the boundary
  EXPECT_EQ(w.base(), 0x00000002u);
  // A stale pre-wrap cumulative must not drag base back to the huge value.
  w.release_to(0xFFFFFFFEu);
  EXPECT_EQ(w.base(), 0x00000002u);
  EXPECT_TRUE(w.can_send());
}

TEST(SenderWindowDeath, WrappedSeqOutsideWindowPanics) {
  SenderWindow w;
  w.reset(10, 4, 0xFFFFFFFEu);
  w.claim_next();  // window is [0xFFFFFFFE, 0xFFFFFFFF)
  // 1 is beyond next even though 1 < 0xFFFFFFFE in magnitude.
  EXPECT_DEATH(w.last_sent(0x00000001u), "outside the window");
}

TEST(CumTracker, TracksAcksAcrossTheWrap) {
  CumTracker t;
  t.reset(2, /*start_cum=*/0xFFFFFFFEu);
  EXPECT_EQ(t.min_cum(), 0xFFFFFFFEu);
  EXPECT_TRUE(t.on_ack(0, 0x00000003u));  // advanced through zero
  EXPECT_EQ(t.min_cum(), 0xFFFFFFFEu);    // unit 1 still pre-wrap
  EXPECT_TRUE(t.on_ack(1, 0x00000001u));
  EXPECT_EQ(t.min_cum(), 0x00000001u);  // serial min, not magnitude min
}

TEST(CumTracker, RejectsStaleAcksFromBeforeTheWrap) {
  CumTracker t;
  t.reset(1, 0xFFFFFFF8u);
  EXPECT_TRUE(t.on_ack(0, 0x00000004u));
  // A delayed duplicate from before the boundary is stale even though its
  // magnitude is enormous.
  EXPECT_FALSE(t.on_ack(0, 0xFFFFFFFCu));
  EXPECT_EQ(t.unit_cum(0), 0x00000004u);
}

TEST(CumTracker, ResetWithSeedsStraddlingTheWrap) {
  CumTracker t;
  t.reset_with({0x00000002u, 0xFFFFFFFDu});
  EXPECT_EQ(t.min_cum(), 0xFFFFFFFDu);  // the pre-wrap count is the laggard
  EXPECT_TRUE(t.on_ack(1, 0x00000001u));
  EXPECT_EQ(t.min_cum(), 0x00000001u);
}

// Flat-tree layout properties, swept over group sizes and heights.
class TreeLayoutTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(TreeLayoutTest, PartitionIsConsistent) {
  auto [n, h] = GetParam();
  if (h > n) GTEST_SKIP();

  std::set<std::size_t> heads_seen;
  for (std::size_t id = 0; id < n; ++id) {
    TreePosition pos = tree_position(id, n, h);
    EXPECT_EQ(pos.chain, id / h);
    EXPECT_EQ(pos.depth, id % h);
    if (pos.is_head) heads_seen.insert(id);
    // Successor/predecessor are mutual.
    if (!pos.is_tail) {
      TreePosition succ = tree_position(pos.successor, n, h);
      EXPECT_FALSE(succ.is_head);
      EXPECT_EQ(succ.predecessor, id);
      EXPECT_EQ(succ.chain, pos.chain);
    }
    if (!pos.is_head) {
      TreePosition pred = tree_position(pos.predecessor, n, h);
      EXPECT_FALSE(pred.is_tail);
      EXPECT_EQ(pred.successor, id);
    }
    // Every chain has depth < h.
    EXPECT_LT(pos.depth, h);
  }
  auto heads = tree_chain_heads(n, h);
  EXPECT_EQ(heads.size(), tree_chain_count(n, h));
  EXPECT_EQ(std::set<std::size_t>(heads.begin(), heads.end()), heads_seen);
  // ceil(n/h) chains.
  EXPECT_EQ(tree_chain_count(n, h), (n + h - 1) / h);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeLayoutTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 5, 16, 30, 31),
                       ::testing::Values<std::size_t>(1, 2, 3, 6, 15, 30)));

TEST(TreeLayout, HeightOneIsAllHeads) {
  for (std::size_t id = 0; id < 5; ++id) {
    TreePosition pos = tree_position(id, 5, 1);
    EXPECT_TRUE(pos.is_head);
    EXPECT_TRUE(pos.is_tail);
  }
  EXPECT_EQ(tree_chain_heads(5, 1).size(), 5u);
}

TEST(TreeLayout, FullHeightIsOneChain) {
  auto heads = tree_chain_heads(6, 6);
  ASSERT_EQ(heads.size(), 1u);
  EXPECT_EQ(heads[0], 0u);
  EXPECT_TRUE(tree_position(5, 6, 6).is_tail);
  EXPECT_FALSE(tree_position(3, 6, 6).is_tail);
}

TEST(TreeLayout, RaggedLastChain) {
  // 7 receivers, height 3: chains {0,1,2}, {3,4,5}, {6}.
  EXPECT_EQ(tree_chain_count(7, 3), 3u);
  TreePosition last = tree_position(6, 7, 3);
  EXPECT_TRUE(last.is_head);
  EXPECT_TRUE(last.is_tail);  // alone in its chain
}

TEST(CumTracker, ResetWithSeedsPerUnitCums) {
  CumTracker t;
  t.reset(3);
  t.on_ack(0, 8);
  t.on_ack(1, 8);
  t.on_ack(2, 8);
  // Roster shrinks to two units part-way through a message; the survivors'
  // counts carry over.
  t.reset_with({8, 5});
  EXPECT_EQ(t.n_units(), 2u);
  EXPECT_EQ(t.unit_cum(0), 8u);
  EXPECT_EQ(t.unit_cum(1), 5u);
  EXPECT_EQ(t.min_cum(), 5u);  // min may drop below the pre-rebuild min
  EXPECT_TRUE(t.on_ack(1, 9));
  EXPECT_EQ(t.min_cum(), 8u);
}

// Live-set layout: evicting a node splices the chain around it, and every
// structure function agrees when fed the same live list.
TEST(TreeLayout, LiveSpliceInteriorNode) {
  // 6 receivers, height 3: chains {0,1,2}, {3,4,5}. Evict 4.
  std::vector<std::size_t> live = {0, 1, 2, 3, 5};
  EXPECT_EQ(tree_chain_heads_live(live, 3), (std::vector<std::size_t>{0, 3}));
  // 5 is promoted into 4's slot: its parent is now 3.
  TreeLinks l5 = flat_tree_links_live(5, live, 3);
  EXPECT_TRUE(l5.has_parent);
  EXPECT_EQ(l5.parent, 3u);
  EXPECT_TRUE(l5.children.empty());
  TreeLinks l3 = flat_tree_links_live(3, live, 3);
  EXPECT_FALSE(l3.has_parent);
  EXPECT_EQ(l3.children, (std::vector<std::size_t>{5}));
}

TEST(TreeLayout, LiveSplicePromotesHeadSuccessor) {
  // Evict head 3: successor 4 becomes the head of the second chain.
  std::vector<std::size_t> live = {0, 1, 2, 4, 5};
  EXPECT_EQ(tree_chain_heads_live(live, 3), (std::vector<std::size_t>{0, 4}));
  TreeLinks l4 = flat_tree_links_live(4, live, 3);
  EXPECT_FALSE(l4.has_parent);  // reports straight to the sender now
  EXPECT_EQ(l4.children, (std::vector<std::size_t>{5}));
  EXPECT_EQ(flat_tree_links_live(5, live, 3).parent, 4u);
}

TEST(TreeLayout, LiveSpliceTailDies) {
  // Evict tail 2: the first chain just shortens; the second is renumbered
  // over ranks, so 3 absorbs rank 2 and chain two starts at 4.
  std::vector<std::size_t> live = {0, 1, 3, 4, 5};
  EXPECT_EQ(tree_chain_heads_live(live, 3), (std::vector<std::size_t>{0, 4}));
  EXPECT_EQ(flat_tree_links_live(3, live, 3).parent, 1u);
}

TEST(TreeLayout, LiveSpliceWholeChainDies) {
  // Both members of what remains of chain two die: one chain left.
  std::vector<std::size_t> live = {0, 1, 2};
  EXPECT_EQ(tree_chain_heads_live(live, 3), (std::vector<std::size_t>{0}));
  EXPECT_EQ(flat_tree_links_live(2, live, 3).parent, 1u);
}

TEST(TreeLayout, LiveHeightClampsToSurvivors) {
  // Fewer survivors than the configured height: one chain over them all.
  std::vector<std::size_t> live = {1, 4};
  EXPECT_EQ(tree_chain_heads_live(live, 3), (std::vector<std::size_t>{1}));
  TreeLinks l4 = binary_tree_links_live(4, live);
  EXPECT_TRUE(l4.has_parent);
  EXPECT_EQ(l4.parent, 1u);
}

TEST(TreeLayout, LiveFullRosterMatchesStaticLayout) {
  const std::size_t n = 7, h = 3;
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  EXPECT_EQ(tree_chain_heads_live(all, h), tree_chain_heads(n, h));
  for (std::size_t id = 0; id < n; ++id) {
    TreeLinks a = flat_tree_links_live(id, all, h);
    TreeLinks b = flat_tree_links(id, n, h);
    EXPECT_EQ(a.has_parent, b.has_parent);
    if (a.has_parent) {
      EXPECT_EQ(a.parent, b.parent);
    }
    EXPECT_EQ(a.children, b.children);
    TreeLinks ba = binary_tree_links_live(id, all);
    TreeLinks bb = binary_tree_links(id, n);
    EXPECT_EQ(ba.has_parent, bb.has_parent);
    if (ba.has_parent) {
      EXPECT_EQ(ba.parent, bb.parent);
    }
    EXPECT_EQ(ba.children, bb.children);
  }
}

TEST(TreeLayout, BinaryLiveReindexesHeap) {
  // Evict 1 from a 6-node heap: ranks {0,2,3,4,5}; children of the root
  // are the nodes at ranks 1 and 2.
  std::vector<std::size_t> live = {0, 2, 3, 4, 5};
  TreeLinks root = binary_tree_links_live(0, live);
  EXPECT_FALSE(root.has_parent);
  EXPECT_EQ(root.children, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(binary_tree_links_live(4, live).parent, 2u);
}

TEST(TreeLayout, LiveRank) {
  std::vector<std::size_t> live = {0, 2, 5};
  EXPECT_EQ(live_rank(live, 0), 0u);
  EXPECT_EQ(live_rank(live, 2), 1u);
  EXPECT_EQ(live_rank(live, 5), 2u);
}

GroupMembership valid_membership(std::size_t n) {
  GroupMembership m;
  m.group = {net::Ipv4Addr(239, 0, 0, 1), 5000};
  m.sender_control = {net::Ipv4Addr(10, 0, 0, 1), 5001};
  for (std::size_t i = 0; i < n; ++i) {
    m.receiver_control.push_back({net::Ipv4Addr(10, 0, 0, static_cast<uint8_t>(i + 2)), 5002});
  }
  return m;
}

TEST(Group, ValidMembershipPasses) {
  EXPECT_EQ(valid_membership(3).validate(), "");
}

TEST(Group, RejectsNonMulticastGroup) {
  GroupMembership m = valid_membership(3);
  m.group.addr = net::Ipv4Addr(10, 0, 0, 9);
  EXPECT_NE(m.validate(), "");
}

TEST(Group, RejectsMissingPortsAndReceivers) {
  GroupMembership m = valid_membership(3);
  m.group.port = 0;
  EXPECT_NE(m.validate(), "");

  m = valid_membership(3);
  m.sender_control.port = 0;
  EXPECT_NE(m.validate(), "");

  m = valid_membership(3);
  m.receiver_control[1].port = 0;
  EXPECT_NE(m.validate(), "");

  m = valid_membership(0);
  EXPECT_NE(m.validate(), "");
}

TEST(Group, RejectsDuplicateReceiverEndpoints) {
  GroupMembership m = valid_membership(4);
  m.receiver_control[3] = m.receiver_control[1];
  std::string error = m.validate();
  EXPECT_NE(error, "");
  // Names both colliding slots so the roster typo is findable.
  EXPECT_NE(error.find("1"), std::string::npos);
  EXPECT_NE(error.find("3"), std::string::npos);
}

TEST(Group, RejectsReceiverCollidingWithSender) {
  GroupMembership m = valid_membership(3);
  m.receiver_control[2] = m.sender_control;
  EXPECT_NE(m.validate(), "");
}

TEST(Group, DistinctPortsOnOneAddressAreFine) {
  // Same host running several receivers on different ports is legal.
  GroupMembership m = valid_membership(3);
  for (std::size_t i = 0; i < 3; ++i) {
    m.receiver_control[i] = {net::Ipv4Addr(10, 0, 0, 9),
                             static_cast<std::uint16_t>(6000 + i)};
  }
  EXPECT_EQ(m.validate(), "");
}

TEST(Config, DefaultsValidateForEachProtocol) {
  for (auto kind : {ProtocolKind::kAck, ProtocolKind::kNakPolling, ProtocolKind::kRing,
                    ProtocolKind::kFlatTree}) {
    ProtocolConfig c;
    c.kind = kind;
    c.window_size = 40;  // ring needs > n
    EXPECT_EQ(validate(c, 30), "") << protocol_name(kind);
  }
}

TEST(Config, RingRequiresWindowBeyondReceivers) {
  ProtocolConfig c;
  c.kind = ProtocolKind::kRing;
  c.window_size = 30;
  EXPECT_NE(validate(c, 30), "");
  c.window_size = 31;
  EXPECT_EQ(validate(c, 30), "");
}

TEST(Config, PollIntervalBoundedByWindow) {
  ProtocolConfig c;
  c.kind = ProtocolKind::kNakPolling;
  c.window_size = 20;
  c.poll_interval = 21;
  EXPECT_NE(validate(c, 30), "");
  c.poll_interval = 20;
  EXPECT_EQ(validate(c, 30), "");
  c.poll_interval = 0;
  EXPECT_NE(validate(c, 30), "");
}

TEST(Config, TreeHeightBounds) {
  ProtocolConfig c;
  c.kind = ProtocolKind::kFlatTree;
  c.tree_height = 0;
  EXPECT_NE(validate(c, 30), "");
  c.tree_height = 31;
  EXPECT_NE(validate(c, 30), "");
  c.tree_height = 30;
  EXPECT_EQ(validate(c, 30), "");
}

TEST(Config, PacketSizeBounds) {
  ProtocolConfig c;
  c.packet_size = 0;
  EXPECT_NE(validate(c, 30), "");
  c.packet_size = 65'507;  // + header would exceed the UDP maximum
  EXPECT_NE(validate(c, 30), "");
  c.packet_size = 65'495;
  EXPECT_EQ(validate(c, 30), "");
}

TEST(Config, Describe) {
  ProtocolConfig c;
  c.kind = ProtocolKind::kNakPolling;
  c.packet_size = 8000;
  c.window_size = 50;
  c.poll_interval = 43;
  EXPECT_EQ(c.describe(), "NAK-based pkt=8000 win=50 poll=43");
  c.kind = ProtocolKind::kFlatTree;
  c.tree_height = 6;
  c.selective_repeat = true;
  EXPECT_EQ(c.describe(), "Tree-based pkt=8000 win=50 H=6 SR");
}

}  // namespace
}  // namespace rmc::rmcast
