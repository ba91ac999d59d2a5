// Unit tests for the per-protocol engine layer and the ProtocolRegistry.
#include <gtest/gtest.h>

#include <vector>

#include "rmcast/engine/registry.h"
#include "rmcast/group.h"
#include "rmcast/wire.h"

namespace rmc::rmcast {
namespace {

const EngineEntry& entry(ProtocolKind kind) {
  return ProtocolRegistry::instance().entry(kind);
}

const ProtocolEngine& engine(ProtocolKind kind) { return *entry(kind).engine(); }

TEST(ProtocolRegistryTest, CoversEveryKindInEnumOrder) {
  const auto& entries = ProtocolRegistry::instance().entries();
  ASSERT_EQ(entries.size(), 7u);
  EXPECT_EQ(entries[0].kind, ProtocolKind::kAck);
  EXPECT_EQ(entries[1].kind, ProtocolKind::kNakPolling);
  EXPECT_EQ(entries[2].kind, ProtocolKind::kRing);
  EXPECT_EQ(entries[3].kind, ProtocolKind::kFlatTree);
  EXPECT_EQ(entries[4].kind, ProtocolKind::kBinaryTree);
  EXPECT_EQ(entries[5].kind, ProtocolKind::kEcXor);
  EXPECT_EQ(entries[6].kind, ProtocolKind::kEcRs);
  for (const EngineEntry& e : entries) {
    EXPECT_STRNE(e.traits.id, "");
    EXPECT_STRNE(e.traits.display_name, "");
    EXPECT_NE(e.engine(), nullptr);
  }
}

TEST(ProtocolRegistryTest, EnginesAreSingletons) {
  EXPECT_EQ(entry(ProtocolKind::kRing).engine(), entry(ProtocolKind::kRing).engine());
}

TEST(ProtocolRegistryTest, FindsEntriesById) {
  const ProtocolRegistry& reg = ProtocolRegistry::instance();
  ASSERT_NE(reg.find("ack"), nullptr);
  EXPECT_EQ(reg.find("ack")->kind, ProtocolKind::kAck);
  ASSERT_NE(reg.find("nak"), nullptr);
  EXPECT_EQ(reg.find("nak")->kind, ProtocolKind::kNakPolling);
  ASSERT_NE(reg.find("ring"), nullptr);
  EXPECT_EQ(reg.find("ring")->kind, ProtocolKind::kRing);
  ASSERT_NE(reg.find("tree"), nullptr);
  EXPECT_EQ(reg.find("tree")->kind, ProtocolKind::kFlatTree);
  ASSERT_NE(reg.find("btree"), nullptr);
  EXPECT_EQ(reg.find("btree")->kind, ProtocolKind::kBinaryTree);
  ASSERT_NE(reg.find("ecxor"), nullptr);
  EXPECT_EQ(reg.find("ecxor")->kind, ProtocolKind::kEcXor);
  ASSERT_NE(reg.find("ecrs"), nullptr);
  EXPECT_EQ(reg.find("ecrs")->kind, ProtocolKind::kEcRs);
  EXPECT_EQ(reg.find("no-such-protocol"), nullptr);
}

TEST(ProtocolRegistryTest, DisplayNamesMatchProtocolName) {
  for (const EngineEntry& e : ProtocolRegistry::instance().entries()) {
    EXPECT_STREQ(e.traits.display_name, protocol_name(e.kind));
  }
}

TEST(EngineSenderSide, FlatProtocolsTrackEveryReceiver) {
  ProtocolConfig config;
  for (ProtocolKind kind :
       {ProtocolKind::kAck, ProtocolKind::kNakPolling, ProtocolKind::kRing}) {
    config.kind = kind;
    const std::vector<std::size_t> units = engine(kind).initial_units(4, config);
    EXPECT_EQ(units, (std::vector<std::size_t>{0, 1, 2, 3}));
    const std::vector<std::size_t> live = {0, 2, 3};
    EXPECT_EQ(engine(kind).live_units(live, config), live);
    // SUSPECT reports are accepted from tree protocols only.
    EXPECT_FALSE(engine(kind).is_tree());
  }
}

TEST(EngineSenderSide, FlatTreeUnitsAreChainHeads) {
  ProtocolConfig config;
  config.kind = ProtocolKind::kFlatTree;
  config.tree_height = 3;
  const ProtocolEngine& flat = engine(ProtocolKind::kFlatTree);
  EXPECT_EQ(flat.initial_units(7, config), tree_chain_heads(7, 3));
  const std::vector<std::size_t> live = {1, 2, 4, 5, 6};
  EXPECT_EQ(flat.live_units(live, config), tree_chain_heads_live(live, 3));
  EXPECT_TRUE(flat.is_tree());  // accepts SUSPECT reports
}

TEST(EngineSenderSide, BinaryTreeUnitIsTheRoot) {
  ProtocolConfig config;
  config.kind = ProtocolKind::kBinaryTree;
  const ProtocolEngine& btree = engine(ProtocolKind::kBinaryTree);
  EXPECT_EQ(btree.initial_units(7, config), (std::vector<std::size_t>{0}));
  EXPECT_EQ(btree.live_units({3, 4, 6}, config), (std::vector<std::size_t>{3}));
  EXPECT_TRUE(btree.is_tree());  // accepts SUSPECT reports
}

TEST(EngineSenderSide, OnlyNakPollingSetsThePollFlag) {
  ProtocolConfig config;
  config.poll_interval = 4;
  for (const EngineEntry& e : ProtocolRegistry::instance().entries()) {
    config.kind = e.kind;
    const ProtocolEngine& policy = *e.engine();
    // A forced request that answers with kFlagPoll is what makes the
    // sender end a timer-driven round in a forced poll.
    if (e.kind == ProtocolKind::kNakPolling) {
      EXPECT_EQ(policy.data_flags(3, false, config), kFlagPoll);
      EXPECT_EQ(policy.data_flags(4, false, config), 0);
      EXPECT_EQ(policy.data_flags(4, true, config), kFlagPoll);  // forced
    } else {
      EXPECT_EQ(policy.data_flags(3, false, config), 0);
      EXPECT_EQ(policy.data_flags(3, true, config), 0);
    }
  }
}

TEST(EngineSenderSide, EvictThresholdsScaleWithTreeDepth) {
  ProtocolConfig config;
  config.max_retransmit_rounds = 5;

  // Flat protocols: the configured rounds, regardless of group size.
  for (ProtocolKind kind :
       {ProtocolKind::kAck, ProtocolKind::kNakPolling, ProtocolKind::kRing}) {
    config.kind = kind;
    EXPECT_EQ(engine(kind).evict_threshold(30, config), 5u);
    EXPECT_EQ(engine(kind).evict_threshold(1, config), 5u);
  }

  // Flat tree: rounds * (levels + 2), levels = min(H, n_live) - 1.
  config.kind = ProtocolKind::kFlatTree;
  config.tree_height = 6;
  EXPECT_EQ(engine(ProtocolKind::kFlatTree).evict_threshold(30, config),
            5u * (5 + 2));
  EXPECT_EQ(engine(ProtocolKind::kFlatTree).evict_threshold(3, config),
            5u * (2 + 2));
  EXPECT_EQ(engine(ProtocolKind::kFlatTree).evict_threshold(1, config),
            5u * (0 + 2));

  // Binary tree: levels is the depth of the largest full tree under n_live.
  config.kind = ProtocolKind::kBinaryTree;
  EXPECT_EQ(engine(ProtocolKind::kBinaryTree).evict_threshold(1, config),
            5u * (0 + 2));
  EXPECT_EQ(engine(ProtocolKind::kBinaryTree).evict_threshold(3, config),
            5u * (1 + 2));
  EXPECT_EQ(engine(ProtocolKind::kBinaryTree).evict_threshold(30, config),
            5u * (4 + 2));
}

TEST(EngineReceiverSide, TreeClassification) {
  EXPECT_FALSE(engine(ProtocolKind::kAck).is_tree());
  EXPECT_FALSE(engine(ProtocolKind::kNakPolling).is_tree());
  EXPECT_FALSE(engine(ProtocolKind::kRing).is_tree());
  EXPECT_TRUE(engine(ProtocolKind::kFlatTree).is_tree());
  EXPECT_TRUE(engine(ProtocolKind::kBinaryTree).is_tree());
  // The classification must agree with the config-layer predicate.
  for (const EngineEntry& e : ProtocolRegistry::instance().entries()) {
    EXPECT_EQ(e.engine()->is_tree(), is_tree_protocol(e.kind));
  }
}

TEST(EngineReceiverSide, OnlyTheRingReformsWithoutLinks) {
  for (const EngineEntry& e : ProtocolRegistry::instance().entries()) {
    EXPECT_EQ(e.engine()->reforms_on_evict(), e.kind == ProtocolKind::kRing);
  }
}

TEST(EngineReceiverSide, TreeEnginesMirrorTheLinkBuilders) {
  ProtocolConfig config;
  config.kind = ProtocolKind::kFlatTree;
  config.tree_height = 3;
  const ProtocolEngine& flat = engine(ProtocolKind::kFlatTree);
  for (std::size_t id = 0; id < 7; ++id) {
    const TreeLinks expected = flat_tree_links(id, 7, 3);
    const TreeLinks got = flat.full_links(id, 7, config);
    EXPECT_EQ(got.has_parent, expected.has_parent);
    EXPECT_EQ(got.parent, expected.parent);
    EXPECT_EQ(got.children, expected.children);
  }
  config.kind = ProtocolKind::kBinaryTree;
  const ProtocolEngine& btree = engine(ProtocolKind::kBinaryTree);
  const std::vector<std::size_t> live = {0, 2, 3, 5};
  for (std::size_t id : live) {
    const TreeLinks expected = binary_tree_links_live(id, live);
    const TreeLinks got = btree.live_links(id, live, config);
    EXPECT_EQ(got.has_parent, expected.has_parent);
    EXPECT_EQ(got.parent, expected.parent);
    EXPECT_EQ(got.children, expected.children);
  }
}

TEST(EngineReceiverSide, RepairFlagsReconstructTheDeterministicPoll) {
  // A peer repair or an FEC-recovered block carries the unforced
  // data_flags of its sequence number.
  ProtocolConfig config;
  config.poll_interval = 4;
  for (const EngineEntry& e : ProtocolRegistry::instance().entries()) {
    config.kind = e.kind;
    if (e.kind == ProtocolKind::kNakPolling) {
      EXPECT_EQ(e.engine()->data_flags(3, /*force_poll=*/false, config), kFlagPoll);
      EXPECT_EQ(e.engine()->data_flags(4, /*force_poll=*/false, config), 0);
    } else {
      EXPECT_EQ(e.engine()->data_flags(3, /*force_poll=*/false, config), 0);
    }
  }
}

TEST(ProtocolRegistryTest, ValidateHooksMatchTheConfigLayer) {
  // The registry's per-kind validate is what the config-layer validate()
  // routes through; spot-check the kind-specific failure modes.
  ProtocolConfig nak;
  nak.kind = ProtocolKind::kNakPolling;
  nak.poll_interval = 0;
  EXPECT_FALSE(entry(ProtocolKind::kNakPolling).traits.validate(nak, 10).empty());
  nak.poll_interval = nak.window_size + 1;
  EXPECT_FALSE(entry(ProtocolKind::kNakPolling).traits.validate(nak, 10).empty());
  nak.poll_interval = nak.window_size;
  EXPECT_TRUE(entry(ProtocolKind::kNakPolling).traits.validate(nak, 10).empty());

  ProtocolConfig ring;
  ring.kind = ProtocolKind::kRing;
  ring.window_size = 10;
  EXPECT_FALSE(entry(ProtocolKind::kRing).traits.validate(ring, 10).empty());
  ring.window_size = 11;
  EXPECT_TRUE(entry(ProtocolKind::kRing).traits.validate(ring, 10).empty());

  ProtocolConfig tree;
  tree.kind = ProtocolKind::kFlatTree;
  tree.tree_height = 0;
  EXPECT_FALSE(entry(ProtocolKind::kFlatTree).traits.validate(tree, 10).empty());
  tree.tree_height = 11;
  EXPECT_FALSE(entry(ProtocolKind::kFlatTree).traits.validate(tree, 10).empty());
  tree.tree_height = 5;
  EXPECT_TRUE(entry(ProtocolKind::kFlatTree).traits.validate(tree, 10).empty());
}

TEST(ProtocolRegistryTest, ValidateHooksCoverTheFecKnobs) {
  // An EC config must carry its FEC shape plus the reception options the
  // group machinery depends on; the hooks reject each omission by name.
  ProtocolConfig ec;
  ec.kind = ProtocolKind::kEcRs;
  EXPECT_FALSE(entry(ProtocolKind::kEcRs).traits.validate(ec, 10).empty())
      << "unset fec must be rejected";
  ec.fec.k = 8;
  ec.fec.m = 2;
  ec.window_size = 50;
  EXPECT_FALSE(entry(ProtocolKind::kEcRs).traits.validate(ec, 10).empty())
      << "selective_repeat is mandatory";
  ec.selective_repeat = true;
  EXPECT_FALSE(entry(ProtocolKind::kEcRs).traits.validate(ec, 10).empty())
      << "receiver_driven_timeouts is mandatory";
  ec.receiver_driven_timeouts = true;
  EXPECT_TRUE(entry(ProtocolKind::kEcRs).traits.validate(ec, 10).empty());

  // The group must fit the window or the sender stalls mid-group.
  ec.window_size = ec.fec.group_size() - 1;
  EXPECT_FALSE(entry(ProtocolKind::kEcRs).traits.validate(ec, 10).empty());
  ec.window_size = ec.fec.group_size();
  EXPECT_TRUE(entry(ProtocolKind::kEcRs).traits.validate(ec, 10).empty());

  // The GROUP_NAK bitmap is 64 bits wide: k beyond it must fail.
  ec.fec.k = 65;
  ec.window_size = 80;
  EXPECT_FALSE(entry(ProtocolKind::kEcRs).traits.validate(ec, 10).empty());
  ec.fec.k = 8;

  // ARQ-side options that conflict with the parity machinery.
  ec.window_size = 50;
  ec.multicast_nak_suppression = true;
  EXPECT_FALSE(entry(ProtocolKind::kEcRs).traits.validate(ec, 10).empty());
  ec.multicast_nak_suppression = false;
  ec.unicast_nak_retransmissions = true;
  EXPECT_FALSE(entry(ProtocolKind::kEcRs).traits.validate(ec, 10).empty());
  ec.unicast_nak_retransmissions = false;

  // EC-XOR is the m = 1 special case and rejects anything wider.
  ec.kind = ProtocolKind::kEcXor;
  ec.fec.m = 2;
  EXPECT_FALSE(entry(ProtocolKind::kEcXor).traits.validate(ec, 10).empty());
  ec.fec.m = 1;
  EXPECT_TRUE(entry(ProtocolKind::kEcXor).traits.validate(ec, 10).empty());

  // Conversely the ARQ kinds must reject FEC knobs (config-layer rule).
  ProtocolConfig stray;
  stray.kind = ProtocolKind::kNakPolling;
  stray.poll_interval = 2;
  stray.fec.k = 8;
  stray.fec.m = 1;
  EXPECT_FALSE(validate(stray, 10).empty());
}

TEST(ProtocolRegistryTest, OnlyTheEcKindsCarryTheFecTrait) {
  for (const EngineEntry& e : ProtocolRegistry::instance().entries()) {
    const bool ec =
        e.kind == ProtocolKind::kEcXor || e.kind == ProtocolKind::kEcRs;
    EXPECT_EQ(e.traits.fec, ec);
    EXPECT_EQ(is_fec_protocol(e.kind), ec);
    // The shells key the FEC machinery on config.fec.is_set(): a valid
    // config of the kind carries the FEC shape exactly when the trait says.
    ProtocolConfig config;
    config.kind = e.kind;
    e.traits.apply_recommended_tuning(config, 1'000'000, 10);
    ASSERT_EQ(validate(config, 10), "");
    EXPECT_EQ(config.fec.is_set(), ec);
  }
}

TEST(ProtocolRegistryTest, DescribeKnobsCarryTheKindSpecificSuffix) {
  ProtocolConfig config;
  config.poll_interval = 12;
  config.tree_height = 6;
  config.fec.k = 16;
  config.fec.m = 4;
  for (const EngineEntry& e : ProtocolRegistry::instance().entries()) {
    config.kind = e.kind;
    const std::string knobs = e.traits.describe_knobs(config);
    if (e.kind == ProtocolKind::kNakPolling) {
      EXPECT_EQ(knobs, " poll=12");
    } else if (e.kind == ProtocolKind::kFlatTree) {
      EXPECT_EQ(knobs, " H=6");
    } else if (e.traits.fec) {
      EXPECT_EQ(knobs, " k=16 m=4");
    } else {
      EXPECT_EQ(knobs, "");
    }
  }
}

}  // namespace
}  // namespace rmc::rmcast
