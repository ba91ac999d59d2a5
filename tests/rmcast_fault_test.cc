// Fault injection and graceful degradation, end to end.
//
// The crash matrix is the core contract: for every protocol family, a
// receiver that fail-stops mid-transfer is evicted after
// max_retransmit_rounds of no progress, send() still completes, the
// DeliveryReport names exactly the dead receiver, every live receiver
// delivers a byte-exact copy, and the ring/tree structures verifiably
// re-form over the survivors. Around it: pause/resume and link flaps must
// NOT trip the failure detector (they heal through ordinary
// retransmission), and the Gilbert–Elliott burst channel must both obey
// its stationary loss rate and be survivable.
#include <gtest/gtest.h>

#include "protocol_test_util.h"
#include "sim/fault.h"

namespace rmc::rmcast {
namespace {

constexpr std::size_t kReceivers = 6;
constexpr std::size_t kCrashed = 4;

ProtocolConfig fault_config(ProtocolKind kind) {
  ProtocolConfig c = test::config_for(kind);  // 4000B packets, window 16, H=3
  c.max_retransmit_rounds = 3;
  c.rto = sim::milliseconds(20);
  c.max_rto = sim::milliseconds(80);
  return c;
}

// A ProtocolHarness run with a fault plan applied and the SendOutcome kept.
struct FaultRun {
  explicit FaultRun(ProtocolConfig config) : h(kReceivers, config) {}

  bool go(const sim::FaultPlan& plan, std::size_t message_bytes = 240'000,
          sim::Time limit = sim::seconds(30.0)) {
    h.session().cluster().apply_fault_plan(plan);
    message = test::pattern(message_bytes);
    bool done = false;
    h.sender().send(BytesView(message.data(), message.size()),
                    [&](const SendOutcome& o) {
                      done = true;
                      outcome = o;
                    });
    h.run_until_done(done, limit);
    return done;
  }

  test::ProtocolHarness h;
  Buffer message;
  SendOutcome outcome;
};

class CrashMatrixTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(CrashMatrixTest, CrashedReceiverEvictedAndOthersDeliver) {
  const ProtocolKind kind = GetParam();
  FaultRun run(fault_config(kind));
  sim::FaultPlan plan;
  plan.crash(kCrashed, sim::milliseconds(5));  // mid data phase

  ASSERT_TRUE(run.go(plan)) << protocol_name(kind) << ": send() never completed";

  // The report names exactly the crashed receiver.
  ASSERT_EQ(run.outcome.receivers.size(), kReceivers);
  for (std::size_t i = 0; i < kReceivers; ++i) {
    EXPECT_EQ(run.outcome.receivers[i].delivered(), i != kCrashed)
        << protocol_name(kind) << " receiver " << i;
  }
  EXPECT_EQ(run.outcome.n_evicted(), 1u);
  EXPECT_EQ(run.h.sender().stats().receivers_evicted, 1u);
  EXPECT_TRUE(run.h.sender().is_evicted(kCrashed));
  EXPECT_GT(run.h.sender().stats().rto_backoffs, 0u);

  // Every live receiver delivered a byte-exact copy; the dead one none.
  for (std::size_t i = 0; i < kReceivers; ++i) {
    if (i == kCrashed) {
      EXPECT_TRUE(run.h.deliveries(i).empty());
      continue;
    }
    ASSERT_EQ(run.h.deliveries(i).size(), 1u)
        << protocol_name(kind) << " receiver " << i;
    EXPECT_EQ(run.h.deliveries(i)[0].message, run.message)
        << protocol_name(kind) << " receiver " << i;
  }

  // The sender's tracked roster no longer contains the dead node.
  for (std::size_t node : run.h.sender().unit_nodes()) {
    EXPECT_NE(node, kCrashed);
  }

  // Survivors agree the node is gone and re-formed their structure.
  if (kind == ProtocolKind::kRing || is_tree_protocol(kind)) {
    for (std::size_t i = 0; i < kReceivers; ++i) {
      if (i == kCrashed) continue;
      const auto& live = run.h.receiver(i).live();
      EXPECT_EQ(live.size(), kReceivers - 1) << "receiver " << i;
      for (std::size_t node : live) EXPECT_NE(node, kCrashed);
      EXPECT_GT(run.h.receiver(i).stats().evict_notices_received, 0u);
      EXPECT_GT(run.h.receiver(i).stats().structure_reforms, 0u);
    }
  }

  if (is_tree_protocol(kind)) {
    // Node 4 is interior in both trees (6 nodes, H=3: chains {0,1,2},
    // {3,4,5}; binary heap: 4 is a child of 1), so its parent must have
    // reported it and the sender must have heard.
    EXPECT_GT(run.h.sender().stats().suspect_reports_received, 0u);
    const std::size_t parent = kind == ProtocolKind::kFlatTree ? 3 : 1;
    EXPECT_GT(run.h.receiver(parent).stats().suspects_sent, 0u);
  }
  if (kind == ProtocolKind::kFlatTree) {
    // Chain two spliced: 3 stays head, 5 promoted into 4's slot.
    EXPECT_EQ(run.h.receiver(3).links().children, (std::vector<std::size_t>{5}));
    ASSERT_TRUE(run.h.receiver(5).links().has_parent);
    EXPECT_EQ(run.h.receiver(5).links().parent, 3u);
    EXPECT_EQ(run.h.sender().unit_nodes(), (std::vector<std::size_t>{0, 3}));
  }
  if (kind == ProtocolKind::kBinaryTree) {
    // Heap re-indexed over {0,1,2,3,5}: 5 takes rank 4, child of 1.
    ASSERT_TRUE(run.h.receiver(5).links().has_parent);
    EXPECT_EQ(run.h.receiver(5).links().parent, 1u);
    EXPECT_EQ(run.h.sender().unit_nodes(), (std::vector<std::size_t>{0}));
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, CrashMatrixTest,
                         ::testing::Values(ProtocolKind::kAck,
                                           ProtocolKind::kNakPolling,
                                           ProtocolKind::kRing,
                                           ProtocolKind::kFlatTree,
                                           ProtocolKind::kBinaryTree),
                         [](const auto& info) {
                           std::string name = protocol_name(info.param);
                           std::erase_if(name, [](char c) { return !std::isalnum(c); });
                           return name;
                         });

TEST(Fault, CrashDuringAllocPhaseEvictsToo) {
  // Dead before the handshake ever reaches it: the alloc retry loop, not
  // the data-phase stall detector, must give up on it.
  FaultRun run(fault_config(ProtocolKind::kAck));
  sim::FaultPlan plan;
  plan.crash(kCrashed, sim::microseconds(1));
  ASSERT_TRUE(run.go(plan, 40'000));
  EXPECT_FALSE(run.outcome.receivers[kCrashed].delivered());
  EXPECT_EQ(run.outcome.receivers[kCrashed].acked_packets, 0u);
  EXPECT_EQ(run.outcome.n_evicted(), 1u);
}

TEST(Fault, EvictionDisabledMeansWaitForever) {
  // The paper's fault-free semantics are the default: a crashed receiver
  // stalls the send indefinitely rather than being given up on.
  ProtocolConfig config = test::config_for(ProtocolKind::kAck);
  ASSERT_EQ(config.max_retransmit_rounds, 0u);
  FaultRun run(config);
  sim::FaultPlan plan;
  plan.crash(kCrashed, sim::milliseconds(5));
  EXPECT_FALSE(run.go(plan, 240'000, sim::seconds(5.0)));
  EXPECT_EQ(run.h.sender().stats().receivers_evicted, 0u);
}

TEST(Fault, PauseAndResumeIsNotEvicted) {
  // A descheduled process that comes back inside the eviction budget heals
  // through ordinary retransmission — the detector must not false-trigger.
  FaultRun run(fault_config(ProtocolKind::kAck));
  sim::FaultPlan plan;
  plan.pause(2, sim::milliseconds(4)).resume(2, sim::milliseconds(30));
  ASSERT_TRUE(run.go(plan));
  EXPECT_TRUE(run.outcome.all_delivered());
  EXPECT_EQ(run.h.sender().stats().receivers_evicted, 0u);
  ASSERT_EQ(run.h.deliveries(2).size(), 1u);
  EXPECT_EQ(run.h.deliveries(2)[0].message, run.message);
}

TEST(Fault, FlappingLinkHealsWithoutEviction) {
  FaultRun run(fault_config(ProtocolKind::kNakPolling));
  sim::FaultPlan plan;
  plan.flap_link(1, sim::milliseconds(3), sim::milliseconds(24),
                 sim::milliseconds(3));
  ASSERT_TRUE(run.go(plan));
  EXPECT_TRUE(run.outcome.all_delivered());
  EXPECT_EQ(run.h.sender().stats().receivers_evicted, 0u);
  ASSERT_EQ(run.h.deliveries(1).size(), 1u);
  EXPECT_EQ(run.h.deliveries(1)[0].message, run.message);
}

TEST(Fault, PermanentLinkDownEvictsLikeACrash) {
  FaultRun run(fault_config(ProtocolKind::kAck));
  sim::FaultPlan plan;
  plan.link_down(kCrashed, sim::milliseconds(5));
  ASSERT_TRUE(run.go(plan));
  EXPECT_EQ(run.outcome.n_evicted(), 1u);
  EXPECT_FALSE(run.outcome.receivers[kCrashed].delivered());
}

TEST(Fault, GilbertElliottStationaryLossMatchesSimulation) {
  sim::GilbertElliottParams ge;
  ge.p_good_to_bad = 0.02;
  ge.p_bad_to_good = 0.25;
  ge.loss_good = 0.0;
  ge.loss_bad = 1.0;
  // Stationary P(bad) = p_gb / (p_gb + p_bg).
  EXPECT_NEAR(ge.stationary_loss(), 0.02 / 0.27, 1e-12);

  sim::GilbertElliottModel model(ge);
  Rng rng(7);
  const int kFrames = 200'000;
  int dropped = 0;
  int current_burst = 0, max_burst = 0;
  for (int i = 0; i < kFrames; ++i) {
    if (model.drop(rng)) {
      ++dropped;
      max_burst = std::max(max_burst, ++current_burst);
    } else {
      current_burst = 0;
    }
  }
  EXPECT_NEAR(static_cast<double>(dropped) / kFrames, ge.stationary_loss(), 0.01);
  // Mean burst length 1/p_bad_to_good = 4: losses must actually cluster.
  EXPECT_GE(max_burst, 4);
}

TEST(Fault, TransferSurvivesBurstLossDuplicationAndReordering) {
  ProtocolConfig config = test::config_for(ProtocolKind::kNakPolling);
  inet::ClusterParams cluster;
  cluster.link.faults.burst.p_good_to_bad = 0.005;
  cluster.link.faults.burst.p_bad_to_good = 0.3;
  cluster.link.faults.duplicate_rate = 0.01;
  cluster.link.faults.reorder_rate = 0.01;

  test::ProtocolHarness h(kReceivers, config, cluster);
  Buffer message = test::pattern(240'000);
  ASSERT_TRUE(h.send_and_run(message, sim::seconds(60.0)));
  h.expect_all_delivered({message});

  // The impairments actually fired.
  std::uint64_t bursts = 0, dups = 0, reorders = 0;
  for (std::size_t i = 0; i < h.session().cluster().size(); ++i) {
    const net::TxPort* nic = h.session().cluster().host_nic(i);
    ASSERT_NE(nic, nullptr);
    bursts += nic->stats().burst_drops;
    dups += nic->stats().duplicated_frames;
    reorders += nic->stats().reordered_frames;
  }
  EXPECT_GT(bursts, 0u);
  EXPECT_GT(dups, 0u);
  EXPECT_GT(reorders, 0u);
}

TEST(Fault, SequentialSendAfterEvictionStartsFromFullRoster) {
  // Eviction is per-send state: the next message tries the whole roster
  // again (the process may have been restarted).
  FaultRun run(fault_config(ProtocolKind::kAck));
  sim::FaultPlan plan;
  plan.crash(kCrashed, sim::milliseconds(5));
  ASSERT_TRUE(run.go(plan, 120'000));
  ASSERT_EQ(run.outcome.n_evicted(), 1u);

  Buffer second = test::pattern(40'000);
  bool done = false;
  SendOutcome outcome2;
  run.h.sender().send(BytesView(second.data(), second.size()),
                      [&](const SendOutcome& o) {
                        done = true;
                        outcome2 = o;
                      });
  sim::Time limit = run.h.session().simulator().now() + sim::seconds(10.0);
  run.h.run_until_done(done, limit);
  ASSERT_TRUE(done);
  // Still-crashed node gets evicted afresh; the roster was full again.
  ASSERT_EQ(outcome2.receivers.size(), kReceivers);
  EXPECT_EQ(outcome2.n_evicted(), 1u);
  EXPECT_FALSE(outcome2.receivers[kCrashed].delivered());
  EXPECT_EQ(run.h.sender().stats().receivers_evicted, 2u);  // cumulative
}

}  // namespace
}  // namespace rmc::rmcast
