// Unit tests for the L2 models: addresses, frames, links, the learning
// switch, and the CSMA/CD bus.
#include <gtest/gtest.h>

#include <vector>

#include "net/ethernet_switch.h"
#include "net/frame.h"
#include "net/ipv4.h"
#include "net/mac.h"
#include "net/shared_bus.h"
#include "net/tx_port.h"
#include "sim/simulator.h"

namespace rmc::net {
namespace {

Frame test_frame(MacAddr dst, MacAddr src, std::size_t payload_bytes) {
  return make_frame(dst, src, Buffer(payload_bytes, 0xAA));
}

TEST(Ipv4, ParseAndFormat) {
  Ipv4Addr a = Ipv4Addr::parse("10.0.0.31");
  EXPECT_EQ(a.str(), "10.0.0.31");
  EXPECT_EQ(a.bits(), 0x0A00001Fu);
  EXPECT_TRUE(Ipv4Addr::parse("256.1.1.1").is_unspecified());
  EXPECT_TRUE(Ipv4Addr::parse("1.2.3").is_unspecified());
  EXPECT_TRUE(Ipv4Addr::parse("1.2.3.4.5").is_unspecified());
  EXPECT_TRUE(Ipv4Addr::parse("junk").is_unspecified());
}

TEST(Ipv4, MulticastRange) {
  EXPECT_TRUE(Ipv4Addr(224, 0, 0, 1).is_multicast());
  EXPECT_TRUE(Ipv4Addr(239, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Ipv4Addr(223, 255, 255, 255).is_multicast());
  EXPECT_FALSE(Ipv4Addr(240, 0, 0, 0).is_multicast());
  EXPECT_FALSE(Ipv4Addr(10, 0, 0, 1).is_multicast());
}

TEST(Ipv4, EndpointFormatting) {
  Endpoint e{Ipv4Addr(10, 0, 0, 1), 5001};
  EXPECT_EQ(e.str(), "10.0.0.1:5001");
  EXPECT_EQ(e, (Endpoint{Ipv4Addr(10, 0, 0, 1), 5001}));
  EXPECT_NE(e, (Endpoint{Ipv4Addr(10, 0, 0, 1), 5002}));
}

TEST(Mac, GroupBitAndBroadcast) {
  EXPECT_TRUE(MacAddr::broadcast().is_group());
  EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
  EXPECT_FALSE(MacAddr::host(3).is_group());
  EXPECT_TRUE(MacAddr::from_multicast_group(Ipv4Addr(239, 0, 0, 1)).is_group());
}

TEST(Mac, Rfc1112MulticastMapping) {
  // 239.0.0.1 -> 01:00:5e:00:00:01 (low 23 bits).
  MacAddr m = MacAddr::from_multicast_group(Ipv4Addr(239, 0, 0, 1));
  EXPECT_EQ(m.str(), "01:00:5e:00:00:01");
  // 224.128.0.1 and 224.0.0.1 collide in the low 23 bits, as per the RFC.
  EXPECT_EQ(MacAddr::from_multicast_group(Ipv4Addr(224, 128, 0, 1)),
            MacAddr::from_multicast_group(Ipv4Addr(224, 0, 0, 1)));
}

TEST(PayloadRef, SharingBumpsRefcountNotBytes) {
  Buffer bytes = {1, 2, 3, 4};
  PayloadRef a = PayloadRef::copy_of(BytesView(bytes.data(), bytes.size()));
  EXPECT_TRUE(a.unique());
  PayloadRef b = a;
  EXPECT_EQ(a.ref_count(), 2u);
  EXPECT_EQ(a.data(), b.data());  // same block, no copy
  b.reset();
  EXPECT_TRUE(a.unique());
  EXPECT_EQ(a.view()[2], 3);
}

TEST(PayloadRef, CopyOnWriteIsolatesMutation) {
  const FrameArena::Stats& stats = FrameArena::instance().stats();
  const std::uint64_t cows_before = stats.copies_on_write;
  Buffer bytes(100, 0x55);
  PayloadRef original = PayloadRef::copy_of(BytesView(bytes.data(), bytes.size()));
  PayloadRef tampered = original;
  tampered.mutable_data()[10] ^= 0xFF;
  EXPECT_EQ(stats.copies_on_write, cows_before + 1);
  EXPECT_NE(original.data(), tampered.data());
  EXPECT_EQ(original.view()[10], 0x55);
  EXPECT_EQ(tampered.view()[10], 0x55 ^ 0xFF);
  // A unique ref mutates in place — no second copy.
  tampered.mutable_data()[11] ^= 0xFF;
  EXPECT_EQ(stats.copies_on_write, cows_before + 1);
}

TEST(FrameArena, RecyclesStandardBlocks) {
  FrameArena& arena = FrameArena::instance();
  // Warm the free list, then churn: no fresh allocations in steady state.
  PayloadRef::allocate(1500).reset();
  const std::uint64_t created = arena.stats().blocks_created;
  const std::uint64_t reused_before = arena.stats().blocks_reused;
  for (int i = 0; i < 100; ++i) {
    PayloadRef ref = PayloadRef::allocate(1500);
    ref.mutable_data()[0] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(arena.stats().blocks_created, created);
  EXPECT_GE(arena.stats().blocks_reused, reused_before + 100);
}

TEST(FrameArena, OversizePayloadsWork) {
  // Payloads beyond the MTU (whole datagrams) recycle through their own
  // size classes, up to the 64 KiB maximum, just like frame payloads.
  FrameArena& arena = FrameArena::instance();
  for (std::size_t size : {std::size_t{1501}, std::size_t{4000}, std::size_t{8012},
                           FrameArena::kMaxCapacity}) {
    Buffer big(size, 0xCD);
    PayloadRef::copy_of(BytesView(big.data(), big.size())).reset();  // warm the class
    const std::uint64_t created = arena.stats().blocks_created;
    for (int i = 0; i < 10; ++i) {
      big.back() = static_cast<std::uint8_t>(i);
      PayloadRef ref = PayloadRef::copy_of(BytesView(big.data(), big.size()));
      ASSERT_EQ(ref.size(), size);
      EXPECT_EQ(ref.view()[0], 0xCD);
      EXPECT_EQ(ref.view()[size - 1], i);
    }
    EXPECT_EQ(arena.stats().blocks_created, created) << size;
  }
}

TEST(FrameArena, EverySizeUpToTheMaximumFits) {
  // Each size class's blocks hold every size the class serves (a sanitizer
  // build turns an undersized block into a heap overflow here).
  for (std::size_t size = 1; size <= FrameArena::kMaxCapacity; ++size) {
    PayloadRef ref = PayloadRef::allocate(size);
    ASSERT_EQ(ref.size(), size);
    std::uint8_t* bytes = ref.mutable_data();
    bytes[0] = 1;
    bytes[size - 1] = 2;
  }
}

TEST(Frame, SizeAccounting) {
  Frame f = test_frame(MacAddr::host(1), MacAddr::host(2), 1000);
  EXPECT_EQ(f.frame_bytes(), 1000u + 18u);
  EXPECT_EQ(f.wire_bytes(), 1000u + 18u + 20u);
}

TEST(Frame, PadsToMinimum) {
  Frame f = test_frame(MacAddr::host(1), MacAddr::host(2), 10);
  EXPECT_EQ(f.frame_bytes(), kEthMinFrameBytes);
  EXPECT_EQ(f.wire_bytes(), kEthMinFrameBytes + kEthPreambleAndIfgBytes);
}

TEST(TxPort, SerializationTiming) {
  sim::Simulator sim;
  LinkParams params;
  params.rate_bps = 100e6;
  params.propagation = sim::nanoseconds(500);
  TxPort port(sim, params);
  std::vector<sim::Time> arrivals;
  port.connect([&](const Frame&) { arrivals.push_back(sim.now()); });

  // 1230-byte payload -> 1268 wire bytes -> 101.44 us serialization.
  port.send(test_frame(MacAddr::host(1), MacAddr::host(0), 1230));
  port.send(test_frame(MacAddr::host(1), MacAddr::host(0), 1230));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], sim::nanoseconds(101440 + 500));
  // Second frame queues behind the first.
  EXPECT_EQ(arrivals[1], sim::nanoseconds(2 * 101440 + 500));
  EXPECT_EQ(port.stats().frames_sent, 2u);
  EXPECT_EQ(port.stats().busy_time, sim::nanoseconds(2 * 101440));
}

TEST(TxPort, DropsWhenQueueFull) {
  sim::Simulator sim;
  LinkParams params;
  params.queue_frames = 2;
  TxPort port(sim, params);
  int delivered = 0;
  port.connect([&](const Frame&) { ++delivered; });
  // One transmitting + two queued + one dropped.
  for (int i = 0; i < 4; ++i) {
    port.send(test_frame(MacAddr::host(1), MacAddr::host(0), 100));
  }
  EXPECT_EQ(port.stats().queue_drops, 1u);
  sim.run();
  EXPECT_EQ(delivered, 3);
}

TEST(TxPort, FrameErrorsConsumeWireTimeButDropFrame) {
  sim::Simulator sim;
  Rng rng(1);
  LinkParams params;
  params.frame_error_rate = 1.0;  // every frame corrupted
  TxPort port(sim, params, &rng);
  int delivered = 0;
  port.connect([&](const Frame&) { ++delivered; });
  port.send(test_frame(MacAddr::host(1), MacAddr::host(0), 500));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(port.stats().error_drops, 1u);
  EXPECT_GT(port.stats().busy_time, 0);
}

TEST(TxPort, DequeueHookReportsWireBytes) {
  sim::Simulator sim;
  TxPort port(sim, LinkParams{});
  port.connect([](const Frame&) {});
  std::size_t reported = 0;
  port.set_dequeue_hook([&](std::size_t bytes) { reported += bytes; });
  Frame f = test_frame(MacAddr::host(1), MacAddr::host(0), 1000);
  const std::size_t wire = f.wire_bytes();
  port.send(f);
  port.send(test_frame(MacAddr::host(1), MacAddr::host(0), 1000));
  EXPECT_EQ(port.queued_wire_bytes(), wire);  // second frame queued
  sim.run();
  EXPECT_EQ(reported, 2 * wire);
  EXPECT_EQ(port.queued_wire_bytes(), 0u);
}

TEST(TxPort, TamperFaultFlipsOneByteInPrivateCopy) {
  sim::Simulator sim;
  Rng rng(5);
  LinkParams params;
  params.faults.tamper_rate = 1.0;  // every delivered frame tampered
  TxPort port(sim, params, &rng);
  std::vector<Frame> delivered;
  port.connect([&](const Frame& f) { delivered.push_back(f); });

  Frame frame = test_frame(MacAddr::host(1), MacAddr::host(0), 200);
  PayloadRef pristine = frame.payload;  // a flood peer's view of the block
  port.send(frame);
  sim.run();

  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(port.stats().tampered_frames, 1u);
  // The delivered copy differs from the shared original in exactly one byte.
  ASSERT_EQ(delivered[0].payload.size(), pristine.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    if (delivered[0].payload.view()[i] != pristine.view()[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1u);
  // And the original block was never mutated: every byte still 0xAA.
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    ASSERT_EQ(pristine.view()[i], 0xAA);
  }
}

class SwitchTest : public ::testing::Test {
 protected:
  SwitchTest() : sw_(sim_, 4, SwitchParams{}) {
    for (std::size_t p = 0; p < 4; ++p) {
      ingress_[p] = sw_.attach(p, [this, p](const Frame& f) {
        received_[p].push_back(f);
      });
    }
  }

  sim::Simulator sim_;
  EthernetSwitch sw_;
  FrameSink ingress_[4];
  std::vector<Frame> received_[4];
};

TEST_F(SwitchTest, FloodsUnknownUnicast) {
  ingress_[0](test_frame(MacAddr::host(9), MacAddr::host(0), 100));
  sim_.run();
  EXPECT_TRUE(received_[0].empty());  // never back out the ingress port
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(received_[3].size(), 1u);
  EXPECT_EQ(sw_.stats().frames_flooded, 1u);
}

TEST_F(SwitchTest, LearnsAndForwardsPointToPoint) {
  // Teach the switch where host 2 lives.
  ingress_[2](test_frame(MacAddr::broadcast(), MacAddr::host(2), 100));
  sim_.run();
  received_[0].clear();
  received_[1].clear();
  received_[3].clear();

  ingress_[0](test_frame(MacAddr::host(2), MacAddr::host(0), 100));
  sim_.run();
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_TRUE(received_[1].empty());
  EXPECT_TRUE(received_[3].empty());
  EXPECT_EQ(sw_.stats().frames_forwarded, 1u);
}

TEST_F(SwitchTest, FiltersFramesForTheIngressSegment) {
  ingress_[1](test_frame(MacAddr::broadcast(), MacAddr::host(5), 100));
  sim_.run();
  for (auto& r : received_) r.clear();
  // Host 5 was learned on port 1; a frame to host 5 arriving on port 1
  // must be dropped (destination is on the source segment).
  ingress_[1](test_frame(MacAddr::host(5), MacAddr::host(6), 100));
  sim_.run();
  for (const auto& r : received_) EXPECT_TRUE(r.empty());
}

TEST_F(SwitchTest, RelearnsMovedStation) {
  // Host 5 first appears on port 1, then moves to port 3 (cable swap).
  ingress_[1](test_frame(MacAddr::broadcast(), MacAddr::host(5), 100));
  sim_.run();
  ingress_[3](test_frame(MacAddr::broadcast(), MacAddr::host(5), 100));
  sim_.run();
  for (auto& r : received_) r.clear();

  ingress_[0](test_frame(MacAddr::host(5), MacAddr::host(0), 100));
  sim_.run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(received_[3].size(), 1u);
}

TEST_F(SwitchTest, MulticastAlwaysFloods) {
  MacAddr group = MacAddr::from_multicast_group(Ipv4Addr(239, 0, 0, 1));
  ingress_[3](test_frame(group, MacAddr::host(3), 100));
  sim_.run();
  EXPECT_EQ(received_[0].size(), 1u);
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_TRUE(received_[3].empty());
}

TEST_F(SwitchTest, FloodingSharesOnePayloadBlock) {
  Frame frame = test_frame(MacAddr::broadcast(), MacAddr::host(0), 700);
  const std::uint8_t* block = frame.payload.data();
  ingress_[0](frame);
  sim_.run();
  // Every egress copy points at the same arena block — flooding never
  // duplicated the payload bytes.
  for (std::size_t p = 1; p < 4; ++p) {
    ASSERT_EQ(received_[p].size(), 1u);
    EXPECT_EQ(received_[p][0].payload.data(), block);
  }
  EXPECT_EQ(frame.payload.ref_count(), 4u);  // ours + three receive logs
}

TEST_F(SwitchTest, ForwardingLatencyApplied) {
  ingress_[0](test_frame(MacAddr::broadcast(), MacAddr::host(0), 1000));
  sim_.run();
  // Forwarding latency + serialization + propagation.
  SwitchParams defaults;
  sim::Time expected = kForwardingLatency +
                       sim::transmission_time(1000 + 38, defaults.port.rate_bps) +
                       defaults.port.propagation;
  EXPECT_EQ(sim_.now(), expected);
}

class SnoopingSwitchTest : public ::testing::Test {
 protected:
  SnoopingSwitchTest() : sw_(sim_, 4, make_params()) {
    for (std::size_t p = 0; p < 4; ++p) {
      ingress_[p] = sw_.attach(p, [this, p](const Frame& f) {
        received_[p].push_back(f);
      });
    }
  }

  static SwitchParams make_params() {
    SwitchParams params;
    params.multicast_snooping = true;
    return params;
  }

  sim::Simulator sim_;
  EthernetSwitch sw_;
  FrameSink ingress_[4];
  std::vector<Frame> received_[4];
};

TEST_F(SnoopingSwitchTest, RegisteredGroupsReachMembersOnly) {
  MacAddr group = MacAddr::from_multicast_group(Ipv4Addr(239, 0, 0, 1));
  sw_.register_group_port(group, 1);
  sw_.register_group_port(group, 3);
  ingress_[0](test_frame(group, MacAddr::host(0), 100));
  sim_.run();
  EXPECT_TRUE(received_[0].empty());
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_TRUE(received_[2].empty());  // not a member: filtered at the switch
  EXPECT_EQ(received_[3].size(), 1u);
  EXPECT_EQ(sw_.stats().frames_snoop_forwarded, 1u);
  EXPECT_EQ(sw_.stats().frames_flooded, 0u);
}

TEST_F(SnoopingSwitchTest, UnregisteredGroupsStillFlood) {
  MacAddr group = MacAddr::from_multicast_group(Ipv4Addr(239, 9, 9, 9));
  ingress_[0](test_frame(group, MacAddr::host(0), 100));
  sim_.run();
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(sw_.stats().frames_flooded, 1u);
}

TEST_F(SnoopingSwitchTest, BroadcastIgnoresSnooping) {
  MacAddr group = MacAddr::from_multicast_group(Ipv4Addr(239, 0, 0, 1));
  sw_.register_group_port(group, 1);
  ingress_[0](test_frame(MacAddr::broadcast(), MacAddr::host(0), 100));
  sim_.run();
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(received_[3].size(), 1u);
}

TEST_F(SnoopingSwitchTest, RegistrationIsReferenceCounted) {
  MacAddr group = MacAddr::from_multicast_group(Ipv4Addr(239, 0, 0, 1));
  sw_.register_group_port(group, 1);
  sw_.register_group_port(group, 1);  // a second socket on the same port
  sw_.unregister_group_port(group, 1);
  ingress_[0](test_frame(group, MacAddr::host(0), 100));
  sim_.run();
  EXPECT_EQ(received_[1].size(), 1u);  // still registered once
  sw_.unregister_group_port(group, 1);
  ingress_[0](test_frame(group, MacAddr::host(0), 100));
  sim_.run();
  // No members left: the group is unknown again and floods.
  EXPECT_EQ(received_[2].size(), 1u);
}

TEST(SharedBus, SingleStationDeliversToAllOthers) {
  sim::Simulator sim;
  Rng rng(1);
  SharedBus bus(sim, rng);
  int received[3] = {0, 0, 0};
  for (int s = 0; s < 3; ++s) {
    bus.add_station([&received, s](const Frame&) { ++received[s]; });
  }
  bus.send(0, test_frame(MacAddr::broadcast(), MacAddr::host(0), 500));
  sim.run();
  EXPECT_EQ(received[0], 0);  // no self-delivery
  EXPECT_EQ(received[1], 1);
  EXPECT_EQ(received[2], 1);
  EXPECT_EQ(bus.stats().frames_delivered, 1u);
  EXPECT_EQ(bus.stats().collisions, 0u);
}

TEST(SharedBus, SimultaneousStartsCollideThenRecover) {
  sim::Simulator sim;
  Rng rng(7);
  SharedBus bus(sim, rng);
  int received[2] = {0, 0};
  for (int s = 0; s < 2; ++s) {
    bus.add_station([&received, s](const Frame&) { ++received[s]; });
  }
  // Both stations transmit at t=0: neither senses the other -> collision,
  // backoff, then both succeed.
  bus.send(0, test_frame(MacAddr::broadcast(), MacAddr::host(0), 500));
  bus.send(1, test_frame(MacAddr::broadcast(), MacAddr::host(1), 500));
  sim.run();
  EXPECT_GE(bus.stats().collisions, 1u);
  EXPECT_EQ(bus.stats().frames_delivered, 2u);
  EXPECT_EQ(received[0], 1);
  EXPECT_EQ(received[1], 1);
}

TEST(SharedBus, CarrierSenseDefersInsteadOfColliding) {
  sim::Simulator sim;
  Rng rng(7);
  SharedBus bus(sim, rng);
  int received = 0;
  bus.add_station([](const Frame&) {});
  bus.add_station([&](const Frame&) { ++received; });
  bus.send(0, test_frame(MacAddr::broadcast(), MacAddr::host(0), 1000));
  // Second transmission starts well after the first is sensed: no collision.
  sim.schedule_at(kBusPropagation + sim::microseconds(10), [&] {
    bus.send(0, test_frame(MacAddr::broadcast(), MacAddr::host(0), 1000));
  });
  sim.run();
  EXPECT_EQ(bus.stats().collisions, 0u);
  EXPECT_EQ(received, 2);
}

TEST(SharedBus, ManyStationsAllEventuallyDeliver) {
  sim::Simulator sim;
  Rng rng(3);
  SharedBus bus(sim, rng);
  const int n = 8;
  std::vector<int> received(n, 0);
  for (int s = 0; s < n; ++s) {
    bus.add_station([&received, s](const Frame&) { ++received[s]; });
  }
  for (int s = 0; s < n; ++s) {
    bus.send(static_cast<std::size_t>(s),
             test_frame(MacAddr::broadcast(), MacAddr::host(static_cast<std::uint32_t>(s)),
                        800));
  }
  sim.run();
  EXPECT_EQ(bus.stats().frames_delivered, static_cast<std::uint64_t>(n));
  for (int s = 0; s < n; ++s) {
    EXPECT_EQ(received[s], n - 1) << "station " << s;
  }
}

TEST(SharedBus, BacklogAccountingAndHook) {
  sim::Simulator sim;
  Rng rng(1);
  SharedBus bus(sim, rng);
  bus.add_station([](const Frame&) {});
  bus.add_station([](const Frame&) {});
  std::size_t drained = 0;
  bus.set_dequeue_hook(0, [&](std::size_t bytes) { drained += bytes; });
  Frame f = test_frame(MacAddr::broadcast(), MacAddr::host(0), 500);
  const std::size_t wire = f.wire_bytes();
  bus.send(0, f);
  bus.send(0, test_frame(MacAddr::broadcast(), MacAddr::host(0), 500));
  EXPECT_EQ(bus.station_backlog_bytes(0), 2 * wire);
  sim.run();
  EXPECT_EQ(bus.station_backlog_bytes(0), 0u);
  EXPECT_EQ(drained, 2 * wire);
}

}  // namespace
}  // namespace rmc::net
