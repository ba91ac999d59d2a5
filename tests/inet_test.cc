// Unit tests for the simulated IP/UDP stack: fragmentation, reassembly,
// host CPU model, socket semantics, buffer overflow, and topologies.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <deque>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "inet/cluster.h"
#include "inet/host.h"
#include "inet/ip.h"

namespace rmc::inet {
namespace {

Buffer pattern(std::size_t n) {
  Buffer b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 7 + 1);
  return b;
}

const net::Endpoint kSrc{net::Ipv4Addr(10, 0, 0, 1), 1111};
const net::Endpoint kDst{net::Ipv4Addr(10, 0, 0, 2), 2222};

// The frame payloads of one datagram, in offset order.
std::vector<net::PayloadRef> fragments_of(const Buffer& payload, std::uint16_t ident) {
  std::vector<net::PayloadRef> out;
  fragment_datagram(kSrc, kDst, BytesView(payload.data(), payload.size()), ident,
                    [&](net::PayloadRef f) { out.push_back(std::move(f)); });
  return out;
}

Buffer bytes_of(const Datagram& d) { return Buffer(d.payload.begin(), d.payload.end()); }

// A hand-built fragment of datagram `ident` from kSrc to kDst, for
// feeding the reassembler what a well-behaved sender never would.
net::PayloadRef forged(std::uint16_t ident, std::uint32_t offset, std::uint32_t total,
                       const Buffer& data) {
  IpFragment f;
  f.src = kSrc.addr;
  f.dst = kDst.addr;
  f.ident = ident;
  f.offset = offset;
  f.total_bytes = total;
  f.more_fragments = offset + data.size() < total;
  f.data = BytesView(data.data(), data.size());
  return f.serialize();
}

class FragmentationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FragmentationTest, RoundTripsThroughReassembly) {
  const std::size_t size = GetParam();
  sim::Simulator sim;
  const Buffer in = pattern(size);

  std::vector<Datagram> out;
  std::size_t out_fragments = 0;
  Reassembler reassembler(sim, [&](Datagram d, std::size_t nf) {
    out.push_back(std::move(d));
    out_fragments = nf;
  });

  auto fragments = fragments_of(in, 42);
  EXPECT_EQ(fragments.size(), fragment_count(size));
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    auto parsed = IpFragment::parse(fragments[i].view());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->offset, i * kIpPayloadPerFrame);
    EXPECT_EQ(parsed->total_bytes, kUdpHeaderBytes + size);
    EXPECT_EQ(parsed->more_fragments, i + 1 < fragments.size());
    reassembler.accept(fragments[i]);
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].src, kSrc);
  EXPECT_EQ(out[0].dst, kDst);
  EXPECT_EQ(bytes_of(out[0]), in);
  EXPECT_EQ(out_fragments, fragments.size());
  EXPECT_EQ(reassembler.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FragmentationTest,
                         ::testing::Values(0, 1, 100, 1471, 1472, 1473, 2960, 8192,
                                           50000, 65507));

TEST(Fragmentation, ParseInvertsSerialize) {
  const Buffer data = pattern(700);
  net::PayloadRef wire = forged(99, 1480, 3008, data);
  ASSERT_EQ(wire.size(), kIpHeaderBytes + data.size());
  auto parsed = IpFragment::parse(wire.view());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, kSrc.addr);
  EXPECT_EQ(parsed->dst, kDst.addr);
  EXPECT_EQ(parsed->ident, 99);
  EXPECT_EQ(parsed->offset, 1480u);
  EXPECT_EQ(parsed->total_bytes, 3008u);
  EXPECT_TRUE(parsed->more_fragments);
  // The parsed data is a view of the wire bytes, not a copy.
  EXPECT_EQ(parsed->data.data(), wire.data() + kIpHeaderBytes);
  EXPECT_EQ(Buffer(parsed->data.begin(), parsed->data.end()), data);
}

TEST(Fragmentation, SingleFragmentDatagramIsAViewOfItsFrame) {
  sim::Simulator sim;
  const Buffer in = pattern(1000);
  std::vector<Datagram> out;
  Reassembler reassembler(sim, [&](Datagram d, std::size_t) { out.push_back(std::move(d)); });
  auto fragments = fragments_of(in, 5);
  ASSERT_EQ(fragments.size(), 1u);
  reassembler.accept(fragments[0]);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload.data(),
            fragments[0].data() + kIpHeaderBytes + kUdpHeaderBytes);
  EXPECT_EQ(bytes_of(out[0]), in);
}

TEST(Fragmentation, FragmentCounts) {
  EXPECT_EQ(fragment_count(0), 1u);      // UDP header alone
  EXPECT_EQ(fragment_count(1472), 1u);   // 8 + 1472 = 1480, exactly one frame
  EXPECT_EQ(fragment_count(1473), 2u);
  EXPECT_EQ(fragment_count(65507), 45u);
}

TEST(Fragmentation, OutOfOrderFragmentsStillReassemble) {
  sim::Simulator sim;
  const Buffer in = pattern(5000);
  int delivered = 0;
  Reassembler reassembler(sim, [&](Datagram d, std::size_t) {
    ++delivered;
    EXPECT_EQ(bytes_of(d), in);
  });
  auto fragments = fragments_of(in, 7);
  ASSERT_GE(fragments.size(), 3u);
  std::swap(fragments.front(), fragments.back());
  for (const auto& f : fragments) reassembler.accept(f);
  EXPECT_EQ(delivered, 1);
}

TEST(Fragmentation, DuplicateFragmentIgnored) {
  sim::Simulator sim;
  const Buffer in = pattern(3000);
  int delivered = 0;
  Reassembler reassembler(sim, [&](Datagram, std::size_t) { ++delivered; });
  auto fragments = fragments_of(in, 9);
  reassembler.accept(fragments[0]);
  reassembler.accept(fragments[0]);  // duplicate must not double-count
  for (std::size_t i = 1; i < fragments.size(); ++i) reassembler.accept(fragments[i]);
  EXPECT_EQ(delivered, 1);
}

TEST(Fragmentation, IncompleteReassemblyTimesOut) {
  sim::Simulator sim;
  const Buffer in = pattern(5000);
  int delivered = 0;
  Reassembler reassembler(sim, [&](Datagram, std::size_t) { ++delivered; });
  auto fragments = fragments_of(in, 11);
  reassembler.accept(fragments[0]);  // lose the rest
  EXPECT_EQ(reassembler.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.now(), kReassemblyTimeout);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(reassembler.timeouts(), 1u);
  EXPECT_EQ(reassembler.pending(), 0u);
}

TEST(Fragmentation, MalformedBytesRejected) {
  Buffer junk{1, 2, 3};
  EXPECT_FALSE(IpFragment::parse(BytesView(junk.data(), junk.size())).has_value());
  Buffer empty;
  EXPECT_FALSE(IpFragment::parse(BytesView(empty.data(), empty.size())).has_value());
}

// 3000 B of payload: a 3008 B segment in fragments of 1480, 1480 and 48.
class ReassemblyValidation : public ::testing::Test {
 protected:
  ReassemblyValidation()
      : in_(pattern(3000)),
        genuine_(fragments_of(in_, 21)),
        reassembler_(sim_, [this](Datagram d, std::size_t) { out_.push_back(bytes_of(d)); }) {}

  sim::Simulator sim_;
  Buffer in_;
  std::vector<net::PayloadRef> genuine_;
  std::vector<Buffer> out_;
  Reassembler reassembler_;
};

TEST_F(ReassemblyValidation, OverlappingFragmentOffGridRejected) {
  // 1480 bytes at offset 740 overlap both full fragments. Counted, they
  // would "complete" the datagram together with fragments 0 and 2 while
  // bytes 2220..2960 were never written by anyone.
  reassembler_.accept(forged(21, 740, 3008, Buffer(1480, 0xEE)));
  reassembler_.accept(genuine_[0]);
  reassembler_.accept(genuine_[2]);
  EXPECT_TRUE(out_.empty());
  reassembler_.accept(genuine_[1]);
  ASSERT_EQ(out_.size(), 1u);
  EXPECT_EQ(out_[0], in_);
}

TEST_F(ReassemblyValidation, LengthMustMatchOffsetAndTotal) {
  reassembler_.accept(forged(21, 1480, 3008, Buffer(100, 0xEE)));   // short
  reassembler_.accept(forged(21, 2960, 3008, Buffer(1480, 0xEE)));  // past the total
  reassembler_.accept(forged(21, 4440, 3008, Buffer(48, 0xEE)));    // offset past it
  EXPECT_EQ(reassembler_.pending(), 0u);
  for (const auto& f : genuine_) reassembler_.accept(f);
  ASSERT_EQ(out_.size(), 1u);
  EXPECT_EQ(out_[0], in_);
}

TEST_F(ReassemblyValidation, TotalMustAgreeWithPendingDatagram) {
  reassembler_.accept(genuine_[0]);
  // Same (src, dst, ident), different total: not part of this datagram.
  reassembler_.accept(forged(21, 1480, 4008, Buffer(1480, 0xEE)));
  reassembler_.accept(genuine_[1]);
  reassembler_.accept(genuine_[2]);
  ASSERT_EQ(out_.size(), 1u);
  EXPECT_EQ(out_[0], in_);
}

TEST_F(ReassemblyValidation, TotalBeyondTheUdpMaximumRejected) {
  reassembler_.accept(forged(22, 0, 100'000, Buffer(1480, 0xEE)));
  reassembler_.accept(forged(23, 0, 4, Buffer(4, 0xEE)));  // shorter than a UDP header
  EXPECT_EQ(reassembler_.pending(), 0u);
  EXPECT_TRUE(out_.empty());
}

// A two-host cluster for socket-level tests.
class HostPairTest : public ::testing::Test {
 protected:
  HostPairTest() : cluster_(make_params()) {}

  static ClusterParams make_params() {
    ClusterParams p;
    p.n_hosts = 2;
    p.topology = net::TopologySpec::single_switch();
    return p;
  }

  Cluster cluster_;
};

TEST_F(HostPairTest, UnicastDatagramDelivery) {
  Socket* tx = cluster_.host(0).open_socket();
  Socket* rx = cluster_.host(1).open_socket();
  rx->bind(7000);
  std::vector<Datagram> got;
  rx->set_handler([&](const Datagram& d) { got.push_back(d); });

  Buffer payload = pattern(2500);
  tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(bytes_of(got[0]), payload);
  EXPECT_EQ(got[0].dst.port, 7000);
  EXPECT_EQ(got[0].src.addr, Cluster::host_addr(0));
  EXPECT_NE(got[0].src.port, 0);  // ephemeral port assigned
  EXPECT_EQ(rx->stats().datagrams_delivered, 1u);
}

TEST_F(HostPairTest, NoSocketMeansDrop) {
  Socket* tx = cluster_.host(0).open_socket();
  Buffer payload = pattern(10);
  tx->send_to({Cluster::host_addr(1), 9999}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(cluster_.host(1).stats().datagrams_no_socket, 1u);
}

TEST_F(HostPairTest, MulticastRequiresJoin) {
  net::Ipv4Addr group(239, 1, 1, 1);
  Socket* tx = cluster_.host(0).open_socket();
  Socket* rx = cluster_.host(1).open_socket();
  rx->bind(7000);
  int got = 0;
  rx->set_handler([&](const Datagram&) { ++got; });

  Buffer payload = pattern(100);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(got, 0);  // not joined: NIC filters the frame
  EXPECT_GE(cluster_.host(1).stats().frames_filtered, 1u);

  rx->join(group);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(got, 1);

  rx->leave(group);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(got, 1);
}

TEST(HostOverflow, RcvbufOverflowDropsDatagrams) {
  // A receiver whose CPU costs run 50x the calibrated ones (~9.4 ms per
  // 8 KB datagram) is slower than the wire delivers (~0.7 ms per
  // datagram) and builds a socket backlog; with a 10 KB buffer it must
  // drop.
  ClusterParams params;
  params.n_hosts = 2;
  params.topology = net::TopologySpec::single_switch();
  params.straggler_index = 1;
  params.straggler_cpu_factor = 50;
  Cluster cluster(params);
  Socket* tx = cluster.host(0).open_socket();
  Socket* rx = cluster.host(1).open_socket();
  rx->bind(7000);
  rx->set_rcvbuf(10'000);
  int got = 0;
  rx->set_handler([&](const Datagram&) { ++got; });

  Buffer payload = pattern(8000);
  for (int i = 0; i < 10; ++i) {
    tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  }
  cluster.simulator().run();
  EXPECT_GT(rx->stats().rcvbuf_drops, 0u);
  EXPECT_LT(got, 10);
  EXPECT_EQ(static_cast<std::uint64_t>(got), rx->stats().datagrams_delivered);
}

TEST(Straggler, NonIntegerCpuFactorScalesEveryReceiveCost) {
  ClusterParams params;
  params.n_hosts = 2;
  params.topology = net::TopologySpec::single_switch();
  params.straggler_index = 1;
  params.straggler_cpu_factor = 1.3;
  Cluster cluster(params);
  Socket* tx = cluster.host(0).open_socket();
  Socket* rx = cluster.host(1).open_socket();
  rx->bind(7000);
  int got = 0;
  rx->set_handler([&](const Datagram&) { ++got; });

  Buffer payload = pattern(8000);  // 8,008 UDP bytes: 6 fragments
  tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  ASSERT_EQ(got, 1);
  // Each cost is scaled once and truncated to whole ns, per-byte rates
  // before they multiply the byte count: 6 interrupts x 10,400 + syscall
  // 52,000 + 8,000 B x 10.4 ns + 6 fragments x 7,800.
  EXPECT_EQ(cluster.host(1).stats().cpu_busy, 6 * 10'400 + 52'000 + 83'200 + 6 * 7'800);
  // The sender is not the straggler: syscall 30,000 + 8,000 B x 8 ns +
  // 6 fragments x 8,000.
  EXPECT_EQ(cluster.host(0).stats().cpu_busy, 30'000 + 64'000 + 6 * 8'000);
}

TEST_F(HostPairTest, SelfSendDeliversLocally) {
  Socket* a = cluster_.host(0).open_socket();
  Socket* b = cluster_.host(0).open_socket();
  b->bind(7000);
  int got = 0;
  b->set_handler([&](const Datagram&) { ++got; });
  Buffer payload = pattern(50);
  a->send_to({Cluster::host_addr(0), 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(cluster_.host(0).stats().frames_out, 0u);  // never touched the NIC
}

TEST_F(HostPairTest, CpuSerializesWork) {
  Host& host = cluster_.host(0);
  std::vector<int> order;
  std::vector<sim::Time> at;
  host.run_on_cpu(sim::microseconds(100), [&] {
    order.push_back(1);
    at.push_back(cluster_.simulator().now());
  });
  host.run_on_cpu(sim::microseconds(50), [&] {
    order.push_back(2);
    at.push_back(cluster_.simulator().now());
  });
  cluster_.simulator().run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(at[0], sim::microseconds(100));
  EXPECT_EQ(at[1], sim::microseconds(150));  // queued behind the first
  EXPECT_EQ(host.stats().cpu_busy, sim::microseconds(150));
}

TEST_F(HostPairTest, SndbufBlocksLargeDatagramPipelining) {
  // Two 50 KB datagrams: the second sendto must wait for the first to
  // largely drain (SO_SNDBUF is 64 KB), so its completion is gated by the
  // wire, not just CPU cost.
  Socket* tx = cluster_.host(0).open_socket();
  Socket* rx = cluster_.host(1).open_socket();
  rx->bind(7000);
  std::vector<sim::Time> deliveries;
  rx->set_handler([&](const Datagram&) {
    deliveries.push_back(cluster_.simulator().now());
  });
  Buffer payload = pattern(50'000);
  tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  ASSERT_EQ(deliveries.size(), 2u);
  // Without blocking, both CPU tasks finish ~1 ms apart while the first
  // datagram needs ~4.1 ms of wire; the gap between deliveries would then
  // be pure wire time. With blocking, the second send starts only after
  // most of the first datagram drained, so the spacing must exceed the
  // datagram's wire time.
  sim::Time wire_time = sim::transmission_time(50'000, 100e6);
  EXPECT_GT(deliveries[1] - deliveries[0], wire_time);
}

TEST_F(HostPairTest, MaxSizeDatagramExceedsSndbufYetDelivers) {
  // 65507 B of payload occupies more wire than the whole 64 KB SO_SNDBUF:
  // each sendto must wait for an empty backlog, but both datagrams arrive.
  Socket* tx = cluster_.host(0).open_socket();
  Socket* rx = cluster_.host(1).open_socket();
  rx->bind(7000);
  rx->set_rcvbuf(256 * 1024);
  const Buffer payload = pattern(kMaxUdpPayload);
  int got = 0;
  rx->set_handler([&](const Datagram& d) {
    EXPECT_EQ(bytes_of(d), payload);
    ++got;
  });
  tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(got, 2);
}

TEST_F(HostPairTest, EphemeralPortsAreDistinct) {
  Socket* rx = cluster_.host(1).open_socket();
  rx->bind(7000);
  std::set<std::uint16_t> ports;
  Buffer payload = pattern(8);
  for (int i = 0; i < 20; ++i) {
    Socket* tx = cluster_.host(0).open_socket();
    tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
    std::uint16_t port = tx->local_endpoint().port;
    EXPECT_GE(port, 49152);
    EXPECT_TRUE(ports.insert(port).second) << "duplicate ephemeral port " << port;
  }
  cluster_.simulator().run();
  EXPECT_EQ(rx->stats().datagrams_delivered, 20u);
}

TEST_F(HostPairTest, SharedMulticastPortDeliversToEveryJoinedSocket) {
  net::Ipv4Addr group(239, 5, 5, 5);
  Socket* a = cluster_.host(1).open_socket();
  Socket* b = cluster_.host(1).open_socket();
  for (Socket* s : {a, b}) {
    s->bind(7000);
    s->join(group);
  }
  std::vector<Datagram> got_a, got_b;
  a->set_handler([&](const Datagram& d) { got_a.push_back(d); });
  b->set_handler([&](const Datagram& d) { got_b.push_back(d); });

  // A fragmented datagram: both sockets see its exact bytes, in one
  // shared reassembly block.
  Socket* tx = cluster_.host(0).open_socket();
  const Buffer payload = pattern(5000);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  ASSERT_EQ(got_a.size(), 1u);
  ASSERT_EQ(got_b.size(), 1u);
  EXPECT_EQ(bytes_of(got_a[0]), payload);
  EXPECT_EQ(bytes_of(got_b[0]), payload);
  EXPECT_EQ(got_a[0].payload.data(), got_b[0].payload.data());

  // Unicast to the shared port goes to exactly one socket.
  tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(got_a.size() + got_b.size(), 3u);
}

TEST(Reassembly, InterleavedDatagramsDoNotCorrupt) {
  sim::Simulator sim;
  const Buffer first = pattern(4000);
  const Buffer second = pattern(6000);
  std::vector<Buffer> out;
  Reassembler reassembler(sim, [&](Datagram d, std::size_t) { out.push_back(bytes_of(d)); });
  auto f1 = fragments_of(first, 1);
  auto f2 = fragments_of(second, 2);
  // Interleave the two fragment streams.
  std::size_t i = 0, j = 0;
  while (i < f1.size() || j < f2.size()) {
    if (i < f1.size()) reassembler.accept(f1[i++]);
    if (j < f2.size()) reassembler.accept(f2[j++]);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], first);
  EXPECT_EQ(out[1], second);
}

// Three reassemblers sharing one cache, as the hosts of one cluster do.
class SharedReassembly : public ::testing::Test {
 protected:
  static constexpr std::size_t kHosts = 3;

  SharedReassembly() : in_(pattern(4000)) {  // 4008 B segment: 3 fragments
    for (std::size_t h = 0; h < kHosts; ++h) {
      hosts_.push_back(std::make_unique<Reassembler>(
          sim_, [this, h](Datagram d, std::size_t) { out_[h].push_back(std::move(d)); }, &cache_));
    }
  }

  sim::Simulator sim_;
  ReassemblyCache cache_;
  Buffer in_;
  std::array<std::vector<Datagram>, kHosts> out_;
  std::vector<std::unique_ptr<Reassembler>> hosts_;
};

TEST_F(SharedReassembly, OutOfOrderAndDuplicateFragmentsStillShareOneBlock) {
  const auto f = fragments_of(in_, 30);
  ASSERT_EQ(f.size(), 3u);
  for (const auto& frag : f) hosts_[0]->accept(frag);
  for (std::size_t i = f.size(); i-- > 0;) hosts_[1]->accept(f[i]);
  for (std::size_t i : {1, 1, 0, 1, 0, 2}) hosts_[2]->accept(f[i]);
  for (std::size_t h = 0; h < kHosts; ++h) {
    ASSERT_EQ(out_[h].size(), 1u) << "host " << h;
    EXPECT_EQ(bytes_of(out_[h][0]), in_) << "host " << h;
    EXPECT_EQ(out_[h][0].block.data(), out_[0][0].block.data()) << "host " << h;
    EXPECT_EQ(hosts_[h]->pending(), 0u);
  }
}

TEST_F(SharedReassembly, TamperedFragmentGetsItsOwnCorrectBlock) {
  // One host's copy of fragment 1 had a byte flipped in flight; the flip
  // copied on write, so only that host holds the altered block. Whether
  // it completes first or between the others, it must deliver what it
  // received and the others what was sent.
  for (std::size_t tampered_host : {std::size_t{0}, std::size_t{1}}) {
    const std::uint16_t ident = static_cast<std::uint16_t>(40 + tampered_host);
    const auto f = fragments_of(in_, ident);
    net::PayloadRef bad = f[1];
    bad.mutable_data()[kIpHeaderBytes + 10] ^= 0x80;
    ASSERT_NE(bad.data(), f[1].data());
    Buffer altered = in_;
    altered[kIpPayloadPerFrame - kUdpHeaderBytes + 10] ^= 0x80;

    for (auto& out : out_) out.clear();
    for (std::size_t h = 0; h < kHosts; ++h) {
      for (std::size_t i = 0; i < f.size(); ++i) {
        hosts_[h]->accept(h == tampered_host && i == 1 ? bad : f[i]);
      }
    }
    const std::size_t clean = tampered_host == 0 ? 1 : 0;
    for (std::size_t h = 0; h < kHosts; ++h) {
      ASSERT_EQ(out_[h].size(), 1u) << "host " << h;
      if (h == tampered_host) {
        EXPECT_EQ(bytes_of(out_[h][0]), altered) << "tampered host " << h;
        EXPECT_NE(out_[h][0].block.data(), out_[clean][0].block.data());
      } else {
        EXPECT_EQ(bytes_of(out_[h][0]), in_) << "host " << h;
        EXPECT_EQ(out_[h][0].block.data(), out_[clean][0].block.data()) << "host " << h;
      }
    }
  }
}

TEST_F(SharedReassembly, CacheEntriesPinTheirFragmentBlocks) {
  // Every completed datagram is remembered by the blocks it was built
  // from, and holds them: a block an entry names cannot be recycled into
  // another datagram's fragment while the entry lives.
  const auto f = fragments_of(in_, 50);
  for (const auto& frag : f) hosts_[0]->accept(frag);
  for (const auto& frag : f) EXPECT_EQ(frag.ref_count(), 2u);
  // Older entries give way once kEntries newer datagrams completed.
  for (std::uint16_t i = 0; i < ReassemblyCache::kEntries; ++i) {
    for (const auto& frag : fragments_of(in_, static_cast<std::uint16_t>(100 + i))) {
      hosts_[0]->accept(frag);
    }
  }
  for (const auto& frag : f) EXPECT_EQ(frag.ref_count(), 1u);
  // The evicted datagram is rebuilt, correctly, as a fresh block.
  for (const auto& frag : f) hosts_[1]->accept(frag);
  ASSERT_EQ(out_[1].size(), 1u);
  EXPECT_EQ(bytes_of(out_[1][0]), in_);
  EXPECT_NE(out_[1][0].block.data(), out_[0][0].block.data());
}

TEST(Cluster, TwoSwitchTopologyMatchesFigure7) {
  ClusterParams params;
  params.n_hosts = 31;
  params.topology = net::TopologySpec::figure7();
  Cluster cluster(params);
  ASSERT_EQ(cluster.switches().size(), 2u);
  // 16 hosts + uplink + spare on A; 15 hosts + uplink + spare on B.
  EXPECT_EQ(cluster.switches()[0]->n_ports(), 18u);
  EXPECT_EQ(cluster.switches()[1]->n_ports(), 17u);
  EXPECT_EQ(cluster.host_addr(0).str(), "10.0.0.1");
  EXPECT_EQ(cluster.host_addr(30).str(), "10.0.0.31");
}

TEST(Cluster, CrossSwitchDelivery) {
  ClusterParams params;
  params.n_hosts = 31;
  params.topology = net::TopologySpec::figure7();
  Cluster cluster(params);
  // Host 0 (switch A) to host 30 (switch B), across the uplink.
  Socket* tx = cluster.host(0).open_socket();
  Socket* rx = cluster.host(30).open_socket();
  rx->bind(7000);
  int got = 0;
  rx->set_handler([&](const Datagram&) { ++got; });
  Buffer payload = pattern(1000);
  tx->send_to({Cluster::host_addr(30), 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  EXPECT_EQ(got, 1);
}

TEST(Cluster, MulticastReachesBothSwitches) {
  ClusterParams params;
  params.n_hosts = 20;
  params.topology = net::TopologySpec::figure7();
  Cluster cluster(params);
  net::Ipv4Addr group(239, 0, 0, 1);
  int got = 0;
  for (std::size_t i = 1; i < 20; ++i) {
    Socket* rx = cluster.host(i).open_socket();
    rx->bind(7000);
    rx->join(group);
    rx->set_handler([&](const Datagram&) { ++got; });
  }
  Socket* tx = cluster.host(0).open_socket();
  Buffer payload = pattern(100);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  EXPECT_EQ(got, 19);
}

TEST(Cluster, SnoopingFiltersNonMembersAcrossSwitches) {
  ClusterParams params;
  params.n_hosts = 20;
  params.topology = net::TopologySpec::figure7();  // members end up on both switches
  params.multicast_snooping = true;
  Cluster cluster(params);
  net::Ipv4Addr group(239, 0, 0, 1);
  int got = 0;
  // Only hosts 1..5 and 17..19 join; the rest stay silent bystanders.
  std::vector<std::size_t> members = {1, 2, 3, 4, 5, 17, 18, 19};
  for (std::size_t i : members) {
    Socket* rx = cluster.host(i).open_socket();
    rx->bind(7000);
    rx->join(group);
    rx->set_handler([&](const Datagram&) { ++got; });
  }
  Socket* tx = cluster.host(0).open_socket();
  Buffer payload = pattern(3000);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  EXPECT_EQ(got, static_cast<int>(members.size()));
  // Bystanders never saw a frame — the switch filtered, not their NIC.
  for (std::size_t i : {std::size_t{6}, std::size_t{10}, std::size_t{16}}) {
    EXPECT_EQ(cluster.host(i).stats().frames_in, 0u) << "host " << i;
    EXPECT_EQ(cluster.host(i).stats().frames_filtered, 0u) << "host " << i;
  }
}

TEST(Cluster, SnoopingTracksLeaves) {
  ClusterParams params;
  params.n_hosts = 3;
  params.topology = net::TopologySpec::single_switch();
  params.multicast_snooping = true;
  Cluster cluster(params);
  net::Ipv4Addr group(239, 0, 0, 2);
  Socket* rx = cluster.host(1).open_socket();
  rx->bind(7000);
  rx->join(group);
  int got = 0;
  rx->set_handler([&](const Datagram&) { ++got; });

  Socket* tx = cluster.host(0).open_socket();
  Buffer payload = pattern(100);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  EXPECT_EQ(got, 1);

  rx->leave(group);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  EXPECT_EQ(got, 1);
  // After the leave the switch floods again (unknown group) but the NIC
  // filters, or the switch drops it as memberless — either way, no
  // delivery and no crash.
}

// Sends one small unicast datagram from host `from` to host `to` of
// `cluster` and runs it to completion; returns how many times it was
// delivered.
int first_unicast(Cluster& cluster, std::size_t from, std::size_t to) {
  Socket* tx = cluster.host(from).open_socket();
  Socket* rx = cluster.host(to).open_socket();
  rx->bind(7000);
  int got = 0;
  rx->set_handler([&](const Datagram&) { ++got; });
  Buffer payload = pattern(100);
  tx->send_to({Cluster::host_addr(to), 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  return got;
}

ClusterParams params_on(net::TopologySpec topology, std::size_t n_hosts) {
  ClusterParams params;
  params.n_hosts = n_hosts;
  params.topology = topology;
  return params;
}

// The hosts of one cluster reassemble a fragmented multicast datagram
// into one block between them: the first to complete it copies, the rest
// deliver that block.
TEST(Cluster, MulticastReceiversShareOneReassembledBlock) {
  const std::size_t n = 12;
  Cluster cluster(params_on(net::TopologySpec::spine_leaf(4, 2), n));
  net::Ipv4Addr group(239, 0, 0, 1);
  std::vector<Datagram> got;
  for (std::size_t i = 1; i < n; ++i) {
    Socket* rx = cluster.host(i).open_socket();
    rx->bind(7000);
    rx->join(group);
    rx->set_handler([&](const Datagram& d) { got.push_back(d); });
  }
  const Buffer payload = pattern(8000);  // 6 fragments
  cluster.host(0).open_socket()->send_to({group, 7000},
                                         BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  ASSERT_EQ(got.size(), n - 1);
  for (const Datagram& d : got) {
    EXPECT_EQ(bytes_of(d), payload);
    EXPECT_EQ(d.block.data(), got[0].block.data());
  }
}

// Datacenter fabrics switch statically: every unicast between two hosts
// is forwarded once by each switch on its trunk-tree path and by no other
// switch; nothing floods, nothing is filtered, no bystander sees it.
TEST(Cluster, DatacenterFabricsForwardEveryUnicastAlongTheTreePathOnly) {
  const std::pair<net::TopologySpec, std::size_t> fabrics[] = {
      {net::TopologySpec::spine_leaf(4, 2), 12},
      {net::TopologySpec::fat_tree(4, 2, 2, 2), 20},
  };
  for (const auto& [topology, n] : fabrics) {
    Cluster cluster(params_on(topology, n));
    const net::TopologyWiring& w = cluster.wiring();
    const std::size_t n_switches = w.switches.size();
    // The tree path between two switches, from a breadth-first search
    // over the trunks (independent of the routes the switches use).
    std::vector<std::vector<std::size_t>> adj(n_switches);
    for (const net::TrunkPlan& t : w.trunks) {
      adj[t.sw_a].push_back(t.sw_b);
      adj[t.sw_b].push_back(t.sw_a);
    }
    const auto path = [&](std::size_t from, std::size_t to) {
      std::vector<std::size_t> toward(n_switches, n_switches);  // next hop toward `to`
      std::deque<std::size_t> queue{to};
      toward[to] = to;
      while (!queue.empty()) {
        const std::size_t cur = queue.front();
        queue.pop_front();
        for (std::size_t next : adj[cur]) {
          if (toward[next] != n_switches) continue;
          toward[next] = cur;
          queue.push_back(next);
        }
      }
      std::vector<std::size_t> hops{from};
      while (hops.back() != to) hops.push_back(toward[hops.back()]);
      return hops;
    };

    std::vector<int> got(n, 0);
    std::vector<Socket*> sockets;
    for (std::size_t i = 0; i < n; ++i) {
      sockets.push_back(cluster.host(i).open_socket());
      sockets.back()->bind(7000);
      sockets.back()->set_handler([&got, i](const Datagram&) { ++got[i]; });
    }
    std::vector<std::uint64_t> expected(n_switches, 0);
    const Buffer payload = pattern(100);
    for (std::size_t from = 0; from < n; ++from) {
      for (std::size_t to = 0; to < n; ++to) {
        if (to == from) continue;
        for (std::size_t s : path(w.hosts[from].sw, w.hosts[to].sw)) ++expected[s];
        sockets[from]->send_to({Cluster::host_addr(to), 7000},
                               BytesView(payload.data(), payload.size()));
        cluster.simulator().run();
      }
    }
    for (std::size_t s = 0; s < n_switches; ++s) {
      const net::EthernetSwitch::Stats& stats = cluster.switches()[s]->stats();
      EXPECT_EQ(stats.frames_forwarded, expected[s]) << "switch " << s << " of " << n;
      EXPECT_EQ(stats.frames_flooded, 0u) << "switch " << s << " of " << n;
      EXPECT_EQ(stats.frames_filtered, 0u) << "switch " << s << " of " << n;
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], static_cast<int>(n - 1)) << "host " << i;
      EXPECT_EQ(cluster.host(i).stats().frames_in, n - 1) << "host " << i;
      EXPECT_EQ(cluster.host(i).stats().frames_filtered, 0u) << "host " << i;
    }
  }
}

// A datacenter switch knows hosts, not stations: a unicast to a MAC that
// is no host of the cluster floods, and a frame whose source claims a
// host from the wrong port teaches the switch nothing.
TEST(Cluster, DatacenterFabricsFloodNonHostUnicastAndDoNotLearn) {
  const std::size_t n = 12;
  Cluster cluster(params_on(net::TopologySpec::spine_leaf(4, 2), n));
  net::EthernetSwitch& leaf = *cluster.switches()[0];  // hosts 0..3 on ports 0..3
  const Buffer payload = pattern(64);
  const net::MacAddr strangers[] = {net::MacAddr::host(static_cast<std::uint32_t>(n)),
                                    net::MacAddr(0x0A00'0000'0001ULL)};
  for (const net::MacAddr& dst : strangers) {
    leaf.handle_frame(0, net::make_frame(dst, net::MacAddr::host(0), payload));
  }
  cluster.simulator().run();
  EXPECT_EQ(leaf.stats().frames_flooded, 2u);
  EXPECT_EQ(leaf.stats().frames_forwarded, 0u);
  // Host 5 (on another leaf) spoofed from port 1, then a frame to host 5:
  // a learning switch would send it back out of port 1.
  leaf.handle_frame(1, net::make_frame(net::MacAddr::host(2), net::MacAddr::host(5), payload));
  leaf.handle_frame(0, net::make_frame(net::MacAddr::host(5), net::MacAddr::host(0), payload));
  cluster.simulator().run();
  EXPECT_EQ(leaf.stats().frames_forwarded, 2u);
  EXPECT_EQ(leaf.stats().frames_flooded, 2u);
  EXPECT_EQ(cluster.host(1).stats().frames_filtered, 2u);  // the two floods only
  EXPECT_EQ(cluster.host(5).stats().frames_in, 1u);
}

// The paper's Figure-7 testbed keeps pure learning: the first unicast to
// a silent host floods once on each switch it crosses and reaches every
// bystander's NIC.
TEST(Cluster, Figure7FloodsTheFirstUnicastOnEverySwitch) {
  Cluster cluster(params_on(net::TopologySpec::figure7(), 31));
  EXPECT_EQ(first_unicast(cluster, 0, 30), 1);
  ASSERT_EQ(cluster.switches().size(), 2u);
  for (const auto& sw : cluster.switches()) EXPECT_EQ(sw->stats().frames_flooded, 1u);
  // Bystanders on both switches: their NICs drop the frame by MAC.
  EXPECT_EQ(cluster.host(5).stats().frames_filtered, 1u);
  EXPECT_EQ(cluster.host(20).stats().frames_filtered, 1u);
}

TEST(Cluster, SharedBusWiringDelivers) {
  ClusterParams params;
  params.n_hosts = 5;
  params.topology = net::TopologySpec::shared_bus();
  Cluster cluster(params);
  net::Ipv4Addr group(239, 0, 0, 1);
  int got = 0;
  for (std::size_t i = 1; i < 5; ++i) {
    Socket* rx = cluster.host(i).open_socket();
    rx->bind(7000);
    rx->join(group);
    rx->set_handler([&](const Datagram&) { ++got; });
  }
  Socket* tx = cluster.host(0).open_socket();
  Buffer payload = pattern(4000);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  EXPECT_EQ(got, 4);
  EXPECT_GT(cluster.bus()->stats().frames_delivered, 0u);
}

TEST(Cluster, FrameErrorsCauseLoss) {
  ClusterParams params;
  params.n_hosts = 2;
  params.topology = net::TopologySpec::single_switch();
  params.link.frame_error_rate = 0.5;
  params.seed = 9;
  Cluster cluster(params);
  Socket* tx = cluster.host(0).open_socket();
  Socket* rx = cluster.host(1).open_socket();
  rx->bind(7000);
  int got = 0;
  rx->set_handler([&](const Datagram&) { ++got; });
  Buffer payload = pattern(100);
  for (int i = 0; i < 50; ++i) {
    tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  }
  cluster.simulator().run();
  // Each datagram crosses two lossy hops at 50%: ~25% survive.
  EXPECT_LT(got, 40);
  EXPECT_GT(got, 0);
}

}  // namespace
}  // namespace rmc::inet
