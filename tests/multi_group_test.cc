// Two reliable multicast groups sharing one cluster and one set of
// receiver hosts, transferring concurrently: sessions, sockets and
// acknowledgment streams must not bleed between groups, and both
// transfers must complete with intact payloads while sharing the wire.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "inet/cluster.h"
#include "protocol_test_util.h"
#include "rmcast/session.h"

namespace rmc {
namespace {

class TwoGroupFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kReceivers = 4;

  TwoGroupFixture() : cluster_(make_params()) {
    // Hosts: 0 and 1 are the two senders; 2..5 are receivers of BOTH groups.
    rmcast::ProtocolConfig config;
    config.kind = rmcast::ProtocolKind::kNakPolling;
    config.packet_size = 4000;
    config.window_size = 12;
    config.poll_interval = 9;

    for (std::size_t g = 0; g < 2; ++g) {
      rmcast::SessionPlacement placement;
      placement.sender_host = g;
      placement.receiver_hosts = {2, 3, 4, 5};
      placement.group = {net::Ipv4Addr(239, 0, 0, static_cast<std::uint8_t>(g + 1)),
                         static_cast<std::uint16_t>(5000 + g)};
      placement.sender_control_port = static_cast<std::uint16_t>(6000 + g);
      placement.receiver_control_port = static_cast<std::uint16_t>(7000 + g);
      groups_.push_back(std::make_unique<rmcast::Session>(cluster_, placement, config));
      delivered_[g].resize(kReceivers);
      groups_[g]->set_message_handler(
          [this, g](std::size_t node, const Buffer& message, std::uint32_t) {
            delivered_[g][node] = message;
          });
    }
  }

  static inet::ClusterParams make_params() {
    inet::ClusterParams p;
    p.n_hosts = 6;
    p.wiring = inet::Wiring::kSingleSwitch;
    return p;
  }

  rmcast::MulticastSender& sender(std::size_t g) { return groups_[g]->sender(); }

  inet::Cluster cluster_;
  std::vector<std::unique_ptr<rmcast::Session>> groups_;
  std::vector<Buffer> delivered_[2];
};

TEST_F(TwoGroupFixture, ConcurrentTransfersStayIsolated) {
  Buffer message_a = test::pattern(200'000);
  Buffer message_b = test::pattern(120'000);
  // Different content so cross-delivery would be caught.
  for (auto& b : message_b) b = static_cast<std::uint8_t>(b ^ 0xFF);

  int done = 0;
  sender(0).send(BytesView(message_a.data(), message_a.size()),
                           [&](const rmcast::SendOutcome&) { ++done; });
  sender(1).send(BytesView(message_b.data(), message_b.size()),
                           [&](const rmcast::SendOutcome&) { ++done; });
  while (done < 2 && cluster_.simulator().now() < sim::seconds(30.0)) {
    if (!cluster_.simulator().step()) break;
  }
  ASSERT_EQ(done, 2);
  for (std::size_t i = 0; i < kReceivers; ++i) {
    EXPECT_EQ(delivered_[0][i], message_a) << "group A receiver " << i;
    EXPECT_EQ(delivered_[1][i], message_b) << "group B receiver " << i;
  }
  // No cross-group control traffic was misattributed.
  EXPECT_EQ(sender(0).stats().stale_packets, 0u);
  EXPECT_EQ(sender(1).stats().stale_packets, 0u);
}

TEST_F(TwoGroupFixture, ConcurrentTransfersShareTheWireGracefully) {
  // Measure one group alone, then both together: the shared receivers'
  // CPUs and links slow things down, but completion must be well under
  // the doubled time a serialised run would take (multicast transfers
  // interleave, they do not queue behind each other).
  Buffer message = test::pattern(200'000);

  bool solo_done = false;
  sender(0).send(BytesView(message.data(), message.size()),
                           [&](const rmcast::SendOutcome&) { solo_done = true; });
  while (!solo_done && cluster_.simulator().step()) {
  }
  ASSERT_TRUE(solo_done);
  const double solo = sim::to_seconds(cluster_.simulator().now());

  sim::Time start = cluster_.simulator().now();
  int done = 0;
  sender(0).send(BytesView(message.data(), message.size()),
                           [&](const rmcast::SendOutcome&) { ++done; });
  sender(1).send(BytesView(message.data(), message.size()),
                           [&](const rmcast::SendOutcome&) { ++done; });
  while (done < 2 && cluster_.simulator().now() < sim::seconds(30.0)) {
    if (!cluster_.simulator().step()) break;
  }
  ASSERT_EQ(done, 2);
  const double both = sim::to_seconds(cluster_.simulator().now() - start);
  EXPECT_GT(both, solo);            // contention is real
  EXPECT_LT(both, 2.2 * solo);      // but transfers overlap, not serialise
}

}  // namespace
}  // namespace rmc
