// Tests for the baseline transports: the TCP-like unicast stream (Figure 8)
// and the raw UDP blast (Figure 9).
#include <gtest/gtest.h>

#include "baseline/raw_udp.h"
#include "baseline/sim_tcp.h"
#include "harness/experiment.h"
#include "harness/testbed.h"

namespace rmc::baseline {
namespace {

class TcpTest : public ::testing::Test {
 protected:
  TcpTest() : bed_(make_bed()) {}

  static harness::Testbed make_bed() {
    inet::ClusterParams params;
    params.topology = net::TopologySpec::single_switch();
    return harness::Testbed(3, params);
  }

  void run_until(bool& done, sim::Time limit = sim::seconds(60.0)) {
    while (!done && bed_.simulator().now() < limit) {
      if (!bed_.simulator().step()) break;
    }
  }

  harness::Testbed bed_;
};

TEST_F(TcpTest, TransfersExactByteCount) {
  TcpBulkSender sender(bed_.sender_runtime(), bed_.sender_socket());
  TcpBulkReceiver receiver(bed_.receiver_runtime(0), bed_.receiver_control_socket(0));
  bool done = false;
  sender.transfer(bed_.membership().receiver_control[0], 100'000, [&] { done = true; });
  run_until(done);
  ASSERT_TRUE(done);
  EXPECT_EQ(receiver.bytes_received(), 100'000u);
  EXPECT_EQ(receiver.transfers_completed(), 1u);
  EXPECT_EQ(sender.stats().retransmissions, 0u);
  // 100000 / 1448 segments.
  EXPECT_EQ(sender.stats().segments_sent, 70u);
}

TEST_F(TcpTest, ZeroByteTransferCompletes) {
  TcpBulkSender sender(bed_.sender_runtime(), bed_.sender_socket());
  TcpBulkReceiver receiver(bed_.receiver_runtime(0), bed_.receiver_control_socket(0));
  bool done = false;
  sender.transfer(bed_.membership().receiver_control[0], 0, [&] { done = true; });
  run_until(done);
  ASSERT_TRUE(done);
  EXPECT_EQ(receiver.bytes_received(), 0u);
  EXPECT_EQ(receiver.transfers_completed(), 1u);
}

TEST_F(TcpTest, SequentialTransfersToSamePeer) {
  TcpBulkSender sender(bed_.sender_runtime(), bed_.sender_socket());
  TcpBulkReceiver receiver(bed_.receiver_runtime(0), bed_.receiver_control_socket(0));
  bool done = false;
  sender.transfer(bed_.membership().receiver_control[0], 20'000, [&] {
    sender.transfer(bed_.membership().receiver_control[0], 30'000, [&] { done = true; });
  });
  run_until(done);
  ASSERT_TRUE(done);
  EXPECT_EQ(receiver.transfers_completed(), 2u);
}

TEST_F(TcpTest, FanoutVisitsEveryReceiverInOrder) {
  TcpBulkSender sender(bed_.sender_runtime(), bed_.sender_socket());
  std::vector<std::unique_ptr<TcpBulkReceiver>> receivers;
  for (std::size_t i = 0; i < 3; ++i) {
    receivers.push_back(std::make_unique<TcpBulkReceiver>(
        bed_.receiver_runtime(i), bed_.receiver_control_socket(i)));
  }
  TcpFanout fanout(sender, bed_.membership().receiver_control);
  bool done = false;
  fanout.transfer_all(50'000, [&] { done = true; });
  run_until(done);
  ASSERT_TRUE(done);
  for (auto& r : receivers) {
    EXPECT_EQ(r->bytes_received(), 50'000u);
    EXPECT_EQ(r->transfers_completed(), 1u);
  }
}

TEST(TcpLoss, RecoversFromFrameErrors) {
  inet::ClusterParams params;
  params.topology = net::TopologySpec::single_switch();
  params.link.frame_error_rate = 0.02;
  params.seed = 3;
  harness::Testbed bed(1, params);
  TcpBulkSender sender(bed.sender_runtime(), bed.sender_socket());
  TcpBulkReceiver receiver(bed.receiver_runtime(0), bed.receiver_control_socket(0));
  bool done = false;
  sender.transfer(bed.membership().receiver_control[0], 300'000, [&] { done = true; });
  while (!done && bed.simulator().now() < sim::seconds(60.0)) {
    if (!bed.simulator().step()) break;
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(receiver.bytes_received(), 300'000u);
  EXPECT_GT(sender.stats().retransmissions, 0u);
}

TEST(TcpScaling, FanoutTimeGrowsLinearly) {
  auto run = [](std::size_t n) {
    auto r = harness::run_tcp_fanout(n, 200'000, 1);
    EXPECT_TRUE(r.completed) << r.error;
    return r.seconds;
  };
  double t2 = run(2);
  double t8 = run(8);
  // Four times the receivers: close to four times the time.
  EXPECT_NEAR(t8 / t2, 4.0, 0.5);
}

TEST(RawUdp, BlastCompletesOnAllReplies) {
  harness::Testbed bed(4);
  RawUdpBlastSender sender(bed.sender_runtime(), bed.sender_socket(),
                           bed.membership().group, 4);
  std::vector<std::unique_ptr<RawUdpReceiver>> receivers;
  for (std::size_t i = 0; i < 4; ++i) {
    receivers.push_back(std::make_unique<RawUdpReceiver>(
        bed.receiver_runtime(i), bed.receiver_data_socket(i),
        bed.membership().sender_control, static_cast<std::uint16_t>(i)));
  }
  bool done = false;
  sender.blast(100'000, 8000, [&] { done = true; });
  while (!done && bed.simulator().now() < sim::seconds(30.0)) {
    if (!bed.simulator().step()) break;
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(sender.stats().packets_sent, 13u);  // ceil(100000 / 8000)
  EXPECT_EQ(sender.stats().replies_received, 4u);
  for (auto& r : receivers) EXPECT_EQ(r->packets_received(), 13u);
}

TEST(RawUdp, LostFinalPacketIsRetried) {
  inet::ClusterParams params;
  params.link.frame_error_rate = 0.15;
  params.seed = 2;
  harness::Testbed bed(3, params);
  RawUdpBlastSender sender(bed.sender_runtime(), bed.sender_socket(),
                           bed.membership().group, 3);
  std::vector<std::unique_ptr<RawUdpReceiver>> receivers;
  for (std::size_t i = 0; i < 3; ++i) {
    receivers.push_back(std::make_unique<RawUdpReceiver>(
        bed.receiver_runtime(i), bed.receiver_data_socket(i),
        bed.membership().sender_control, static_cast<std::uint16_t>(i)));
  }
  bool done = false;
  sender.blast(20'000, 4000, [&] { done = true; });
  while (!done && bed.simulator().now() < sim::seconds(30.0)) {
    if (!bed.simulator().step()) break;
  }
  // The reply-soliciting packet is retried until every receiver answers,
  // so the measurement itself always terminates.
  ASSERT_TRUE(done);
}

TEST(Baselines, HarnessRunners) {
  auto tcp = harness::run_tcp_fanout(3, 50'000, 1);
  ASSERT_TRUE(tcp.completed) << tcp.error;
  EXPECT_GT(tcp.seconds, 0.0);

  auto udp = harness::run_raw_udp(3, 50'000, 8000, 1);
  ASSERT_TRUE(udp.completed) << udp.error;
  EXPECT_GT(udp.seconds, 0.0);
  // Unreliable blast must beat the reliable fan-out.
  EXPECT_LT(udp.seconds, tcp.seconds);
}

}  // namespace
}  // namespace rmc::baseline
