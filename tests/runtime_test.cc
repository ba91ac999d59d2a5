// Tests for the runtime backends: SimRuntime adapters and the real-socket
// PosixRuntime (loopback UDP, multicast, timers).
#include <gtest/gtest.h>

#include "inet/cluster.h"
#include "runtime/posix_runtime.h"
#include "runtime/sim_runtime.h"

namespace rmc::rt {
namespace {

TEST(SimRuntime, ClockFollowsSimulator) {
  inet::ClusterParams params;
  params.n_hosts = 2;
  params.topology = net::TopologySpec::single_switch();
  inet::Cluster cluster(params);
  SimRuntime runtime(cluster.host(0));
  EXPECT_EQ(runtime.now(), 0);
  cluster.simulator().run_until(sim::milliseconds(5));
  EXPECT_EQ(runtime.now(), sim::milliseconds(5));
}

TEST(SimRuntime, TimerFiresAndCancels) {
  inet::ClusterParams params;
  params.n_hosts = 2;
  params.topology = net::TopologySpec::single_switch();
  inet::Cluster cluster(params);
  SimRuntime runtime(cluster.host(0));
  int fired = 0;
  runtime.schedule_after(sim::milliseconds(1), [&] { ++fired; });
  TimerId cancelled = runtime.schedule_after(sim::milliseconds(2), [&] { ++fired; });
  runtime.cancel(cancelled);
  cluster.simulator().run();
  EXPECT_EQ(fired, 1);
}

TEST(SimRuntime, RunCostChargesHostCpu) {
  inet::ClusterParams params;
  params.n_hosts = 2;
  params.topology = net::TopologySpec::single_switch();
  inet::Cluster cluster(params);
  SimRuntime runtime(cluster.host(0));
  sim::Time completed_at = -1;
  runtime.run_cost(sim::microseconds(250), [&] { completed_at = runtime.now(); });
  cluster.simulator().run();
  EXPECT_EQ(completed_at, sim::microseconds(250));
  EXPECT_EQ(cluster.host(0).stats().cpu_busy, sim::microseconds(250));
}

TEST(SimRuntime, WrappedSocketRoundTrip) {
  inet::ClusterParams params;
  params.n_hosts = 2;
  params.topology = net::TopologySpec::single_switch();
  inet::Cluster cluster(params);
  SimRuntime rt0(cluster.host(0));
  SimRuntime rt1(cluster.host(1));

  inet::Socket* raw_rx = cluster.host(1).open_socket();
  raw_rx->bind(7000);
  auto rx = rt1.wrap(raw_rx);
  auto tx = rt0.wrap(cluster.host(0).open_socket());

  Buffer payload{1, 2, 3, 4};
  net::Endpoint from;
  Buffer got;
  rx->set_handler([&](const net::Endpoint& src, BytesView data) {
    from = src;
    got.assign(data.begin(), data.end());
  });
  tx->send_to({inet::Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  EXPECT_EQ(got, payload);
  EXPECT_EQ(from.addr, inet::Cluster::host_addr(0));
  EXPECT_EQ(rx->local_endpoint().port, 7000);
}

// The Posix tests exercise real sockets on loopback. If the environment
// forbids sockets entirely, constructing one fails and the tests skip.
class PosixRuntimeTest : public ::testing::Test {
 protected:
  PosixRuntime runtime_;

  std::unique_ptr<UdpSocket> try_open(PosixSocketOptions options) {
    return runtime_.open_socket(options);
  }
};

TEST_F(PosixRuntimeTest, ClockIsMonotonic) {
  sim::Time a = runtime_.now();
  sim::Time b = runtime_.now();
  EXPECT_GE(b, a);
}

TEST_F(PosixRuntimeTest, TimerFires) {
  bool fired = false;
  runtime_.schedule_after(sim::milliseconds(5), [&] {
    fired = true;
    runtime_.stop();
  });
  runtime_.run_for(sim::seconds(2.0));
  EXPECT_TRUE(fired);
}

TEST_F(PosixRuntimeTest, CancelledTimerDoesNotFire) {
  bool fired = false;
  TimerId id = runtime_.schedule_after(sim::milliseconds(5), [&] { fired = true; });
  runtime_.cancel(id);
  runtime_.run_for(sim::milliseconds(30));
  EXPECT_FALSE(fired);
}

TEST_F(PosixRuntimeTest, UnicastLoopbackRoundTrip) {
  PosixSocketOptions options;
  options.bind_addr = net::Ipv4Addr(127, 0, 0, 1);
  auto rx = try_open(options);
  if (!rx) GTEST_SKIP() << "sockets unavailable";
  auto tx = try_open(options);
  if (!tx) GTEST_SKIP() << "sockets unavailable";

  net::Endpoint rx_ep = rx->local_endpoint();
  ASSERT_NE(rx_ep.port, 0);

  Buffer got;
  rx->set_handler([&](const net::Endpoint&, BytesView data) {
    got.assign(data.begin(), data.end());
    runtime_.stop();
  });
  Buffer payload{9, 8, 7};
  tx->send_to(rx_ep, BytesView(payload.data(), payload.size()));
  runtime_.run_for(sim::seconds(2.0));
  EXPECT_EQ(got, payload);
}

TEST_F(PosixRuntimeTest, MulticastLoopbackRoundTrip) {
  const net::Ipv4Addr group(239, 200, 1, 1);
  PosixSocketOptions rx_options;
  rx_options.port = 43210;
  rx_options.reuse_addr = true;
  rx_options.join_groups = {group};
  auto rx1 = try_open(rx_options);
  if (!rx1) GTEST_SKIP() << "sockets unavailable";
  auto rx2 = try_open(rx_options);
  if (!rx2) GTEST_SKIP() << "sockets unavailable";
  auto tx = try_open({});
  if (!tx) GTEST_SKIP() << "sockets unavailable";

  int delivered = 0;
  auto handler = [&](const net::Endpoint&, BytesView data) {
    ASSERT_EQ(data.size(), 2u);
    if (++delivered == 2) runtime_.stop();
  };
  rx1->set_handler(handler);
  rx2->set_handler(handler);

  Buffer payload{0xCA, 0xFE};
  tx->send_to({group, 43210}, BytesView(payload.data(), payload.size()));
  runtime_.run_for(sim::seconds(2.0));
  EXPECT_EQ(delivered, 2);
}

}  // namespace
}  // namespace rmc::rt
