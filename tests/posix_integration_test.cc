// End-to-end integration on the real-socket backend: the same protocol
// code that runs on the simulator transfers messages over genuine UDP
// multicast on the loopback interface. Skips cleanly where the
// environment forbids sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/trace.h"
#include "rmcast/session.h"

namespace rmc {
namespace {

Buffer pattern(std::size_t n) {
  Buffer b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return b;
}

rmcast::GroupMembership loopback_membership(std::size_t n_receivers,
                                            std::uint16_t base_port,
                                            std::uint8_t group_octet) {
  rmcast::GroupMembership membership;
  membership.group = {net::Ipv4Addr(239, 77, 0, group_octet), base_port};
  membership.sender_control = {net::Ipv4Addr(127, 0, 0, 1),
                               static_cast<std::uint16_t>(base_port + 1)};
  for (std::size_t i = 0; i < n_receivers; ++i) {
    membership.receiver_control.push_back(
        {net::Ipv4Addr(127, 0, 0, 1), static_cast<std::uint16_t>(base_port + 2 + i)});
  }
  return membership;
}

// One process, one event loop, N+1 protocol endpoints on loopback.
class LoopbackGroup {
 public:
  LoopbackGroup(std::size_t n_receivers, std::uint16_t base_port,
                std::uint8_t group_octet, rmcast::ProtocolConfig config)
      : session_(loopback_membership(n_receivers, base_port, group_octet), config),
        deliveries_(n_receivers) {
    session_.set_message_handler(
        [this](std::size_t node, const Buffer& message, std::uint32_t) {
          deliveries_[node].push_back(message);
        });
  }

  // False if sockets are unavailable.
  bool ok() const { return session_.ok(); }

  bool transfer(const Buffer& message) {
    return session_.send_and_wait(BytesView(message.data(), message.size())).has_value();
  }

  const std::vector<Buffer>& deliveries(std::size_t i) const { return deliveries_[i]; }
  std::size_t n_receivers() const { return session_.n_receivers(); }

 private:
  rmcast::PosixSession session_;
  std::vector<std::vector<Buffer>> deliveries_;
};

struct PosixCase {
  rmcast::ProtocolKind kind;
  std::uint16_t base_port;
  std::uint8_t group_octet;
};

class PosixProtocolTest : public ::testing::TestWithParam<PosixCase> {};

INSTANTIATE_TEST_SUITE_P(
    Protocols, PosixProtocolTest,
    ::testing::Values(PosixCase{rmcast::ProtocolKind::kAck, 46000, 1},
                      PosixCase{rmcast::ProtocolKind::kNakPolling, 46100, 2},
                      PosixCase{rmcast::ProtocolKind::kRing, 46200, 3},
                      PosixCase{rmcast::ProtocolKind::kFlatTree, 46300, 4}),
    [](const auto& info) {
      return std::string(rmcast::protocol_name(info.param.kind)).substr(0, 3);
    });

TEST_P(PosixProtocolTest, TransfersOverRealLoopbackMulticast) {
  const PosixCase& c = GetParam();
  rmcast::ProtocolConfig config;
  config.kind = c.kind;
  config.packet_size = 8192;
  config.window_size = 8;
  config.poll_interval = 6;
  config.tree_height = 2;

  LoopbackGroup group(3, c.base_port, c.group_octet, config);
  if (!group.ok()) GTEST_SKIP() << "sockets unavailable in this environment";

  Buffer message = pattern(200'000);
  ASSERT_TRUE(group.transfer(message)) << "transfer did not complete in wall time";
  for (std::size_t i = 0; i < group.n_receivers(); ++i) {
    ASSERT_EQ(group.deliveries(i).size(), 1u) << "receiver " << i;
    EXPECT_EQ(group.deliveries(i)[0], message) << "receiver " << i;
  }
}

TEST(PosixProtocol, SequentialMessages) {
  rmcast::ProtocolConfig config;
  config.kind = rmcast::ProtocolKind::kNakPolling;
  config.packet_size = 4096;
  config.window_size = 8;
  config.poll_interval = 6;

  LoopbackGroup group(2, 46400, 5, config);
  if (!group.ok()) GTEST_SKIP() << "sockets unavailable in this environment";

  std::vector<Buffer> messages = {pattern(10'000), pattern(1), pattern(60'000)};
  for (const Buffer& m : messages) {
    ASSERT_TRUE(group.transfer(m));
  }
  for (std::size_t i = 0; i < group.n_receivers(); ++i) {
    ASSERT_EQ(group.deliveries(i).size(), messages.size());
    for (std::size_t k = 0; k < messages.size(); ++k) {
      EXPECT_EQ(group.deliveries(i)[k], messages[k]);
    }
  }
}

// Both backends report through the same protocol event path, so a traced
// socket run yields the simulator's vocabulary. Only timing-independent
// counts are compared: real sockets may drop or reorder datagrams that
// the loss-free simulation delivers in order.
TEST(PosixProtocol, TracesTheSimulatorsEventVocabulary) {
  rmcast::ProtocolConfig config;
  config.kind = rmcast::ProtocolKind::kAck;
  config.packet_size = 8192;
  config.window_size = 8;
  constexpr std::size_t kReceivers = 3;
  const Buffer message = pattern(100'000);
  const std::size_t packets =
      (message.size() + config.packet_size - 1) / config.packet_size;

  rmcast::PosixSession posix(loopback_membership(kReceivers, 46500, 6), config);
  if (!posix.ok()) GTEST_SKIP() << "sockets unavailable in this environment";
  trace::Tracer posix_trace;
  posix.set_tracer(&posix_trace);
  ASSERT_TRUE(posix.send_and_wait(BytesView(message.data(), message.size())).has_value());

  rmcast::SessionParams params;
  params.n_receivers = kReceivers;
  params.protocol = config;
  rmcast::Session sim(params);
  trace::Tracer sim_trace;
  sim.set_tracer(&sim_trace);
  ASSERT_TRUE(sim.send_and_wait(BytesView(message.data(), message.size())).has_value());

  for (const trace::Tracer* t : {&posix_trace, &sim_trace}) {
    const char* backend = t == &posix_trace ? "posix" : "sim";
    const auto first_tx = std::count_if(
        t->events().begin(), t->events().end(), [](const trace::Event& e) {
          return e.kind == trace::EventKind::kSenderTx && e.b == 0;
        });
    EXPECT_EQ(static_cast<std::size_t>(first_tx), packets) << backend;
    EXPECT_EQ(t->count(trace::EventKind::kDeliver), kReceivers) << backend;
    EXPECT_EQ(t->count(trace::EventKind::kComplete), 1u) << backend;
    EXPECT_GE(t->count(trace::EventKind::kAllocReq), 1u) << backend;
    std::vector<std::string> names;
    for (const trace::Track& track : t->tracks()) names.push_back(track.name);
    for (const char* want : {"sender", "receiver.0", "receiver.1", "receiver.2"}) {
      EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
          << backend << " lacks track " << want;
    }
  }
}

}  // namespace
}  // namespace rmc
