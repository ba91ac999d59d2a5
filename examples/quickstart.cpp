// Quickstart: reliable multicast, on the simulator or on real sockets.
//
// One rmcast::Session wires a sender and 8 receivers, sends one message
// with the NAK-based protocol, and reports what every receiver got and
// what it cost. The default run builds the paper's testbed (receivers
// behind Ethernet switches) on the simulator; pass --runtime=posix and the
// SAME protocol code and the same transfer code run over genuine UDP
// multicast sockets on loopback through PosixSession — one flag, two
// backends, and only the session construction differs. For single
// endpoints (one role per process on a real LAN, or a unit test on a fake
// runtime) the MulticastSender/Receiver constructors remain available.
//
//   ./build/examples/quickstart                   # simulated cluster
//   ./build/examples/quickstart --runtime=posix   # real loopback sockets
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/strings.h"
#include "rmcast/session.h"

namespace {

using namespace rmc;

// Pick a protocol. Try kAck, kRing, or kFlatTree (set tree_height).
rmcast::ProtocolConfig protocol() {
  rmcast::ProtocolConfig config;
  config.kind = rmcast::ProtocolKind::kNakPolling;
  config.packet_size = 8192;
  config.window_size = 16;
  config.poll_interval = 12;
  return config;
}

constexpr std::size_t kReceivers = 8;
const std::string kText = "hello, cluster! reliable multicast over (simulated) UDP";

std::unique_ptr<rmcast::Session> make_session(bool posix) {
  if (!posix) {
    rmcast::SessionParams params;
    params.n_receivers = kReceivers;
    params.protocol = protocol();
    // To watch graceful degradation instead, enable eviction and crash a
    // receiver mid-transfer:
    //   params.protocol.max_retransmit_rounds = 3;
    //   params.faults.crash(/*receiver=*/5, sim::milliseconds(5));
    return std::make_unique<rmcast::Session>(params);
  }
  // Port plan: this example owns 47100..47199 on loopback (lan_transfer
  // uses 47000, the tests/benches sit up at 48300+).
  constexpr std::uint16_t kBasePort = 47100;
  rmcast::GroupMembership membership;
  membership.group = {net::Ipv4Addr(239, 77, 1, 2), kBasePort};
  membership.sender_control = {net::Ipv4Addr(127, 0, 0, 1), kBasePort + 1};
  for (std::size_t i = 0; i < kReceivers; ++i) {
    membership.receiver_control.push_back(
        {net::Ipv4Addr(127, 0, 0, 1), static_cast<std::uint16_t>(kBasePort + 2 + i)});
  }
  return std::make_unique<rmcast::PosixSession>(membership, protocol());
}

}  // namespace

int main(int argc, char** argv) {
  bool posix = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runtime=posix") == 0) {
      posix = true;
    } else if (std::strcmp(argv[i], "--runtime=sim") == 0) {
      posix = false;
    } else {
      std::fprintf(stderr, "usage: %s [--runtime=sim|posix]\n", argv[0]);
      return 2;
    }
  }

  std::unique_ptr<rmcast::Session> session = make_session(posix);
  if (!session->ok()) {
    std::printf("sockets unavailable (sandbox?); skipping the posix run\n");
    return 0;
  }
  session->set_message_handler(
      [](std::size_t node, const Buffer& message, std::uint32_t session_id) {
        std::printf("receiver %zu got session %u: \"%.*s\" (%zu bytes)\n", node, session_id,
                    static_cast<int>(std::min<std::size_t>(message.size(), 40)),
                    reinterpret_cast<const char*>(message.data()), message.size());
      });

  const sim::Time t0 = session->now();
  auto outcome = session->send_and_wait(
      BytesView(reinterpret_cast<const std::uint8_t*>(kText.data()), kText.size()));
  if (!outcome.has_value()) {
    std::fprintf(stderr, "transfer timed out\n");
    return 1;
  }

  const rmcast::SenderStats& stats = session->sender().stats();
  std::printf("\nsender completed in %s over %s (%zu/%zu receivers delivered)\n",
              format_seconds(sim::to_seconds(session->now() - t0)).c_str(),
              posix ? "real loopback multicast" : "the simulated cluster",
              outcome->receivers.size() - outcome->n_evicted(), outcome->receivers.size());
  std::printf("data packets: %llu, acks processed: %llu, retransmissions: %llu\n",
              (unsigned long long)stats.data_packets_sent,
              (unsigned long long)stats.acks_received,
              (unsigned long long)stats.retransmissions);
  return outcome->all_delivered() ? 0 : 1;
}
