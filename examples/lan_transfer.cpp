// Reliable multicast over REAL sockets: the same protocol code the
// simulator benchmarks, running on genuine UDP/IP multicast through the
// PosixRuntime backend. This demo keeps everything in one process on the
// loopback interface via the PosixSession facade so it runs anywhere;
// point the multicast interface (and the membership addresses) at a NIC
// and spread the endpoints across machines — using the low-level
// PosixRuntime + MulticastSender/Receiver constructors, one role per
// process — for an actual LAN deployment.
//
// Pass --runtime=sim to run the identical transfer (same protocol, same
// payload, same group size, same transfer code — only the Session is
// built differently) on the discrete-event simulator instead — handy for
// comparing the two backends' packet counts side by side, which is
// exactly what the harness::run_parity checker automates.
//
//   ./build/examples/lan_transfer                 # real loopback sockets
//   ./build/examples/lan_transfer --runtime=sim   # simulated cluster
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/strings.h"
#include "rmcast/session.h"

namespace {

constexpr std::size_t kReceivers = 4;
constexpr std::size_t kPayloadBytes = 512 * 1024;

rmc::rmcast::ProtocolConfig protocol() {
  rmc::rmcast::ProtocolConfig config;
  config.kind = rmc::rmcast::ProtocolKind::kRing;
  config.packet_size = 8192;
  config.window_size = 8;  // > receivers, as the ring requires
  return config;
}

rmc::Buffer make_payload() {
  rmc::Buffer payload(kPayloadBytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return payload;
}

std::unique_ptr<rmc::rmcast::Session> make_session(bool posix) {
  using namespace rmc;
  if (!posix) {
    rmcast::SessionParams params;
    params.n_receivers = kReceivers;
    params.protocol = protocol();
    return std::make_unique<rmcast::Session>(params);
  }
  constexpr std::uint16_t kBasePort = 47000;
  rmcast::GroupMembership membership;
  membership.group = {net::Ipv4Addr(239, 77, 1, 1), kBasePort};
  membership.sender_control = {net::Ipv4Addr(127, 0, 0, 1), kBasePort + 1};
  for (std::size_t i = 0; i < kReceivers; ++i) {
    membership.receiver_control.push_back(
        {net::Ipv4Addr(127, 0, 0, 1), static_cast<std::uint16_t>(kBasePort + 2 + i)});
  }
  return std::make_unique<rmcast::PosixSession>(membership, protocol());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rmc;

  bool posix = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runtime=sim") == 0) {
      posix = false;
    } else if (std::strcmp(argv[i], "--runtime=posix") == 0) {
      posix = true;
    } else {
      std::fprintf(stderr, "usage: %s [--runtime=sim|posix]\n", argv[0]);
      return 2;
    }
  }

  std::unique_ptr<rmcast::Session> session = make_session(posix);
  if (!session->ok()) {
    std::printf("sockets unavailable (sandbox?); skipping the live demo\n");
    return 0;
  }

  std::size_t delivered = 0;
  session->set_message_handler(
      [&delivered](std::size_t node, const Buffer& message, std::uint32_t) {
        std::printf("  receiver %zu: %s received intact\n", node,
                    format_bytes(message.size()).c_str());
        ++delivered;
      });

  const Buffer payload = make_payload();
  std::printf("sending %s to %zu receivers over %s (%s)...\n",
              format_bytes(payload.size()).c_str(), kReceivers,
              posix ? "real loopback multicast" : "the simulated cluster",
              session->membership().group.str().c_str());

  const sim::Time t0 = session->now();
  auto outcome = session->send_and_wait(BytesView(payload.data(), payload.size()));
  if (!outcome.has_value() || !outcome->all_delivered() || delivered != kReceivers) {
    std::fprintf(stderr, "transfer incomplete (%zu/%zu receivers)\n", delivered,
                 kReceivers);
    return 1;
  }

  const double seconds = sim::to_seconds(session->now() - t0);
  const rmcast::SenderStats& stats = session->sender().stats();
  std::printf("done in %s (%s), %llu data packets, %llu acks, %llu retransmissions\n",
              format_seconds(seconds).c_str(),
              format_rate(kPayloadBytes * 8.0 / seconds).c_str(),
              (unsigned long long)stats.data_packets_sent,
              (unsigned long long)stats.acks_received,
              (unsigned long long)stats.retransmissions);
  return 0;
}
