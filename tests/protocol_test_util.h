// Shared fixture plumbing for protocol-level tests: a simulated Session
// (one MulticastSender, N MulticastReceivers), delivery recording, and a
// bounded-time run helper.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rmcast/session.h"

namespace rmc::test {

inline Buffer pattern(std::size_t n) {
  Buffer b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return b;
}

class ProtocolHarness {
 public:
  ProtocolHarness(std::size_t n_receivers, rmcast::ProtocolConfig config,
                  inet::ClusterParams cluster_params = {})
      : session_(params(n_receivers, config, cluster_params)),
        deliveries_(n_receivers) {
    session_.set_message_handler(
        [this](std::size_t node, const Buffer& message, std::uint32_t session) {
          deliveries_[node].push_back({session, message});
        });
  }

  // Sends and runs until sender completion (or the time limit). Returns
  // true on completion.
  bool send_and_run(const Buffer& message,
                    sim::Time limit = sim::seconds(30.0)) {
    bool done = false;
    sender().send(BytesView(message.data(), message.size()),
                  [&](const rmcast::SendOutcome&) { done = true; });
    run_until_done(done, limit);
    return done;
  }

  void run_until_done(const bool& done, sim::Time limit) {
    session_.run_until(done, limit);
  }

  struct Delivery {
    std::uint32_t session;
    Buffer message;
  };

  rmcast::Session& session() { return session_; }
  rmcast::MulticastSender& sender() { return session_.sender(); }
  rmcast::MulticastReceiver& receiver(std::size_t i) { return session_.receiver(i); }
  std::size_t n_receivers() const { return session_.n_receivers(); }
  const std::vector<Delivery>& deliveries(std::size_t i) const { return deliveries_[i]; }

  // Asserts every receiver delivered exactly the given messages, in order.
  void expect_all_delivered(const std::vector<Buffer>& messages) {
    for (std::size_t i = 0; i < n_receivers(); ++i) {
      ASSERT_EQ(deliveries_[i].size(), messages.size()) << "receiver " << i;
      for (std::size_t m = 0; m < messages.size(); ++m) {
        EXPECT_EQ(deliveries_[i][m].message, messages[m])
            << "receiver " << i << " message " << m;
      }
    }
  }

 private:
  static rmcast::SessionParams params(std::size_t n_receivers,
                                      rmcast::ProtocolConfig config,
                                      inet::ClusterParams cluster_params) {
    rmcast::SessionParams params;
    params.n_receivers = n_receivers;
    params.protocol = config;
    params.cluster = cluster_params;
    return params;
  }

  rmcast::Session session_;
  std::vector<std::vector<Delivery>> deliveries_;
};

inline rmcast::ProtocolConfig config_for(rmcast::ProtocolKind kind) {
  rmcast::ProtocolConfig c;
  c.kind = kind;
  c.packet_size = 4000;
  c.window_size = 16;
  c.poll_interval = 12;
  c.tree_height = 3;
  return c;
}

}  // namespace rmc::test
