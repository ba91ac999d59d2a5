// Testbed: a fully wired simulated cluster ready for protocol endpoints.
//
// Builds the paper's Figure-7 cluster (host 0 = sender P0, hosts 1..N =
// receivers), opens the conventional sockets on every node and exposes
// them through the backend-neutral runtime interface. The roster is that
// of a default rmcast::SessionPlacement, the one Session(SessionParams)
// uses:
//
//   * group data address 239.0.0.1:5000 — every receiver's data socket is
//     bound to the port and joined to the group;
//   * sender control socket on host 0, port 5001;
//   * one control socket per receiver, port 5002.
#pragma once

#include <memory>
#include <vector>

#include "inet/cluster.h"
#include "rmcast/group.h"
#include "runtime/sim_runtime.h"

namespace rmc::harness {

class Testbed {
 public:
  // `params.n_hosts` is overridden to n_receivers + 1. The default
  // ClusterParams keep the paper's Figure-7 wiring.
  Testbed(std::size_t n_receivers, inet::ClusterParams params = {});

  std::size_t n_receivers() const { return n_receivers_; }
  inet::Cluster& cluster() { return cluster_; }
  sim::Simulator& simulator() { return cluster_.simulator(); }

  const rmcast::GroupMembership& membership() const { return membership_; }

  rt::SimRuntime& sender_runtime() { return *runtimes_[0]; }
  rt::SimRuntime& receiver_runtime(std::size_t i) { return *runtimes_[i + 1]; }

  rt::UdpSocket& sender_socket() { return *sender_socket_; }
  rt::UdpSocket& receiver_data_socket(std::size_t i) { return *data_sockets_[i]; }
  rt::UdpSocket& receiver_control_socket(std::size_t i) { return *control_sockets_[i]; }

 private:
  std::size_t n_receivers_;
  inet::Cluster cluster_;
  rmcast::GroupMembership membership_;
  std::vector<std::unique_ptr<rt::SimRuntime>> runtimes_;
  std::unique_ptr<rt::UdpSocket> sender_socket_;
  std::vector<std::unique_ptr<rt::UdpSocket>> data_sockets_;
  std::vector<std::unique_ptr<rt::UdpSocket>> control_sockets_;
};

}  // namespace rmc::harness
