#include "harness/testbed.h"

#include "rmcast/session.h"

namespace rmc::harness {

namespace {

inet::ClusterParams with_n_hosts(inet::ClusterParams params, std::size_t n_hosts) {
  params.n_hosts = n_hosts;
  return params;
}

}  // namespace

Testbed::Testbed(std::size_t n_receivers, inet::ClusterParams params)
    : n_receivers_(n_receivers), cluster_(with_n_hosts(params, n_receivers + 1)) {
  rmcast::SessionPlacement placement;  // the default group and control ports
  for (std::size_t i = 0; i < n_receivers_; ++i) {
    placement.receiver_hosts.push_back(i + 1);
  }
  membership_ = rmcast::placement_membership(placement);

  for (std::size_t h = 0; h < n_receivers_ + 1; ++h) {
    runtimes_.push_back(std::make_unique<rt::SimRuntime>(cluster_.host(h)));
  }

  inet::Socket* sender = cluster_.host(0).open_socket();
  sender->bind(membership_.sender_control.port);
  sender_socket_ = runtimes_[0]->wrap(sender);

  for (std::size_t i = 0; i < n_receivers_; ++i) {
    inet::Host& host = cluster_.host(i + 1);
    inet::Socket* data = host.open_socket();
    data->bind(membership_.group.port);
    data->join(membership_.group.addr);
    data_sockets_.push_back(runtimes_[i + 1]->wrap(data));

    inet::Socket* control = host.open_socket();
    control->bind(membership_.receiver_control[i].port);
    control_sockets_.push_back(runtimes_[i + 1]->wrap(control));
  }
}

}  // namespace rmc::harness
