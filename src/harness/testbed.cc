#include "harness/testbed.h"

namespace rmc::harness {

namespace {

inet::ClusterParams with_n_hosts(inet::ClusterParams params, std::size_t n_hosts) {
  params.n_hosts = n_hosts;
  return params;
}

}  // namespace

Testbed::Testbed(std::size_t n_receivers, inet::ClusterParams params)
    : n_receivers_(n_receivers), cluster_(with_n_hosts(params, n_receivers + 1)) {
  const net::Endpoint group = default_group_endpoint();
  membership_.group = group;
  membership_.sender_control = {inet::Cluster::host_addr(0), 5001};
  for (std::size_t i = 0; i < n_receivers_; ++i) {
    membership_.receiver_control.push_back({inet::Cluster::host_addr(i + 1), 5002});
  }

  for (std::size_t h = 0; h < n_receivers_ + 1; ++h) {
    runtimes_.push_back(std::make_unique<rt::SimRuntime>(cluster_.host(h)));
  }

  raw_sender_socket_ = cluster_.host(0).open_socket();
  raw_sender_socket_->bind(membership_.sender_control.port);
  sender_socket_ = runtimes_[0]->wrap(raw_sender_socket_);

  for (std::size_t i = 0; i < n_receivers_; ++i) {
    inet::Host& host = cluster_.host(i + 1);
    inet::Socket* data = host.open_socket();
    data->bind(group.port);
    data->join(group.addr);
    raw_data_sockets_.push_back(data);
    data_sockets_.push_back(runtimes_[i + 1]->wrap(data));

    inet::Socket* control = host.open_socket();
    control->bind(membership_.receiver_control[i].port);
    raw_control_sockets_.push_back(control);
    control_sockets_.push_back(runtimes_[i + 1]->wrap(control));
  }
}

std::uint64_t Testbed::total_rcvbuf_drops() const {
  std::uint64_t drops = raw_sender_socket_->stats().rcvbuf_drops;
  for (const auto* s : raw_data_sockets_) drops += s->stats().rcvbuf_drops;
  for (const auto* s : raw_control_sockets_) drops += s->stats().rcvbuf_drops;
  return drops;
}

}  // namespace rmc::harness
