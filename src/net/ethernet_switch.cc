#include "net/ethernet_switch.h"

#include <algorithm>

#include "common/panic.h"

namespace rmc::net {

EthernetSwitch::EthernetSwitch(sim::Simulator& simulator, std::size_t n_ports,
                               SwitchParams params, Rng* rng)
    : sim_(simulator), params_(params) {
  RMC_ENSURE(n_ports >= 2, "a switch needs at least two ports");
  ports_.reserve(n_ports);
  for (std::size_t i = 0; i < n_ports; ++i) {
    ports_.push_back(std::make_unique<TxPort>(sim_, params_.port, rng));
  }
  port_up_.assign(n_ports, true);
}

void EthernetSwitch::set_port_link_up(std::size_t port, bool up) {
  RMC_ENSURE(port < ports_.size(), "switch port out of range");
  port_up_[port] = up;
  ports_[port]->set_link_up(up);
}

void EthernetSwitch::set_port_faults(std::size_t port, const sim::LinkFaults& faults) {
  RMC_ENSURE(port < ports_.size(), "switch port out of range");
  ports_[port]->set_faults(faults);
}

void EthernetSwitch::override_port_params(std::size_t port, LinkParams params,
                                          Rng* rng) {
  RMC_ENSURE(port < ports_.size(), "switch port out of range");
  ports_[port] = std::make_unique<TxPort>(sim_, params, rng);
}

FrameSink EthernetSwitch::attach(std::size_t port, FrameSink deliver) {
  RMC_ENSURE(port < ports_.size(), "switch port out of range");
  ports_[port]->connect(std::move(deliver));
  return [this, port](const Frame& frame) { handle_frame(port, frame); };
}

void EthernetSwitch::set_static_routes(std::size_t self,
                                       std::span<const HostAttachment> hosts,
                                       std::vector<std::size_t> first_hop) {
  RMC_ENSURE(!hosts.empty(), "static forwarding needs the host table");
  self_ = self;
  static_hosts_ = hosts;
  first_hop_ = std::move(first_hop);
}

std::size_t EthernetSwitch::unicast_port(MacAddr dst) const {
  if (static_hosts_.empty()) {
    const auto it = fdb_.find(dst);
    return it == fdb_.end() ? kUnknown : it->second;
  }
  if (!dst.is_host() || dst.host_number() >= static_hosts_.size()) return kUnknown;
  const HostAttachment& at = static_hosts_[dst.host_number()];
  return at.sw == self_ ? at.port : first_hop_[at.sw];
}

void EthernetSwitch::set_tracer(trace::Tracer* tracer, const std::string& prefix) {
  tracer_ = tracer;
  if (tracer != nullptr) {
    ingress_track_ = tracer->track(prefix + ".ingress", trace::TrackTier::kNet);
  }
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    ports_[i]->set_tracer(
        tracer, tracer == nullptr
                    ? 0
                    : tracer->track(prefix + ".port" + std::to_string(i),
                                    trace::TrackTier::kNet));
  }
}

void EthernetSwitch::handle_frame(std::size_t ingress_port, const Frame& frame) {
  RMC_ENSURE(ingress_port < ports_.size(), "ingress port out of range");
  if (!port_up_[ingress_port]) {
    ++stats_.frames_link_down;
    if (tracer_) {
      tracer_->drop(sim_.now(), ingress_track_, frame.trace_tag,
                    trace::DropCause::kLinkDown);
    }
    return;
  }
  // Learn the station behind the ingress port. Group addresses are never
  // valid sources, so no check is needed before learning. A static switch
  // learns nothing: on a trunk tree it could only rewrite the same port.
  if (static_hosts_.empty()) fdb_[frame.src] = ingress_port;

  if (!frame.is_group_addressed()) {
    if (const std::size_t egress = unicast_port(frame.dst); egress != kUnknown) {
      if (egress != ingress_port) {
        ++stats_.frames_forwarded;
        enqueue(egress, frame);
      } else {
        // Destination is behind the ingress port: filter (drop) the frame.
        ++stats_.frames_filtered;
      }
      return;
    }
  } else if (params_.multicast_snooping && !frame.dst.is_broadcast()) {
    if (auto it = group_ports_.find(frame.dst); it != group_ports_.end()) {
      ++stats_.frames_snoop_forwarded;
      for (const auto& [port, refs] : it->second) {
        if (port != ingress_port) enqueue(port, frame);
      }
      return;
    }
    // Unregistered group: fall through to flooding, as snooping switches
    // do for groups they have not learned.
  }
  // Multicast, broadcast, or unknown unicast: flood.
  ++stats_.frames_flooded;
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    if (p != ingress_port) enqueue(p, frame);
  }
}

void EthernetSwitch::register_group_port(MacAddr group, std::size_t port) {
  RMC_ENSURE(port < ports_.size(), "switch port out of range");
  ++group_ports_[group][port];
}

void EthernetSwitch::unregister_group_port(MacAddr group, std::size_t port) {
  auto it = group_ports_.find(group);
  RMC_ENSURE(it != group_ports_.end(), "unregister for unknown group");
  auto pit = it->second.find(port);
  RMC_ENSURE(pit != it->second.end(), "unregister for unknown port");
  if (--pit->second == 0) it->second.erase(pit);
  if (it->second.empty()) group_ports_.erase(it);
}

std::size_t EthernetSwitch::max_port_queue_now() const {
  std::size_t depth = 0;
  for (const auto& port : ports_) {
    depth = std::max(depth, port->queue_length());
  }
  return depth;
}

void EthernetSwitch::enqueue(std::size_t egress_port, const Frame& frame) {
  // The forwarding latency models table lookup and crossbar transfer; the
  // egress TxPort then charges queueing and serialization.
  sim_.schedule_after(kForwardingLatency,
                      [this, egress_port, frame] { ports_[egress_port]->send(frame); });
}

}  // namespace rmc::net
