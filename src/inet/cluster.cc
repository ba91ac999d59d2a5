#include "inet/cluster.h"

#include <algorithm>

#include "common/panic.h"
#include "common/strings.h"

namespace rmc::inet {

Cluster::Cluster(ClusterParams params) : params_(std::move(params)), rng_(params_.seed) {
  RMC_ENSURE(params_.n_hosts >= 1, "cluster needs at least one host");

  // Shared by reference across every host's resolver closure: at 10^4
  // hosts a by-value capture would copy the whole table per host.
  auto arp = std::make_shared<std::unordered_map<std::uint32_t, net::MacAddr>>();
  for (std::size_t i = 0; i < params_.n_hosts; ++i) {
    auto addr = host_addr(i);
    auto mac = net::MacAddr::host(static_cast<std::uint32_t>(i));
    arp->emplace(addr.bits(), mac);
    const double cpu_factor = static_cast<int>(i) == params_.straggler_index
                                  ? params_.straggler_cpu_factor
                                  : 1.0;
    hosts_.push_back(std::make_unique<Host>(sim_, str_format("P%zu", i), addr, mac,
                                            params_.host, cpu_factor, reassembly_));
  }
  // Shared static ARP table: cluster membership never changes mid-run.
  auto resolver = [arp](net::Ipv4Addr addr) {
    auto it = arp->find(addr.bits());
    RMC_ENSURE(it != arp->end(), "MAC resolution for unknown host");
    return it->second;
  };
  for (auto& host : hosts_) host->set_mac_resolver(resolver);

  if (params_.topology.kind == net::TopologyKind::kSharedBus) {
    build_bus();
  } else {
    build_from_spec(params_.topology);
  }
}

net::EthernetSwitch& Cluster::switch_of_host(std::size_t i, std::size_t* port) {
  RMC_ENSURE(!switches_.empty(), "no switches in this wiring");
  const net::HostAttachment& at = wiring_.hosts.at(i);
  *port = at.port;
  return *switches_[at.sw];
}

void Cluster::set_host_down(std::size_t i, bool down) {
  hosts_.at(i)->set_down(down);
}

void Cluster::set_host_link_up(std::size_t i, bool up) {
  if (switches_.empty()) {
    // Shared bus: no per-host cable to cut; the nearest model is the
    // station going silent and deaf.
    set_host_down(i, !up);
    return;
  }
  nics_.at(i)->set_link_up(up);
  std::size_t port = 0;
  net::EthernetSwitch& sw = switch_of_host(i, &port);
  sw.set_port_link_up(port, up);
}

void Cluster::set_host_link_faults(std::size_t i, const sim::LinkFaults& faults) {
  std::size_t port = 0;
  net::EthernetSwitch& sw = switch_of_host(i, &port);
  sw.set_port_faults(port, faults);
}

bool Cluster::host_link_up(std::size_t i) const {
  if (switches_.empty()) return !hosts_.at(i)->is_down();
  return nics_.at(i)->link_up();
}

void Cluster::apply_fault_plan(const sim::FaultPlan& plan) {
  for (const sim::FaultEvent& event : plan.events) {
    const std::size_t host = event.target + 1;
    RMC_ENSURE(host < hosts_.size(), "fault plan targets a host outside the cluster");
    sim_.schedule_at(event.at, [this, kind = event.kind, host] {
      switch (kind) {
        case sim::FaultKind::kCrash:
        case sim::FaultKind::kPause:
          set_host_down(host, true);
          break;
        case sim::FaultKind::kResume:
          set_host_down(host, false);
          break;
        case sim::FaultKind::kLinkDown:
          set_host_link_up(host, false);
          break;
        case sim::FaultKind::kLinkUp:
          set_host_link_up(host, true);
          break;
      }
    });
  }
}

void Cluster::attach_tracer(trace::Tracer* tracer) {
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    hosts_[i]->set_tracer(
        tracer, tracer == nullptr
                    ? 0
                    : tracer->track("net." + hosts_[i]->name(),
                                    trace::TrackTier::kNet));
    if (i < nics_.size() && nics_[i] != nullptr) {
      nics_[i]->set_tracer(
          tracer, tracer == nullptr
                      ? 0
                      : tracer->track("net." + hosts_[i]->name() + ".nic",
                                      trace::TrackTier::kNet));
    }
  }
  for (std::size_t s = 0; s < switches_.size(); ++s) {
    switches_[s]->set_tracer(tracer, "net.switch" + std::to_string(s));
  }
  if (bus_) bus_->set_tracer(tracer, "net.bus");
}

void Cluster::build_from_spec(const net::TopologySpec& spec) {
  const std::size_t n = hosts_.size();
  wiring_ = net::build_wiring(spec, n);
  net::SwitchParams sw_params{params_.link, params_.multicast_snooping};

  for (const net::SwitchPlan& plan : wiring_.switches) {
    switches_.push_back(
        std::make_unique<net::EthernetSwitch>(sim_, plan.n_ports, sw_params, &rng_));
  }
  // Aggregated trunks (spine/agg/core planes folded into one logical
  // cable) get their rate and queue scaled before anything attaches. A
  // factor-1.0 trunk keeps the port built by the switch constructor, so
  // the Figure-7 shapes are untouched object-for-object.
  for (const net::TrunkPlan& trunk : wiring_.trunks) {
    if (trunk.capacity_factor == 1.0) continue;
    net::LinkParams trunk_link = params_.link;
    trunk_link.rate_bps *= trunk.capacity_factor;
    trunk_link.queue_frames = static_cast<std::size_t>(
        static_cast<double>(trunk_link.queue_frames) * trunk.capacity_factor);
    switches_[trunk.sw_a]->override_port_params(trunk.port_a, trunk_link, &rng_);
    switches_[trunk.sw_b]->override_port_params(trunk.port_b, trunk_link, &rng_);
  }

  // Datacenter fabrics are switched statically, as by a fabric controller
  // that knows every host's seat: no first unicast floods and no switch
  // keeps per-host state. The paper's testbeds (Figure 7, one switch)
  // start empty and learn, as its switches did.
  const bool static_fabric = spec.kind == net::TopologyKind::kSpineLeaf ||
                             spec.kind == net::TopologyKind::kFatTree;

  // Snooping and static forwarding need, per host switch m and every other
  // switch s, the egress port of s toward m — the trunk-tree first hop —
  // so traffic is steered down the tree toward m only. (The two-switch
  // case degenerates to the far switch's uplink port.)
  std::vector<std::vector<std::size_t>> routes(switches_.size());
  if ((params_.multicast_snooping || static_fabric) && switches_.size() > 1) {
    routes = net::switch_routes(wiring_);
  }

  nics_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::HostAttachment at = wiring_.hosts[i];
    net::EthernetSwitch& sw = *switches_[at.sw];
    const std::size_t port = at.port;
    nics_[i] = std::make_unique<net::TxPort>(sim_, params_.link, &rng_);
    // Host NIC -> switch ingress; switch egress -> host NIC receive.
    net::FrameSink ingress = sw.attach(port, hosts_[i]->frame_input());
    nics_[i]->connect(std::move(ingress));
    auto* nic = nics_[i].get();
    Host* host = hosts_[i].get();
    host->set_frame_output([nic](const net::Frame& f) { nic->send(f); });
    // SO_SNDBUF backpressure: the host sees its own transmit backlog and
    // is woken whenever a frame leaves it.
    host->set_nic_backlog_fn([nic] { return nic->queued_wire_bytes(); });
    nic->set_dequeue_hook([host](std::size_t bytes) { host->on_nic_dequeue(bytes); });

    if (params_.multicast_snooping) {
      // Joins register the host's own port, then the toward-the-member
      // port on every other switch; leaves unregister symmetrically.
      std::vector<std::pair<net::EthernetSwitch*, std::size_t>> taps;
      taps.emplace_back(&sw, port);
      for (std::size_t s = 0; s < switches_.size(); ++s) {
        if (s == at.sw) continue;
        taps.emplace_back(switches_[s].get(), routes[s][at.sw]);
      }
      host->set_membership_observer(
          [taps = std::move(taps)](net::MacAddr mac, bool joined) {
            for (const auto& [tap_sw, tap_port] : taps) {
              if (joined) {
                tap_sw->register_group_port(mac, tap_port);
              } else {
                tap_sw->unregister_group_port(mac, tap_port);
              }
            }
          });
    }
  }

  if (static_fabric) {
    for (std::size_t s = 0; s < switches_.size(); ++s) {
      switches_[s]->set_static_routes(s, wiring_.hosts, std::move(routes[s]));
    }
  }

  // Trunks attach last (the legacy builder's order): egress of one side
  // delivers straight into the other's ingress and vice versa (each
  // egress TxPort already models the cable's serialization and
  // propagation).
  for (const net::TrunkPlan& trunk : wiring_.trunks) {
    net::EthernetSwitch& sw_a = *switches_[trunk.sw_a];
    net::EthernetSwitch& sw_b = *switches_[trunk.sw_b];
    sw_a.attach(trunk.port_a, [&sw_b, port_b = trunk.port_b](const net::Frame& f) {
      sw_b.handle_frame(port_b, f);
    });
    sw_b.attach(trunk.port_b, [&sw_a, port_a = trunk.port_a](const net::Frame& f) {
      sw_a.handle_frame(port_a, f);
    });
  }
}

void Cluster::build_bus() {
  bus_ = std::make_unique<net::SharedBus>(sim_, rng_);
  for (auto& host : hosts_) {
    std::size_t id = bus_->add_station(host->frame_input());
    host->set_frame_output(bus_->station_tx(id));
    net::SharedBus* bus = bus_.get();
    host->set_nic_backlog_fn([bus, id] { return bus->station_backlog_bytes(id); });
    Host* h = host.get();
    bus_->set_dequeue_hook(id, [h](std::size_t bytes) { h->on_nic_dequeue(bytes); });
  }
}

}  // namespace rmc::inet
