// Cluster topology builder.
//
// Reconstructs the paper's testbed (Figure 7): hosts P0..P15 on one
// Ethernet switch, P16..P30 on a second, with an inter-switch uplink.
// P0 is conventionally the multicast sender. ClusterParams::topology, a
// net::TopologySpec, is the one fabric selector: besides Figure 7 it
// names the single switch, the shared bus (CSMA/CD) case the paper's §3
// discussion raises, and the datacenter fabrics (spine-leaf, fat-tree).
// Switches forward after net::kForwardingLatency; the bus is an 802.3
// segment (net/shared_bus.h).
//
// The Cluster owns the Simulator, the hosts, the switches/bus, every
// TxPort, the Rng used for loss injection, and the ReassemblyCache its
// hosts share — one object to stand up a whole experiment.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "inet/host.h"
#include "net/ethernet_switch.h"
#include "net/shared_bus.h"
#include "net/topology.h"
#include "sim/fault.h"

namespace rmc::inet {

struct ClusterParams {
  std::size_t n_hosts = 31;
  // The fabric: Figure 7 by default (16 hosts on switch A, the rest on
  // switch B).
  net::TopologySpec topology = net::TopologySpec::figure7();
  HostParams host;
  net::LinkParams link;  // host NICs and switch ports
  // IGMP-snooping-style multicast filtering at the switches: host joins
  // and leaves drive the switches' group-port tables, so group traffic
  // reaches only member ports (plus the inter-switch uplink when members
  // live on the far side). The reproduced testbed's switches flooded.
  bool multicast_snooping = false;
  std::uint64_t seed = 1;
  // Heterogeneity knob (the paper restricts itself to homogeneous
  // clusters; the straggler ablation probes what that assumption buys):
  // host `straggler_index` gets all CPU costs scaled by this factor.
  int straggler_index = -1;
  double straggler_cpu_factor = 1.0;
};

class Cluster {
 public:
  explicit Cluster(ClusterParams params);

  sim::Simulator& simulator() { return sim_; }
  Rng& rng() { return rng_; }

  std::size_t size() const { return hosts_.size(); }
  Host& host(std::size_t i) { return *hosts_.at(i); }

  // Host i lives at 10.0.0.(i+1), rolling into 10.0.1.x and beyond —
  // 32-bit arithmetic so clusters can exceed the /24 the paper needed.
  static net::Ipv4Addr host_addr(std::size_t i) {
    return net::Ipv4Addr(0x0A000001u + static_cast<std::uint32_t>(i));
  }

  // NIC transmit port of host i (switched wirings only; null on a bus,
  // where the station queue inside SharedBus plays the NIC's role).
  const net::TxPort* host_nic(std::size_t i) const {
    return i < nics_.size() ? nics_[i].get() : nullptr;
  }
  const std::vector<std::unique_ptr<net::EthernetSwitch>>& switches() const {
    return switches_;
  }
  const net::SharedBus* bus() const { return bus_.get(); }

  // The compiled wiring plan (switched shapes only; empty on a bus).
  const net::TopologyWiring& wiring() const { return wiring_; }

  const ClusterParams& params() const { return params_; }

  // Fault injection. set_host_down models a crashed/paused process on host
  // i; set_host_link_up flips host i's access link (its NIC transmit port
  // and the switch egress port facing it). On the shared bus there is no
  // per-host cable to cut, so a link fault degrades to host-down.
  void set_host_down(std::size_t i, bool down);
  void set_host_link_up(std::size_t i, bool up);
  bool host_link_up(std::size_t i) const;
  // Impairs what host i receives: the switch egress port facing it gets
  // `faults` (switched wirings only). One host's link can then drop,
  // duplicate, reorder or tamper with frames the others get intact.
  void set_host_link_faults(std::size_t i, const sim::LinkFaults& faults);

  // Schedules every event of `plan` on the simulator. Plan targets are
  // receiver node ids, on hosts by the Testbed convention: sender on host
  // 0, receiver i on host i + 1.
  void apply_fault_plan(const sim::FaultPlan& plan);

  // Causal tracing: attaches `tracer` to every network element — one track
  // per host ("net.P0"), host NIC ("net.P0.nic"), switch port
  // ("net.switch0.portP") and bus station ("net.bus.stationS") — so every
  // enqueue, wire serialization and drop in the cluster lands in the
  // trace. Null detaches everywhere.
  void attach_tracer(trace::Tracer* tracer);

 private:
  void build_from_spec(const net::TopologySpec& spec);
  void build_bus();
  // Switch and port facing host i (switched wirings).
  net::EthernetSwitch& switch_of_host(std::size_t i, std::size_t* port);

  ClusterParams params_;
  sim::Simulator sim_;
  Rng rng_;
  net::TopologyWiring wiring_;  // compiled plan (switched wirings)
  ReassemblyCache reassembly_;  // shared by every host
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<net::TxPort>> nics_;  // host-side transmit ports
  std::vector<std::unique_ptr<net::EthernetSwitch>> switches_;
  std::unique_ptr<net::SharedBus> bus_;
};

}  // namespace rmc::inet
