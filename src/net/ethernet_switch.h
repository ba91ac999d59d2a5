// Store-and-forward Ethernet switch.
//
// Models the 3Com SuperStack-class switches of the reproduced testbed:
// each port has a drop-tail output queue draining at the link rate; frames
// incur a fixed forwarding latency between full reception and enqueue on
// the egress port. Unicast destinations are forwarded point-to-point;
// group-addressed (multicast/broadcast) and unknown-unicast frames flood
// to every port except the ingress — this is what makes IP multicast cost
// one transmission per segment, the property the paper's protocols
// exploit. By default the switch learns source addresses into a hash FDB,
// starting empty, as the Figure-7 and single-switch testbeds did.
// Datacenter fabrics (spine-leaf, fat-tree) are switched statically
// instead (set_static_routes): a host-addressed unicast is looked up by
// host number in the cluster's wiring table, nothing is learned, and the
// switch keeps O(switches) state of its own rather than an entry per host.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/topology.h"
#include "net/tx_port.h"

namespace rmc::net {

// Table lookup and crossbar transfer: every forwarded frame waits this
// long before its egress port takes it.
inline constexpr sim::Time kForwardingLatency = sim::microseconds(15);

struct SwitchParams {
  LinkParams port;  // per egress queue/wire
  // IGMP-snooping-style multicast filtering: group-addressed frames are
  // forwarded only to ports registered for the group (falling back to
  // flooding for unregistered groups). The baseline switches of the
  // reproduced testbed flooded all multicast; snooping models the modern
  // alternative and quantifies §3's "extra CPU overhead for unintended
  // receivers".
  bool multicast_snooping = false;
};

class EthernetSwitch {
 public:
  EthernetSwitch(sim::Simulator& simulator, std::size_t n_ports, SwitchParams params,
                 Rng* rng = nullptr);

  std::size_t n_ports() const { return ports_.size(); }

  // Connects port `port` to a peer device: egress frames are delivered to
  // `deliver`, and the returned sink must be invoked by the peer's transmit
  // side for ingress frames.
  FrameSink attach(std::size_t port, FrameSink deliver);

  // Rebuilds port `port`'s transmit side with `params` — how topology
  // builders give an aggregated trunk (LAG/ECMP planes folded into one
  // logical cable) more rate and queue than a host port. Must be called
  // before the port is attached: the replacement discards any sink.
  void override_port_params(std::size_t port, LinkParams params, Rng* rng = nullptr);

  // Switches statically from now on, as a fabric controller that knows
  // every host's seat would: a unicast to host h (MacAddr::host(h), h <
  // hosts.size()) leaves on h's own port when hosts[h].sw == self, else
  // on first_hop[hosts[h].sw], this switch's trunk-tree first hop toward
  // h's switch (its row of switch_routes()). Any other unicast floods, and
  // nothing is learned. `hosts` is the cluster's wiring table, shared by
  // all its switches; it must outlive this switch.
  void set_static_routes(std::size_t self, std::span<const HostAttachment> hosts,
                         std::vector<std::size_t> first_hop);

  // Ingress entry point (what attach() returns, exposed for tests).
  void handle_frame(std::size_t ingress_port, const Frame& frame);

  // Carrier control for fault injection: a downed port drops its egress
  // frames (via the port's TxPort) and ignores ingress frames, as a switch
  // that lost carrier on that port would.
  void set_port_link_up(std::size_t port, bool up);
  // Impairs the egress of `port` with `faults` (TxPort::set_faults).
  void set_port_faults(std::size_t port, const sim::LinkFaults& faults);

  // Snooping registration (stands in for observed IGMP reports/leaves):
  // reference-counted per (group MAC, port). No-ops unless
  // multicast_snooping is enabled.
  void register_group_port(MacAddr group, std::size_t port);
  void unregister_group_port(MacAddr group, std::size_t port);

  const TxPort& port_tx(std::size_t port) const { return *ports_[port]; }

  // Causal tracing: gives every egress port its own track named
  // "<prefix>.portP" on `tracer` and records ingress drops on downed
  // ports (cause kLinkDown) onto "<prefix>.ingress". Null detaches.
  void set_tracer(trace::Tracer* tracer, const std::string& prefix);

  struct Stats {
    std::uint64_t frames_forwarded = 0;
    std::uint64_t frames_flooded = 0;
    std::uint64_t frames_snoop_forwarded = 0;  // multicast sent to members only
    std::uint64_t frames_filtered = 0;  // unicast dst behind the ingress port
    std::uint64_t frames_link_down = 0;  // ingress on a downed port
  };
  const Stats& stats() const { return stats_; }

  // Deepest egress queue right now (queued + transmitting), in frames —
  // what the timeline sampler snapshots.
  std::size_t max_port_queue_now() const;

 private:
  // Egress port of a unicast to `dst`, or kUnknown to flood.
  std::size_t unicast_port(MacAddr dst) const;
  void enqueue(std::size_t egress_port, const Frame& frame);

  static constexpr std::size_t kUnknown = static_cast<std::size_t>(-1);

  sim::Simulator& sim_;
  SwitchParams params_;
  trace::Tracer* tracer_ = nullptr;
  std::uint16_t ingress_track_ = 0;
  std::vector<std::unique_ptr<TxPort>> ports_;
  std::vector<bool> port_up_;
  std::unordered_map<MacAddr, std::size_t> fdb_;  // learned; unused when static
  // Static forwarding (empty hosts: learning instead).
  std::size_t self_ = 0;
  std::span<const HostAttachment> static_hosts_;
  std::vector<std::size_t> first_hop_;
  // group MAC -> port -> registration count.
  std::unordered_map<MacAddr, std::unordered_map<std::size_t, int>> group_ports_;
  Stats stats_;
};

}  // namespace rmc::net
