// Store-and-forward learning Ethernet switch.
//
// Models the 3Com SuperStack-class switches of the reproduced testbed:
// each port has a drop-tail output queue draining at the link rate; frames
// incur a fixed forwarding latency between full reception and enqueue on
// the egress port. Unicast destinations are learned from source addresses
// and forwarded point-to-point; group-addressed (multicast/broadcast) and
// unknown-unicast frames flood to every port except the ingress — this is
// what makes IP multicast cost one transmission per segment, the property
// the paper's protocols exploit. The Figure-7 and single-switch fabrics
// start with an empty FDB and learn; datacenter fabrics (spine-leaf,
// fat-tree) start with every host installed, as a fabric controller
// would (install_fdb_entry), and learning then re-confirms those ports.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/tx_port.h"

namespace rmc::net {

struct SwitchParams {
  LinkParams port;                                     // per egress queue/wire
  sim::Time forwarding_latency = sim::microseconds(15);  // lookup + crossbar
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

  // Installs `station` behind `port` in the forwarding database, as a
  // fabric controller pushing host reachability would. Learning still
  // runs: a frame from `station` on another port overwrites the entry.
  void install_fdb_entry(MacAddr station, std::size_t port);

  // Ingress entry point (what attach() returns, exposed for tests).
  void handle_frame(std::size_t ingress_port, const Frame& frame);

  // Carrier control for fault injection: a downed port drops its egress
  // frames (via the port's TxPort) and ignores ingress frames, as a switch
  // that lost carrier on that port would.
  void set_port_link_up(std::size_t port, bool up);
  bool port_link_up(std::size_t port) const;

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

  // Deepest any egress queue has been, in frames — the switch-level
  // congestion signal the per-port TxPort stats aggregate to.
  std::size_t max_port_queue_hwm() const;

  // Deepest egress queue right now (queued + transmitting), in frames —
  // what the timeline sampler snapshots.
  std::size_t max_port_queue_now() const;

 private:
  void enqueue(std::size_t egress_port, const Frame& frame);

  sim::Simulator& sim_;
  SwitchParams params_;
  trace::Tracer* tracer_ = nullptr;
  std::uint16_t ingress_track_ = 0;
  std::vector<std::unique_ptr<TxPort>> ports_;
  std::vector<bool> port_up_;
  std::unordered_map<MacAddr, std::size_t> fdb_;  // forwarding database
  // group MAC -> port -> registration count.
  std::unordered_map<MacAddr, std::unordered_map<std::size_t, int>> group_ports_;
  Stats stats_;
};

}  // namespace rmc::net
