// Declarative fabric shapes, compiled into wiring plans.
//
// The paper's testbed is a fixed shape — 16 hosts on one switch, 15 on a
// second, one uplink (Figure 7). Scaling past 31 receivers needs fabrics
// the paper never had: multi-tier spine-leaf and fat-tree topologies with
// configurable radix and uplink count. A TopologySpec names the shape
// and is the one fabric selector of inet::ClusterParams: for a switched
// shape, build_wiring() compiles it into a wiring plan (switches with port
// counts, host attachments, inter-switch trunks) that inet::Cluster turns
// into live EthernetSwitch fabric; kSharedBus has no switches, and the
// Cluster puts every host on one CSMA/CD segment (the shared-medium case
// of the paper's §3 discussion).
//
// Fabrics are modelled post-spanning-tree: the trunk set always forms a
// tree, because the learning switch floods group traffic and a physical
// multi-path mesh would loop frames forever. Multi-spine (ECMP/LAG)
// capacity is expressed instead by scaling a trunk's link rate and queue
// by its capacity_factor — one logical trunk standing for spine_count
// parallel cables, which preserves aggregate bandwidth while keeping the
// flood-safe tree.
//
// Datacenter shapes (kSpineLeaf, kFatTree) are switched statically, as
// by a fabric controller: inet::Cluster hands every switch the host
// attachment table and its own row of switch_routes(), so a unicast to a
// host is a table lookup, no first unicast floods, and forwarding state
// is O(hosts + switches^2) for the whole fabric instead of an FDB entry
// per host per switch. The paper's shapes (kSingleSwitch, kTwoSwitch)
// start with an empty FDB and learn.
#pragma once

#include <cstddef>
#include <vector>

namespace rmc::net {

enum class TopologyKind {
  kSingleSwitch,  // every host on one switch
  kTwoSwitch,     // the paper's Figure-7 cluster: split across two switches
  kSpineLeaf,     // leaves of `leaf_radix` hosts under an aggregated spine
  kFatTree,       // edge -> per-pod aggregation -> core, three tiers
  kSharedBus,     // one CSMA/CD segment, no switches
};

struct TopologySpec {
  TopologyKind kind = TopologyKind::kTwoSwitch;

  // kTwoSwitch: hosts placed on switch A before spilling to B. The
  // Figure-7 testbed puts P0..P15 on A.
  std::size_t switch_a_hosts = 16;

  // kSpineLeaf / kFatTree: host ports per leaf (edge) switch.
  std::size_t leaf_radix = 16;
  // kSpineLeaf: parallel spine planes aggregated into one logical spine;
  // each leaf uplink carries spine_count cables' worth of capacity.
  std::size_t spine_count = 4;

  // kFatTree: edge switches per pod, aggregation switches per pod
  // (aggregated into one logical agg per pod), and core switches
  // (aggregated into one logical core).
  std::size_t pod_leaves = 4;
  std::size_t agg_per_pod = 2;
  std::size_t core_count = 4;

  static TopologySpec single_switch() {
    TopologySpec s;
    s.kind = TopologyKind::kSingleSwitch;
    return s;
  }
  static TopologySpec shared_bus() {
    TopologySpec s;
    s.kind = TopologyKind::kSharedBus;
    return s;
  }
  // The paper's testbed shape (collapses to one switch when all hosts fit
  // on switch A).
  static TopologySpec figure7(std::size_t switch_a_hosts = 16) {
    TopologySpec s;
    s.kind = TopologyKind::kTwoSwitch;
    s.switch_a_hosts = switch_a_hosts;
    return s;
  }
  static TopologySpec spine_leaf(std::size_t leaf_radix, std::size_t spine_count) {
    TopologySpec s;
    s.kind = TopologyKind::kSpineLeaf;
    s.leaf_radix = leaf_radix;
    s.spine_count = spine_count;
    return s;
  }
  static TopologySpec fat_tree(std::size_t leaf_radix, std::size_t pod_leaves,
                               std::size_t agg_per_pod, std::size_t core_count) {
    TopologySpec s;
    s.kind = TopologyKind::kFatTree;
    s.leaf_radix = leaf_radix;
    s.pod_leaves = pod_leaves;
    s.agg_per_pod = agg_per_pod;
    s.core_count = core_count;
    return s;
  }
};

// One switch to instantiate. Ports are laid out host ports first, then
// trunk ports, then one spare (the legacy builder's convention, kept so
// the Figure-7 wiring is reproduced port-for-port).
struct SwitchPlan {
  std::size_t n_ports = 0;
};

struct HostAttachment {
  std::size_t sw = 0;    // switch index
  std::size_t port = 0;  // port on that switch
};

// A full-duplex inter-switch link. capacity_factor scales the trunk's
// rate and queue relative to a host link (1.0 = one cable; spine_count
// for an aggregated spine trunk).
struct TrunkPlan {
  std::size_t sw_a = 0;
  std::size_t port_a = 0;
  std::size_t sw_b = 0;
  std::size_t port_b = 0;
  double capacity_factor = 1.0;
};

struct TopologyWiring {
  std::vector<SwitchPlan> switches;
  std::vector<HostAttachment> hosts;  // hosts[i] = attachment of host i
  std::vector<TrunkPlan> trunks;      // always a tree over the switches
};

// Compiles a switched `spec` for `n_hosts` hosts. Panics on kSharedBus and
// if the spec cannot hold them (zero radix) — there is no upper host
// limit; tiers grow to fit.
TopologyWiring build_wiring(const TopologySpec& spec, std::size_t n_hosts);

// For every ordered switch pair (s, t != s): the egress port on s of the
// first hop toward t along the trunk tree. routes[s][s] is SIZE_MAX.
// Used for IGMP-snooping registration (a member on switch m registers the
// group on routes[s][m] of every other switch s, so group traffic is
// steered down the tree toward members only) and for static forwarding
// (row s is switch s's first-hop table).
std::vector<std::vector<std::size_t>> switch_routes(const TopologyWiring& wiring);

}  // namespace rmc::net
