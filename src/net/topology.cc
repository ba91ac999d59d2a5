#include "net/topology.h"

#include <algorithm>
#include <deque>

#include "common/panic.h"

namespace rmc::net {

namespace {

constexpr std::size_t kNoPort = static_cast<std::size_t>(-1);

std::size_t div_ceil(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

// Every shape degenerates to this when one switch holds all hosts: host
// ports 0..n-1 plus the spare, no trunks.
TopologyWiring single_switch_wiring(std::size_t n_hosts) {
  TopologyWiring w;
  w.switches.push_back({n_hosts + 1});
  w.hosts.reserve(n_hosts);
  for (std::size_t i = 0; i < n_hosts; ++i) w.hosts.push_back({0, i});
  return w;
}

TopologyWiring two_switch_wiring(std::size_t n_hosts, std::size_t a_hosts) {
  RMC_ENSURE(a_hosts >= 1, "switch A needs at least one host port");
  const std::size_t n_a = std::min(a_hosts, n_hosts);
  const std::size_t n_b = n_hosts - n_a;
  if (n_b == 0) return single_switch_wiring(n_hosts);
  TopologyWiring w;
  w.switches.push_back({n_a + 1 + 1});
  w.switches.push_back({n_b + 1 + 1});
  w.hosts.reserve(n_hosts);
  for (std::size_t i = 0; i < n_hosts; ++i) {
    if (i < n_a) {
      w.hosts.push_back({0, i});
    } else {
      w.hosts.push_back({1, i - n_a});
    }
  }
  w.trunks.push_back({0, n_a, 1, n_b, 1.0});
  return w;
}

TopologyWiring spine_leaf_wiring(const TopologySpec& spec, std::size_t n_hosts) {
  RMC_ENSURE(spec.leaf_radix >= 1, "spine-leaf needs leaf_radix >= 1");
  RMC_ENSURE(spec.spine_count >= 1, "spine-leaf needs spine_count >= 1");
  const std::size_t n_leaves = div_ceil(n_hosts, spec.leaf_radix);
  if (n_leaves <= 1) return single_switch_wiring(n_hosts);
  TopologyWiring w;
  std::vector<std::size_t> leaf_hosts(n_leaves, 0);
  w.hosts.reserve(n_hosts);
  for (std::size_t i = 0; i < n_hosts; ++i) {
    const std::size_t leaf = i / spec.leaf_radix;
    w.hosts.push_back({leaf, leaf_hosts[leaf]++});
  }
  for (std::size_t l = 0; l < n_leaves; ++l) {
    w.switches.push_back({leaf_hosts[l] + 1 + 1});
  }
  const std::size_t spine = n_leaves;  // one logical spine, index after leaves
  w.switches.push_back({n_leaves + 1});
  for (std::size_t l = 0; l < n_leaves; ++l) {
    w.trunks.push_back(
        {l, leaf_hosts[l], spine, l, static_cast<double>(spec.spine_count)});
  }
  return w;
}

TopologyWiring fat_tree_wiring(const TopologySpec& spec, std::size_t n_hosts) {
  RMC_ENSURE(spec.leaf_radix >= 1, "fat-tree needs leaf_radix >= 1");
  RMC_ENSURE(spec.pod_leaves >= 1, "fat-tree needs pod_leaves >= 1");
  RMC_ENSURE(spec.agg_per_pod >= 1, "fat-tree needs agg_per_pod >= 1");
  RMC_ENSURE(spec.core_count >= 1, "fat-tree needs core_count >= 1");
  const std::size_t n_edges = div_ceil(n_hosts, spec.leaf_radix);
  if (n_edges <= 1) return single_switch_wiring(n_hosts);
  const std::size_t n_pods = div_ceil(n_edges, spec.pod_leaves);
  TopologyWiring w;
  std::vector<std::size_t> edge_hosts(n_edges, 0);
  w.hosts.reserve(n_hosts);
  for (std::size_t i = 0; i < n_hosts; ++i) {
    const std::size_t edge = i / spec.leaf_radix;
    w.hosts.push_back({edge, edge_hosts[edge]++});
  }
  for (std::size_t e = 0; e < n_edges; ++e) {
    w.switches.push_back({edge_hosts[e] + 1 + 1});
  }
  // One logical aggregation switch per pod (agg_per_pod planes folded into
  // the edge trunks' capacity_factor), then one logical core when more
  // than one pod exists.
  const bool has_core = n_pods > 1;
  std::vector<std::size_t> pod_edges(n_pods, 0);
  for (std::size_t e = 0; e < n_edges; ++e) ++pod_edges[e / spec.pod_leaves];
  for (std::size_t p = 0; p < n_pods; ++p) {
    w.switches.push_back({pod_edges[p] + (has_core ? 1 : 0) + 1});
  }
  if (has_core) w.switches.push_back({n_pods + 1});
  for (std::size_t e = 0; e < n_edges; ++e) {
    const std::size_t pod = e / spec.pod_leaves;
    w.trunks.push_back({e, edge_hosts[e], n_edges + pod, e % spec.pod_leaves,
                        static_cast<double>(spec.agg_per_pod)});
  }
  if (has_core) {
    const std::size_t core = n_edges + n_pods;
    for (std::size_t p = 0; p < n_pods; ++p) {
      w.trunks.push_back({n_edges + p, pod_edges[p], core, p,
                          static_cast<double>(spec.core_count)});
    }
  }
  return w;
}

}  // namespace

TopologyWiring build_wiring(const TopologySpec& spec, std::size_t n_hosts) {
  RMC_ENSURE(n_hosts >= 1, "topology needs at least one host");
  TopologyWiring w;
  switch (spec.kind) {
    case TopologyKind::kSingleSwitch:
      w = single_switch_wiring(n_hosts);
      break;
    case TopologyKind::kTwoSwitch:
      w = two_switch_wiring(n_hosts, spec.switch_a_hosts);
      break;
    case TopologyKind::kSpineLeaf:
      w = spine_leaf_wiring(spec, n_hosts);
      break;
    case TopologyKind::kFatTree:
      w = fat_tree_wiring(spec, n_hosts);
      break;
    case TopologyKind::kSharedBus:
      RMC_PANIC("a shared bus has no switch wiring");
  }
  RMC_ENSURE(w.trunks.size() + 1 == w.switches.size(),
             "trunk set must form a spanning tree over the switches");
  return w;
}

std::vector<std::vector<std::size_t>> switch_routes(const TopologyWiring& wiring) {
  const std::size_t n = wiring.switches.size();
  // adj[s] = (neighbor switch, egress port on s toward it).
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj(n);
  for (const TrunkPlan& t : wiring.trunks) {
    adj[t.sw_a].emplace_back(t.sw_b, t.port_a);
    adj[t.sw_b].emplace_back(t.sw_a, t.port_b);
  }
  std::vector<std::vector<std::size_t>> routes(n, std::vector<std::size_t>(n, kNoPort));
  std::deque<std::size_t> queue;
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<std::size_t>& row = routes[src];
    queue.clear();
    queue.push_back(src);
    std::vector<bool> seen(n, false);
    seen[src] = true;
    while (!queue.empty()) {
      const std::size_t cur = queue.front();
      queue.pop_front();
      for (const auto& [next, port] : adj[cur]) {
        if (seen[next]) continue;
        seen[next] = true;
        // First hop out of src: the trunk taken from src itself;
        // otherwise inherit the first hop that reached `cur`.
        row[next] = cur == src ? port : row[cur];
        queue.push_back(next);
      }
    }
    for (std::size_t t = 0; t < n; ++t) {
      RMC_ENSURE(t == src || row[t] != kNoPort, "trunk tree is disconnected");
    }
  }
  return routes;
}

}  // namespace rmc::net
