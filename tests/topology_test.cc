// The declarative fabric builder (src/net/topology.h): every compiled
// wiring must be a valid spanning tree with collision-free port
// assignments, the snooping route table must actually steer toward its
// target, and the Figure-7 shape must reproduce the legacy hand-wired
// testbed port-for-port.
#include "net/topology.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "inet/cluster.h"

namespace rmc::net {
namespace {

// Structural validity: hosts land on real ports, no port is used twice,
// and the trunk set is a spanning tree over the switches.
void check_wiring(const TopologySpec& spec, std::size_t n_hosts) {
  const TopologyWiring w = build_wiring(spec, n_hosts);
  SCOPED_TRACE(testing::Message() << "n_hosts=" << n_hosts);
  ASSERT_EQ(w.hosts.size(), n_hosts);
  ASSERT_FALSE(w.switches.empty());
  ASSERT_EQ(w.trunks.size() + 1, w.switches.size());  // spanning tree

  std::set<std::pair<std::size_t, std::size_t>> used;
  for (const HostAttachment& at : w.hosts) {
    ASSERT_LT(at.sw, w.switches.size());
    ASSERT_LT(at.port, w.switches[at.sw].n_ports);
    ASSERT_TRUE(used.insert({at.sw, at.port}).second) << "host port reused";
  }
  for (const TrunkPlan& t : w.trunks) {
    ASSERT_LT(t.sw_a, w.switches.size());
    ASSERT_LT(t.sw_b, w.switches.size());
    ASSERT_NE(t.sw_a, t.sw_b);
    ASSERT_LT(t.port_a, w.switches[t.sw_a].n_ports);
    ASSERT_LT(t.port_b, w.switches[t.sw_b].n_ports);
    ASSERT_GE(t.capacity_factor, 1.0);
    ASSERT_TRUE(used.insert({t.sw_a, t.port_a}).second) << "trunk port reused";
    ASSERT_TRUE(used.insert({t.sw_b, t.port_b}).second) << "trunk port reused";
  }

  // Route validity: from any switch, repeatedly taking the advertised
  // first-hop port must arrive at the target within |switches| hops.
  const auto routes = switch_routes(w);
  ASSERT_EQ(routes.size(), w.switches.size());
  for (std::size_t s = 0; s < w.switches.size(); ++s) {
    ASSERT_EQ(routes[s][s], static_cast<std::size_t>(-1));
    for (std::size_t t = 0; t < w.switches.size(); ++t) {
      if (s == t) continue;
      std::size_t cur = s;
      std::size_t hops = 0;
      while (cur != t) {
        ASSERT_LE(++hops, w.switches.size()) << "route loops: " << s << "->" << t;
        const std::size_t port = routes[cur][t];
        // The port must belong to exactly one trunk adjacent to cur.
        std::size_t next = static_cast<std::size_t>(-1);
        for (const TrunkPlan& trunk : w.trunks) {
          if (trunk.sw_a == cur && trunk.port_a == port) next = trunk.sw_b;
          if (trunk.sw_b == cur && trunk.port_b == port) next = trunk.sw_a;
        }
        ASSERT_NE(next, static_cast<std::size_t>(-1))
            << "route names a non-trunk port: switch " << cur << " port " << port;
        cur = next;
      }
    }
  }
}

TEST(Topology, AllShapesProduceValidWiring) {
  for (std::size_t n : {1u, 2u, 16u, 31u, 33u, 128u, 1024u}) {
    check_wiring(TopologySpec::single_switch(), n);
    check_wiring(TopologySpec::figure7(16), n);
    check_wiring(TopologySpec::spine_leaf(16, 4), n);
    check_wiring(TopologySpec::fat_tree(16, 4, 2, 4), n);
  }
  // Odd radices and the 10^4 regime the XL bench drives.
  check_wiring(TopologySpec::spine_leaf(3, 2), 100);
  check_wiring(TopologySpec::spine_leaf(16, 4), 10'008);
  check_wiring(TopologySpec::fat_tree(8, 3, 2, 2), 1000);
}

TEST(Topology, DeterministicWiring) {
  const TopologySpec spec = TopologySpec::fat_tree(16, 4, 2, 4);
  const TopologyWiring a = build_wiring(spec, 500);
  const TopologyWiring b = build_wiring(spec, 500);
  ASSERT_EQ(a.switches.size(), b.switches.size());
  for (std::size_t i = 0; i < a.switches.size(); ++i) {
    EXPECT_EQ(a.switches[i].n_ports, b.switches[i].n_ports);
  }
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (std::size_t i = 0; i < a.hosts.size(); ++i) {
    EXPECT_EQ(a.hosts[i].sw, b.hosts[i].sw);
    EXPECT_EQ(a.hosts[i].port, b.hosts[i].port);
  }
  ASSERT_EQ(a.trunks.size(), b.trunks.size());
  for (std::size_t i = 0; i < a.trunks.size(); ++i) {
    EXPECT_EQ(a.trunks[i].sw_a, b.trunks[i].sw_a);
    EXPECT_EQ(a.trunks[i].port_a, b.trunks[i].port_a);
    EXPECT_EQ(a.trunks[i].sw_b, b.trunks[i].sw_b);
    EXPECT_EQ(a.trunks[i].port_b, b.trunks[i].port_b);
    EXPECT_EQ(a.trunks[i].capacity_factor, b.trunks[i].capacity_factor);
  }
}

// The paper's testbed, port for port: 16 hosts + trunk + spare on switch
// A (18 ports), 15 hosts + trunk + spare on B (17 ports), one unscaled
// trunk on the first port past each side's hosts.
TEST(Topology, Figure7Golden) {
  const TopologyWiring w = build_wiring(TopologySpec::figure7(16), 31);
  ASSERT_EQ(w.switches.size(), 2u);
  EXPECT_EQ(w.switches[0].n_ports, 18u);
  EXPECT_EQ(w.switches[1].n_ports, 17u);
  ASSERT_EQ(w.trunks.size(), 1u);
  EXPECT_EQ(w.trunks[0].sw_a, 0u);
  EXPECT_EQ(w.trunks[0].port_a, 16u);
  EXPECT_EQ(w.trunks[0].sw_b, 1u);
  EXPECT_EQ(w.trunks[0].port_b, 15u);
  EXPECT_DOUBLE_EQ(w.trunks[0].capacity_factor, 1.0);
  for (std::size_t i = 0; i < 31; ++i) {
    EXPECT_EQ(w.hosts[i].sw, i < 16 ? 0u : 1u);
    EXPECT_EQ(w.hosts[i].port, i < 16 ? i : i - 16);
  }
  // All 31 hosts fitting on switch A collapses to a single switch.
  const TopologyWiring one = build_wiring(TopologySpec::figure7(64), 31);
  EXPECT_EQ(one.switches.size(), 1u);
  EXPECT_TRUE(one.trunks.empty());
}

// The topology field is the only fabric selector: a default cluster is
// the paper's Figure-7 testbed, and the shared bus is one of its shapes.
TEST(Topology, ClusterDefaultsToFigure7) {
  EXPECT_EQ(inet::ClusterParams{}.topology.kind, TopologyKind::kTwoSwitch);
}

TEST(Topology, SharedBusClusterBuildsABusAndNoSwitches) {
  inet::ClusterParams params;
  params.n_hosts = 4;
  params.topology = TopologySpec::shared_bus();
  inet::Cluster cluster(params);
  EXPECT_NE(cluster.bus(), nullptr);
  EXPECT_TRUE(cluster.switches().empty());
  EXPECT_EQ(cluster.host_nic(0), nullptr);
}

}  // namespace
}  // namespace rmc::net
