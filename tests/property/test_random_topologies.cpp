// Property tests over randomly generated (but valid) topologies:
// spec round-trips, traversal invariants, domain invariants, plan
// invariants. Parameterized over seeds.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "monitor/plan.h"
#include "spec/writer.h"
#include "topology/domains.h"
#include "topology/path.h"

namespace netqos {
namespace {

/// Generates a random valid LAN: a tree of switches, hubs hanging off
/// some switch ports, hosts on switch ports and hubs. Every interface
/// used by exactly one connection; hosts have IPs; some hosts/switches
/// run agents.
topo::NetworkTopology random_topology(std::uint64_t seed,
                                      std::size_t* snmp_nodes = nullptr) {
  Xoshiro256 rng(seed);
  topo::NetworkTopology topo;
  int ip = 1;
  std::size_t agents = 0;

  const int switches = static_cast<int>(rng.uniform_int(1, 4));
  // Switch nodes with generous port counts.
  for (int s = 0; s < switches; ++s) {
    topo::NodeSpec sw;
    sw.name = "sw" + std::to_string(s);
    sw.kind = topo::NodeKind::kSwitch;
    sw.default_speed = mbps(100);
    sw.snmp_enabled = rng.uniform() < 0.7;
    if (sw.snmp_enabled) {
      sw.management_ipv4 = "10.250.0." + std::to_string(s + 1);
      ++agents;
    }
    for (int p = 0; p < 24; ++p) {
      sw.interfaces.push_back({"p" + std::to_string(p), 0, ""});
    }
    topo.add_node(sw);
  }
  // Tree of switches: switch s>=1 uplinks to a random earlier switch.
  std::vector<int> next_port(switches, 0);
  for (int s = 1; s < switches; ++s) {
    const int parent = static_cast<int>(rng.uniform_int(0, s - 1));
    topo.add_connection(
        {{"sw" + std::to_string(s),
          "p" + std::to_string(next_port[s]++)},
         {"sw" + std::to_string(parent),
          "p" + std::to_string(next_port[parent]++)}});
  }

  // Hubs on random switches.
  const int hubs = static_cast<int>(rng.uniform_int(0, 2));
  std::vector<std::string> hub_names;
  std::vector<int> hub_next_port;
  for (int h = 0; h < hubs; ++h) {
    topo::NodeSpec hub;
    hub.name = "hub" + std::to_string(h);
    hub.kind = topo::NodeKind::kHub;
    hub.default_speed = mbps(10);
    for (int p = 0; p < 8; ++p) {
      hub.interfaces.push_back({"h" + std::to_string(p), 0, ""});
    }
    topo.add_node(hub);
    const int sw = static_cast<int>(rng.uniform_int(0, switches - 1));
    topo.add_connection({{hub.name, "h0"},
                         {"sw" + std::to_string(sw),
                          "p" + std::to_string(next_port[sw]++)}});
    hub_names.push_back(hub.name);
    hub_next_port.push_back(1);
  }

  // Hosts.
  const int hosts = static_cast<int>(rng.uniform_int(2, 12));
  for (int h = 0; h < hosts; ++h) {
    topo::NodeSpec host;
    host.name = "host" + std::to_string(h);
    host.kind = topo::NodeKind::kHost;
    host.snmp_enabled = rng.uniform() < 0.5;
    if (host.snmp_enabled) ++agents;
    host.interfaces.push_back(
        {"eth0", rng.uniform() < 0.3 ? mbps(10) : mbps(100),
         "10.0." + std::to_string(ip / 250) + "." +
             std::to_string(ip % 250 + 1)});
    ++ip;
    topo.add_node(host);

    // Attach to a hub (if any and coin-flip) or a switch.
    const bool to_hub = !hub_names.empty() && rng.uniform() < 0.4;
    if (to_hub) {
      const int h_idx =
          static_cast<int>(rng.uniform_int(0, hub_names.size() - 1));
      if (hub_next_port[h_idx] < 8) {
        topo.add_connection(
            {{host.name, "eth0"},
             {hub_names[h_idx], "h" + std::to_string(hub_next_port[h_idx]++)}});
        continue;
      }
    }
    const int sw = static_cast<int>(rng.uniform_int(0, switches - 1));
    topo.add_connection({{host.name, "eth0"},
                         {"sw" + std::to_string(sw),
                          "p" + std::to_string(next_port[sw]++)}});
  }
  if (snmp_nodes != nullptr) *snmp_nodes = agents;
  return topo;
}

class RandomTopology : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTopology, GeneratedTopologyIsValid) {
  const auto topo = random_topology(GetParam());
  EXPECT_TRUE(topo.validate().empty());
}

TEST_P(RandomTopology, SpecRoundTripPreservesStructure) {
  const auto topo = random_topology(GetParam());
  spec::SpecFile file;
  file.network_name = "random";
  file.topology = topo;
  const spec::SpecFile back = spec::parse_spec(spec::write_spec(file));

  ASSERT_EQ(back.topology.nodes().size(), topo.nodes().size());
  ASSERT_EQ(back.topology.connections().size(), topo.connections().size());
  for (std::size_t i = 0; i < topo.nodes().size(); ++i) {
    EXPECT_EQ(back.topology.nodes()[i].name, topo.nodes()[i].name);
    EXPECT_EQ(back.topology.nodes()[i].kind, topo.nodes()[i].kind);
    EXPECT_EQ(back.topology.nodes()[i].snmp_enabled,
              topo.nodes()[i].snmp_enabled);
    EXPECT_EQ(back.topology.nodes()[i].interfaces.size(),
              topo.nodes()[i].interfaces.size());
  }
}

TEST_P(RandomTopology, AllHostPairsConnectedByTreeTraversal) {
  // The generator builds a tree, so every pair of hosts must be
  // reachable, both traversals agree on existence, and BFS never beats
  // DFS by... rather: BFS length <= DFS length.
  const auto topo = random_topology(GetParam());
  std::vector<std::string> hosts;
  for (const auto& node : topo.nodes()) {
    if (node.kind == topo::NodeKind::kHost) hosts.push_back(node.name);
  }
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = i + 1; j < hosts.size() && j < i + 4; ++j) {
      const auto dfs = topo::traverse_recursive(topo, hosts[i], hosts[j]);
      const auto bfs = topo::shortest_path(topo, hosts[i], hosts[j]);
      ASSERT_TRUE(dfs.has_value()) << hosts[i] << " " << hosts[j];
      ASSERT_TRUE(bfs.has_value());
      EXPECT_LE(bfs->size(), dfs->size());
      // In a tree the simple path is unique: they must be equal.
      EXPECT_EQ(*dfs, *bfs);

      // Path is a chain visiting distinct nodes.
      const auto nodes = topo::path_nodes(topo, *dfs, hosts[i]);
      std::set<std::string> unique(nodes.begin(), nodes.end());
      EXPECT_EQ(unique.size(), nodes.size());
      EXPECT_EQ(nodes.front(), hosts[i]);
      EXPECT_EQ(nodes.back(), hosts[j]);
    }
  }
}

TEST_P(RandomTopology, DomainsPartitionHubConnections) {
  const auto topo = random_topology(GetParam());
  const auto domains = topo::collision_domains(topo);
  const auto map = topo::connection_domains(topo, domains);

  // Every connection touching a hub is in exactly one domain; others in
  // none.
  for (std::size_t ci = 0; ci < topo.connections().size(); ++ci) {
    const auto& conn = topo.connections()[ci];
    bool touches_hub = false;
    for (const auto* ep : {&conn.a, &conn.b}) {
      if (topo.find_node(ep->node)->kind == topo::NodeKind::kHub) {
        touches_hub = true;
      }
    }
    EXPECT_EQ(map[ci].has_value(), touches_hub) << conn.to_string();
  }
  // Domain speeds are positive when domains exist.
  for (const auto& dom : domains) {
    EXPECT_GT(dom.speed, 0u);
    EXPECT_FALSE(dom.hubs.empty());
  }
}

TEST_P(RandomTopology, PollPlanInvariants) {
  std::size_t agents = 0;
  const auto topo = random_topology(GetParam(), &agents);
  const auto plan = mon::PollPlan::build(topo);

  // Only agents that measure something are polled: a subset of the
  // SNMP-capable nodes (a switch whose neighbours all run agents is
  // never chosen).
  EXPECT_LE(plan.agents().size(), agents);
  for (const auto& task : plan.agents()) {
    EXPECT_TRUE(topo.find_node(task.node)->snmp_enabled);
    EXPECT_FALSE(task.points.empty());
  }

  for (std::size_t ci = 0; ci < topo.connections().size(); ++ci) {
    const auto& point = plan.measurement_for(ci);
    if (!point.has_value()) continue;
    // Measurement point is one of the connection's endpoints...
    const auto& conn = topo.connections()[ci];
    EXPECT_TRUE(conn.touches(point->node)) << conn.to_string();
    EXPECT_EQ(conn.end_at(point->node).interface, point->interface);
    // ... and that node really runs an agent.
    const auto* node = topo.find_node(point->node);
    EXPECT_TRUE(node->snmp_enabled);
    // Hosts are preferred: via_switch only when no endpoint host has an
    // agent.
    if (point->via_switch) {
      for (const auto* ep : {&conn.a, &conn.b}) {
        const auto* end_node = topo.find_node(ep->node);
        if (end_node->kind == topo::NodeKind::kHost) {
          EXPECT_FALSE(end_node->snmp_enabled);
        }
      }
    }
  }

  // Unmonitorable connections have no SNMP-capable endpoint.
  for (std::size_t ci : plan.unmonitorable()) {
    EXPECT_FALSE(plan.measurement_for(ci).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopology,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace netqos
