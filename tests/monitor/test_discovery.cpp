#include "monitor/discovery.h"

#include <gtest/gtest.h>

#include "experiments/lirtss.h"
#include "spec/writer.h"
#include "topology/diff.h"
#include "topology/path.h"

namespace netqos::mon {
namespace {

/// Primes switch learning: each host exchanges a little traffic with L
/// so FDBs are populated (by default every SNMP-capable host plus the
/// agentless S3).
void prime_traffic(exp::LirtssTestbed& bed,
                   std::initializer_list<const char*> hosts = {
                       "L", "S1", "S2", "S3", "N1", "N2"}) {
  for (const char* name : hosts) {
    sim::Host& h = bed.host(name);
    const auto sport = h.udp().allocate_ephemeral_port();
    h.udp().send(bed.host("L").ip(), sim::kDiscardPort, sport, {}, 10);
    bed.host("L").udp().send(h.ip(), sim::kDiscardPort, sport, {}, 10);
  }
  bed.simulator().run_until(bed.simulator().now() + seconds(1));
}

class DiscoveryFixture : public ::testing::Test {
 protected:
  DiscoveryFixture() {
    prime_traffic(bed);
    client = std::make_unique<snmp::SnmpClient>(bed.simulator(),
                                                bed.host("L").udp());
  }

  DiscoveryResult discover(std::vector<DiscoveryTarget> targets) {
    TopologyDiscovery discovery(*client);
    std::optional<DiscoveryResult> got;
    discovery.run(std::move(targets),
                  [&](DiscoveryResult r) { got = std::move(r); });
    bed.simulator().run_until(bed.simulator().now() + seconds(60));
    EXPECT_TRUE(got.has_value());
    return std::move(*got);
  }

  std::vector<DiscoveryTarget> all_targets() const {
    return {
        {sim::Ipv4Address::parse("10.0.0.1"), "public"},    // L
        {sim::Ipv4Address::parse("10.0.0.11"), "public"},   // S1
        {sim::Ipv4Address::parse("10.0.0.12"), "public"},   // S2
        {sim::Ipv4Address::parse("10.0.0.21"), "public"},   // N1
        {sim::Ipv4Address::parse("10.0.0.22"), "public"},   // N2
        {sim::Ipv4Address::parse("10.0.0.100"), "public"},  // sw0
    };
  }

  exp::LirtssTestbed bed;
  std::unique_ptr<snmp::SnmpClient> client;
};

TEST_F(DiscoveryFixture, ClassifiesSwitchAndHosts) {
  const DiscoveryResult result = discover(all_targets());
  ASSERT_TRUE(result.ok);
  const auto* sw = result.topology.find_node("sw0");
  ASSERT_NE(sw, nullptr);
  EXPECT_EQ(sw->kind, topo::NodeKind::kSwitch);
  EXPECT_EQ(sw->management_ipv4, "10.0.0.100");

  for (const char* name : {"L", "S1", "S2", "N1", "N2"}) {
    const auto* node = result.topology.find_node(name);
    ASSERT_NE(node, nullptr) << name;
    EXPECT_EQ(node->kind, topo::NodeKind::kHost);
    EXPECT_TRUE(node->snmp_enabled);
  }
}

TEST_F(DiscoveryFixture, DirectAttachmentsRecovered) {
  const DiscoveryResult result = discover(all_targets());
  // L.eth0 <-> sw0.p1 must be rediscovered.
  bool found = false;
  for (const auto& conn : result.topology.connections()) {
    if ((conn.a == topo::Endpoint{"sw0", "p1"} &&
         conn.b == topo::Endpoint{"L", "eth0"}) ||
        (conn.b == topo::Endpoint{"sw0", "p1"} &&
         conn.a == topo::Endpoint{"L", "eth0"})) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(DiscoveryFixture, SharedSegmentInferredAsHub) {
  const DiscoveryResult result = discover(all_targets());
  // N1 and N2 both live behind sw0.p8: a hub must be synthesized.
  const topo::NodeSpec* hub = nullptr;
  for (const auto& node : result.topology.nodes()) {
    if (node.kind == topo::NodeKind::kHub) hub = &node;
  }
  ASSERT_NE(hub, nullptr);
  // Hub connects to the switch and to both NT hosts.
  auto path = topo::traverse_recursive(result.topology, "N1", "N2");
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 2u);  // N1-hub, hub-N2
}

TEST_F(DiscoveryFixture, AgentlessHostsAppearAsPlaceholders) {
  const DiscoveryResult result = discover(all_targets());
  // S3 sent traffic but runs no agent: it appears as host-<mac>.
  int ghosts = 0;
  for (const auto& node : result.topology.nodes()) {
    if (node.name.rfind("host-", 0) == 0) {
      ++ghosts;
      EXPECT_FALSE(node.snmp_enabled);
    }
  }
  EXPECT_GE(ghosts, 1);
}

TEST_F(DiscoveryFixture, UnreachableTargetsReported) {
  auto targets = all_targets();
  targets.push_back({sim::Ipv4Address::parse("10.0.0.13"), "public"});  // S3
  const DiscoveryResult result = discover(std::move(targets));
  ASSERT_EQ(result.unreachable.size(), 1u);
  EXPECT_EQ(result.unreachable[0], sim::Ipv4Address::parse("10.0.0.13"));
}

TEST_F(DiscoveryFixture, DiscoveredTopologyIsWritable) {
  const DiscoveryResult result = discover(all_targets());
  spec::SpecFile file;
  file.network_name = "discovered";
  file.topology = result.topology;
  const std::string text = spec::write_spec(file);
  EXPECT_NE(text.find("switch sw0"), std::string::npos);
  EXPECT_NE(text.find("hub"), std::string::npos);
}

TEST(DiscoveryHybridCheck, SpecDiffListsOnlyWhatSnmpCannotSee) {
  // The hybrid approach: discover from every SNMP address (S3's too,
  // which runs no agent) and diff against the configured spec. The
  // agentless S3-S6 surface only as placeholders, and the real hub0 only
  // under a synthesized name, so they and their connections differ;
  // everything else matches.
  exp::LirtssTestbed bed;
  prime_traffic(bed, {"L", "S1", "S2", "S3", "S6", "N1", "N2"});
  snmp::SnmpClient client(bed.simulator(), bed.host("L").udp());
  TopologyDiscovery discovery(client);
  std::vector<DiscoveryTarget> targets;
  for (const char* ip : {"10.0.0.1", "10.0.0.11", "10.0.0.12", "10.0.0.21",
                         "10.0.0.22", "10.0.0.100", "10.0.0.13"}) {
    targets.push_back({sim::Ipv4Address::parse(ip), "public"});
  }
  std::optional<DiscoveryResult> result;
  discovery.run(targets, [&](DiscoveryResult r) { result = std::move(r); });
  bed.simulator().run_until(seconds(120));
  ASSERT_TRUE(result.has_value());

  std::vector<std::string> differences;
  for (const auto& diff :
       topo::diff_topologies(bed.topology(), result->topology)) {
    differences.push_back(std::string(topo::difference_kind_name(diff.kind)) +
                          ": " + diff.description);
  }
  const std::vector<std::string> expected = {
      "missing-node: node 'S3' (host) was not discovered",
      "missing-node: node 'S4' (host) was not discovered",
      "missing-node: node 'S5' (host) was not discovered",
      "missing-node: node 'S6' (host) was not discovered",
      "missing-node: node 'hub0' (hub) was not discovered",
      "missing-connection: connection S3.hme0 <-> sw0.p4 was not discovered",
      "missing-connection: connection S4.hme0 <-> sw0.p5 was not discovered",
      "missing-connection: connection S5.hme0 <-> sw0.p6 was not discovered",
      "missing-connection: connection S6.hme0 <-> sw0.p7 was not discovered",
      "missing-connection: connection hub0.h1 <-> sw0.p8 was not discovered",
      "missing-connection: connection N1.e0 <-> hub0.h2 was not discovered",
      "missing-connection: connection N2.e0 <-> hub0.h3 was not discovered",
  };
  EXPECT_EQ(differences, expected);
}

TEST_F(DiscoveryFixture, RejectsConcurrentRuns) {
  TopologyDiscovery discovery(*client);
  discovery.run({{sim::Ipv4Address::parse("10.0.0.1"), "public"}},
                [](DiscoveryResult) {});
  EXPECT_TRUE(discovery.busy());
  EXPECT_THROW(discovery.run({}, [](DiscoveryResult) {}),
               std::logic_error);
  bed.simulator().run_until(bed.simulator().now() + seconds(30));
}

}  // namespace
}  // namespace netqos::mon
