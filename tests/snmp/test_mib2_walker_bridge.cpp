// Mib2IfTable semantics (incl. the agent-side cache artifact), subtree
// walking, bridge MIB, and agent deployment.
#include <gtest/gtest.h>

#include "netsim/network.h"
#include "netsim/simulator.h"
#include "snmp/bridge.h"
#include "snmp/client.h"
#include "snmp/deploy.h"
#include "snmp/walker.h"
#include "spec/testbed.h"

namespace netqos::snmp {
namespace {

TEST(Mib2IfTable, ServesLiveCountersWithoutCache) {
  sim::Simulator sim;
  sim::Network net(sim);
  sim::Host& h = net.add_host("h");
  net.add_host_interface(h, "eth0", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.1"));

  MibTree mib;
  Mib2IfTable table(mib, sim, {h.find_interface("eth0")},
                    IfTableConfig{.cached = false});
  EXPECT_EQ(*mib.get(mib2::kIfNumber.child(0)), SnmpValue(std::int64_t{1}));
  EXPECT_EQ(as_counter32(*mib.get(
                mib2::if_column(mib2::kIfInOctetsColumn, 1))),
            0u);

  // Mutate the live counters directly: visible immediately (no cache).
  // Use deliver() with a crafted frame addressed to the NIC.
  sim::EthernetFrame frame;
  frame.dst = h.find_interface("eth0")->mac();
  frame.ip.udp.padding = 100;
  h.find_interface("eth0")->deliver(sim::make_frame(frame));
  EXPECT_GT(as_counter32(*mib.get(
                mib2::if_column(mib2::kIfInOctetsColumn, 1))),
            0u);
  EXPECT_EQ(table.refreshes(), 0u);
}

TEST(Mib2IfTable, CacheServesStaleSnapshotUntilInterval) {
  sim::Simulator sim;
  sim::Network net(sim);
  sim::Host& h = net.add_host("h");
  net.add_host_interface(h, "eth0", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.1"));
  sim::Nic* nic = h.find_interface("eth0");

  MibTree mib;
  Mib2IfTable table(mib, sim, {nic}, IfTableConfig{.cached = true});
  const Oid oid = mib2::if_column(mib2::kIfInOctetsColumn, 1);

  // The construction snapshot (t=0) saw counter 0.
  EXPECT_EQ(as_counter32(*mib.get(oid)), 0u);
  EXPECT_EQ(table.refreshes(), 1u);

  // Traffic arrives; the query above armed an async refresh, but until
  // it completes the agent still reports the stale snapshot.
  sim::EthernetFrame frame;
  frame.dst = nic->mac();
  frame.ip.udp.padding = 500;
  nic->deliver(sim::make_frame(frame));
  EXPECT_EQ(as_counter32(*mib.get(oid)), 0u)
      << "bytes must be counted in a LATER message (paper §4.3.1)";

  // Once the post-query refresh lands, the bytes appear.
  sim.run_until(seconds(1));
  EXPECT_GT(as_counter32(*mib.get(oid)), 0u);
  EXPECT_EQ(table.refreshes(), 2u);
}

TEST(Mib2IfTable, OneRefreshPerQueryBurst) {
  sim::Simulator sim;
  sim::Network net(sim);
  sim::Host& h = net.add_host("h");
  net.add_host_interface(h, "eth0", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.1"));
  MibTree mib;
  Mib2IfTable table(mib, sim, {h.find_interface("eth0")},
                    IfTableConfig{.cached = true});
  const Oid oid = mib2::if_column(mib2::kIfInOctetsColumn, 1);
  // A burst of queries (one poll PDU touches many columns) arms exactly
  // one refresh.
  for (int i = 0; i < 10; ++i) mib.get(oid);
  sim.run_until(seconds(1));
  EXPECT_EQ(table.refreshes(), 2u);  // construction + one async
}

TEST(Mib2IfTable, IndexOfMapsNics) {
  sim::Simulator sim;
  sim::Network net(sim);
  sim::Host& h = net.add_host("h");
  net.add_host_interface(h, "eth0", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.1"));
  net.add_host_interface(h, "eth1", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.2"));
  MibTree mib;
  Mib2IfTable table(mib, sim,
                    {h.find_interface("eth0"), h.find_interface("eth1")});
  EXPECT_EQ(table.index_of(*h.find_interface("eth0")), 1u);
  EXPECT_EQ(table.index_of(*h.find_interface("eth1")), 2u);
  EXPECT_EQ(table.interface_count(), 2u);
}

TEST(Mib2IfTable, PhysAddressServed) {
  sim::Simulator sim;
  sim::Network net(sim);
  sim::Host& h = net.add_host("h");
  net.add_host_interface(h, "eth0", mbps(100),
                         sim::Ipv4Address::parse("10.0.0.1"));
  MibTree mib;
  Mib2IfTable table(mib, sim, {h.find_interface("eth0")});
  const auto value = mib.get(mib2::if_column(mib2::kIfPhysAddressColumn, 1));
  ASSERT_TRUE(value.has_value());
  const auto& raw = std::get<std::string>(*value);
  ASSERT_EQ(raw.size(), 6u);
  const auto mac = h.find_interface("eth0")->mac().octets();
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(raw[i]), mac[i]);
  }
}

/// Full LIRTSS deployment for walker/bridge tests.
class DeployedFixture : public ::testing::Test {
 protected:
  DeployedFixture() : specfile(spec::lirtss_testbed()) {
    net = sim::build_network(sim, specfile.topology);
    DeployOptions options;
    options.agent.hiccup_probability = 0.0;
    agents = deploy_agents(sim, *net, specfile.topology, options);
    client = std::make_unique<SnmpClient>(
        sim, net->find_host("L")->udp());
  }

  spec::SpecFile specfile;
  sim::Simulator sim;
  std::unique_ptr<sim::Network> net;
  std::vector<DeployedAgent> agents;
  std::unique_ptr<SnmpClient> client;
};

TEST_F(DeployedFixture, DeploysExactlyDeclaredAgents) {
  // L, S1, S2, N1, N2, sw0.
  EXPECT_EQ(agents.size(), 6u);
  EXPECT_NE(find_agent(agents, "sw0"), nullptr);
  EXPECT_NE(find_agent(agents, "N2"), nullptr);
  EXPECT_EQ(find_agent(agents, "S3"), nullptr);  // no daemon by spec
  EXPECT_EQ(find_agent(agents, "missing"), nullptr);
}

TEST_F(DeployedFixture, WalkIfDescrOnSwitch) {
  std::optional<WalkResult> got;
  SubtreeWalker walker(*client);
  walker.walk(sim::Ipv4Address::parse("10.0.0.100"), "public",
              mib2::kIfEntry.child(mib2::kIfDescrColumn),
              [&](WalkResult r) { got = std::move(r); });
  sim.run_until(seconds(5));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
  ASSERT_EQ(got->varbinds.size(), 8u);  // p1..p8
  EXPECT_EQ(std::get<std::string>(got->varbinds[0].value), "p1");
  EXPECT_EQ(std::get<std::string>(got->varbinds[7].value), "p8");
}

TEST_F(DeployedFixture, WalkUnreachableAgentReportsTimeout) {
  std::optional<WalkResult> got;
  SubtreeWalker walker(*client);
  walker.walk(sim::Ipv4Address::parse("10.0.0.13"),  // S3: no agent
              "public", mib2::kIfEntry,
              [&](WalkResult r) { got = std::move(r); });
  sim.run_until(seconds(30));
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok);
  EXPECT_EQ(got->error, "timeout");
}

TEST_F(DeployedFixture, WalkerRejectsConcurrentWalks) {
  SubtreeWalker walker(*client);
  walker.walk(sim::Ipv4Address::parse("10.0.0.100"), "public",
              mib2::kIfEntry, [](WalkResult) {});
  EXPECT_TRUE(walker.busy());
  EXPECT_THROW(walker.walk(sim::Ipv4Address::parse("10.0.0.100"), "public",
                           mib2::kIfEntry, [](WalkResult) {}),
               std::logic_error);
  sim.run_until(seconds(5));
  EXPECT_FALSE(walker.busy());
}

TEST_F(DeployedFixture, BridgeMibExposesLearnedMacs) {
  // Traffic teaches the switch where hosts live.
  sim::Host* l = net->find_host("L");
  sim::Host* s1 = net->find_host("S1");
  s1->udp().bind(9, [](const sim::Ipv4Packet&) {});
  const auto sport = l->udp().allocate_ephemeral_port();
  l->udp().send(s1->ip(), 9, sport, {}, 10);
  sim.run_until(seconds(1));

  std::optional<WalkResult> got;
  SubtreeWalker walker(*client);
  walker.walk(sim::Ipv4Address::parse("10.0.0.100"), "public",
              mib2::kDot1dTpFdbPort,
              [&](WalkResult r) { got = std::move(r); });
  sim.run_until(seconds(5));
  ASSERT_TRUE(got.has_value() && got->ok);
  // At least L's MAC learned on port p1 (index 1).
  bool found_l_on_p1 = false;
  const auto l_mac = l->find_interface("eth0")->mac();
  for (const auto& vb : got->varbinds) {
    if (vb.oid == fdb_instance(l_mac)) {
      found_l_on_p1 = std::get<std::int64_t>(vb.value) == 1;
    }
  }
  EXPECT_TRUE(found_l_on_p1);
}

TEST_F(DeployedFixture, BridgeMibFollowsAMacThatMovesPorts) {
  sim::Host* l = net->find_host("L");
  sim::Host* s1 = net->find_host("S1");
  sim::Switch* sw = net->find_switch("sw0");
  l->udp().bind(9, [](const sim::Ipv4Packet&) {});
  const auto sport = s1->udp().allocate_ephemeral_port();
  s1->udp().send(l->ip(), 9, sport, {}, 10);  // S1 learned on p2
  sim.run_until(seconds(1));

  const auto s1_mac = s1->find_interface("hme0")->mac();
  const auto port_of_s1 = [&]() -> std::int64_t {
    std::optional<WalkResult> got;
    SubtreeWalker walker(*client);
    walker.walk(sim::Ipv4Address::parse("10.0.0.100"), "public",
                mib2::kDot1dTpFdbPort,
                [&](WalkResult r) { got = std::move(r); });
    sim.run_until(sim.now() + seconds(5));
    EXPECT_TRUE(got.has_value() && got->ok);
    if (!got.has_value()) return 0;
    for (const auto& vb : got->varbinds) {
      if (vb.oid == fdb_instance(s1_mac)) {
        return std::get<std::int64_t>(vb.value);
      }
    }
    return 0;
  };
  EXPECT_EQ(port_of_s1(), 2);

  // S1's MAC shows up behind p3: the FDB keeps its size, but the row
  // must follow the move.
  const std::uint64_t changes = sw->stats().fdb_changes;
  sim::EthernetFrame moved;
  moved.src = s1_mac;
  moved.dst = l->find_interface("eth0")->mac();
  sw->on_frame(*sw->find_interface("p3"), sim::make_frame(moved));
  EXPECT_EQ(sw->stats().fdb_changes, changes + 1);
  EXPECT_EQ(port_of_s1(), 3);
}

TEST(DeployErrors, SnmpOnHubRejected) {
  auto specfile = spec::lirtss_testbed();
  // Corrupt the spec: demand SNMP on the hub.
  topo::NetworkTopology hacked;
  for (auto node : specfile.topology.nodes()) {
    if (node.kind == topo::NodeKind::kHub) node.snmp_enabled = true;
    hacked.add_node(node);
  }
  for (const auto& conn : specfile.topology.connections()) {
    hacked.add_connection(conn);
  }
  sim::Simulator sim;
  auto net = sim::build_network(sim, hacked);
  EXPECT_THROW(deploy_agents(sim, *net, hacked), std::invalid_argument);
}

}  // namespace
}  // namespace netqos::snmp
