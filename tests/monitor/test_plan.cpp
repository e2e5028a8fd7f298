#include "monitor/plan.h"

#include <gtest/gtest.h>

#include "spec/testbed.h"

namespace netqos::mon {
namespace {

class LirtssPlan : public ::testing::Test {
 protected:
  LirtssPlan()
      : specfile(spec::lirtss_testbed()),
        plan(PollPlan::build(specfile.topology)) {}

  std::size_t connection_index(const std::string& node,
                               const std::string& itf) const {
    const auto& conns = specfile.topology.connections();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      const topo::Endpoint ep{node, itf};
      if (conns[i].a == ep || conns[i].b == ep) return i;
    }
    throw std::out_of_range("no such endpoint");
  }

  spec::SpecFile specfile;
  PollPlan plan;
};

TEST_F(LirtssPlan, HostAgentsPreferred) {
  // S1 <-> switch is measured at S1's own agent.
  const auto& point = plan.measurement_for(connection_index("S1", "hme0"));
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(point->node, "S1");
  EXPECT_EQ(point->interface, "hme0");
  EXPECT_FALSE(point->via_switch);
}

TEST_F(LirtssPlan, AgentlessHostsFallBackToSwitchPort) {
  // Paper §4.1: S4/S5 have no daemon; poll the switch ports facing them.
  const auto& s4 = plan.measurement_for(connection_index("S4", "hme0"));
  ASSERT_TRUE(s4.has_value());
  EXPECT_EQ(s4->node, "sw0");
  EXPECT_EQ(s4->interface, "p5");
  EXPECT_TRUE(s4->via_switch);
}

TEST_F(LirtssPlan, HubUplinkMeasuredAtSwitch) {
  const auto& uplink = plan.measurement_for(connection_index("hub0", "h1"));
  ASSERT_TRUE(uplink.has_value());
  EXPECT_EQ(uplink->node, "sw0");
  EXPECT_EQ(uplink->interface, "p8");
}

TEST_F(LirtssPlan, HubHostsMeasuredAtTheirAgents) {
  const auto& n1 = plan.measurement_for(connection_index("N1", "e0"));
  ASSERT_TRUE(n1.has_value());
  EXPECT_EQ(n1->node, "N1");
}

TEST_F(LirtssPlan, EverythingMonitorableInTestbed) {
  EXPECT_TRUE(plan.unmonitorable().empty());
}

TEST_F(LirtssPlan, AgentTasksCoverAllSixAgents) {
  EXPECT_EQ(plan.agents().size(), 6u);
  bool found_switch = false;
  for (const auto& task : plan.agents()) {
    if (task.node == "sw0") {
      found_switch = true;
      EXPECT_EQ(task.address, sim::Ipv4Address::parse("10.0.0.100"));
      // The switch is asked for the agentless ports + the hub uplink.
      EXPECT_GE(task.points.size(), 5u);  // p4..p7 + p8
    }
    if (task.node == "S1") {
      EXPECT_EQ(task.address, sim::Ipv4Address::parse("10.0.0.11"));
    }
  }
  EXPECT_TRUE(found_switch);
}

TEST_F(LirtssPlan, InterfaceListsDeduplicated) {
  for (const auto& task : plan.agents()) {
    std::set<std::string> unique;
    for (const PointId id : task.points) {
      unique.insert(plan.point(id).interface);
    }
    EXPECT_EQ(unique.size(), task.points.size())
        << "duplicates polled on " << task.node;
  }
}

TEST_F(LirtssPlan, MeasurePointsCarryDenseIds) {
  // Every primary and fallback point indexes the point table, and each
  // (node, ifDescr) has exactly one id.
  std::set<PointId> seen;
  for (std::size_t ci = 0; ci < specfile.topology.connections().size();
       ++ci) {
    for (const auto* candidate :
         {&plan.primary_measurement_for(ci), &plan.switch_fallback_for(ci)}) {
      if (!candidate->has_value()) continue;
      const MeasurePoint& point = **candidate;
      ASSERT_LT(point.id, plan.point_count());
      EXPECT_EQ(plan.point(point.id).node, point.node);
      EXPECT_EQ(plan.point(point.id).interface, point.interface);
      EXPECT_EQ(plan.point_key(point.id),
                InterfaceKey(point.node, point.interface));
      EXPECT_EQ(plan.find_point(point.node, point.interface), point.id);
      seen.insert(point.id);
    }
  }
  EXPECT_EQ(seen.size(), plan.point_count());
  // Agentless S3 is measured at its switch port only.
  EXPECT_FALSE(plan.find_point("S3", "hme0").has_value());
  EXPECT_TRUE(plan.find_point("sw0", "p4").has_value());

  for (const auto& task : plan.agents()) {
    for (const PointId id : task.points) {
      EXPECT_EQ(plan.point(id).node, task.node);
    }
  }

  // Monitors sharing a StatsDb build their plans separately: the ids
  // must agree.
  const PollPlan again = PollPlan::build(specfile.topology);
  ASSERT_EQ(again.point_count(), plan.point_count());
  for (PointId id = 0; id < plan.point_count(); ++id) {
    EXPECT_EQ(again.point_key(id), plan.point_key(id));
  }
}

TEST_F(LirtssPlan, EveryQuarantineCallBumpsTheVersion) {
  const std::uint64_t before = plan.version();
  plan.set_agent_quarantined("S2", true);
  EXPECT_EQ(plan.version(), before + 1);
  plan.set_agent_quarantined("S2", false);
  EXPECT_EQ(plan.version(), before + 2);
}

TEST_F(LirtssPlan, DomainsComputed) {
  ASSERT_EQ(plan.domains().size(), 1u);
  int in_domain = 0;
  for (const auto& d : plan.domain_of()) in_domain += d.has_value();
  EXPECT_EQ(in_domain, 3);  // uplink + N1 + N2 connections
}

TEST(PollPlanErrors, InvalidTopologyRejected) {
  topo::NetworkTopology bad;
  topo::NodeSpec host;
  host.name = "A";
  host.kind = topo::NodeKind::kHost;
  host.interfaces.push_back({"e", mbps(10), "10.0.0.1"});
  bad.add_node(host);
  bad.add_connection({{"A", "e"}, {"ghost", "x"}});
  EXPECT_THROW(PollPlan::build(bad), std::invalid_argument);
}

TEST(PollPlanErrors, NoAgentsAnywhereMeansUnmonitorable) {
  topo::NetworkTopology topo;
  topo::NodeSpec a, b;
  a.name = "A";
  a.kind = topo::NodeKind::kHost;
  a.interfaces.push_back({"e", mbps(10), "10.0.0.1"});
  b.name = "B";
  b.kind = topo::NodeKind::kHost;
  b.interfaces.push_back({"e", mbps(10), "10.0.0.2"});
  topo.add_node(a);
  topo.add_node(b);
  topo.add_connection({{"A", "e"}, {"B", "e"}});

  const PollPlan plan = PollPlan::build(topo);
  EXPECT_TRUE(plan.agents().empty());
  ASSERT_EQ(plan.unmonitorable().size(), 1u);
  EXPECT_FALSE(plan.measurement_for(0).has_value());
}

TEST(PollPlanErrors, SnmpHostWithoutIpIsSkipped) {
  topo::NetworkTopology topo;
  topo::NodeSpec a;
  a.name = "A";
  a.kind = topo::NodeKind::kHost;
  a.snmp_enabled = true;
  a.interfaces.push_back({"e", mbps(10), ""});  // no IP: agent unreachable
  topo.add_node(a);
  // An interface without an IP fails validation only if speed missing;
  // here validation passes but the agent has no address.
  const PollPlan plan = PollPlan::build(topo);
  EXPECT_TRUE(plan.agents().empty());
}

}  // namespace
}  // namespace netqos::mon
