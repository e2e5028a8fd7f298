// §3.3 rules unit-tested directly against a hand-filled StatsDb.
#include "monitor/bandwidth.h"

#include <gtest/gtest.h>

namespace netqos::mon {
namespace {

/// Topology: A --sw-- B and C, D on a hub behind the switch.
///   conns: 0: A-sw, 1: B-sw, 2: hub-sw, 3: C-hub, 4: D-hub
class BandwidthFixture : public ::testing::Test {
 protected:
  BandwidthFixture() {
    auto host = [&](const std::string& name, const std::string& ip,
                    BitsPerSecond speed, bool snmp) {
      topo::NodeSpec node;
      node.name = name;
      node.kind = topo::NodeKind::kHost;
      node.snmp_enabled = snmp;
      node.interfaces.push_back({"e0", speed, ip});
      topo.add_node(node);
    };
    host("A", "10.0.0.1", mbps(100), true);
    host("B", "10.0.0.2", mbps(100), true);
    host("C", "10.0.0.3", mbps(10), true);
    host("D", "10.0.0.4", mbps(10), true);

    topo::NodeSpec sw;
    sw.name = "sw";
    sw.kind = topo::NodeKind::kSwitch;
    sw.snmp_enabled = true;
    sw.management_ipv4 = "10.0.0.100";
    sw.default_speed = mbps(100);
    for (int i = 1; i <= 3; ++i) {
      sw.interfaces.push_back({"p" + std::to_string(i), 0, ""});
    }
    topo.add_node(sw);

    topo::NodeSpec hub;
    hub.name = "hub";
    hub.kind = topo::NodeKind::kHub;
    hub.default_speed = mbps(10);
    for (int i = 1; i <= 3; ++i) {
      hub.interfaces.push_back({"h" + std::to_string(i), 0, ""});
    }
    topo.add_node(hub);

    topo.add_connection({{"A", "e0"}, {"sw", "p1"}});    // 0
    topo.add_connection({{"B", "e0"}, {"sw", "p2"}});    // 1
    topo.add_connection({{"hub", "h1"}, {"sw", "p3"}});  // 2
    topo.add_connection({{"C", "e0"}, {"hub", "h2"}});   // 3
    topo.add_connection({{"D", "e0"}, {"hub", "h3"}});   // 4

    plan = std::make_unique<PollPlan>(PollPlan::build(topo));
    calc = std::make_unique<BandwidthCalculator>(topo, *plan);
  }

  /// Injects two samples so the latest rate is `bytes_per_sec` (in+out
  /// split evenly) for the plan's measure point of connection `ci`.
  void set_traffic(std::size_t ci, double bytes_per_sec) {
    const auto& point = plan->measurement_for(ci);
    ASSERT_TRUE(point.has_value());
    CounterSample first{0, 0, 0, 0, 0};
    const auto half = static_cast<std::uint32_t>(bytes_per_sec / 2);
    CounterSample second{100, half, half, 1, 1};
    db.update(*point, seconds(0), first);
    db.update(*point, seconds(1), second);
  }

  topo::NetworkTopology topo;
  std::unique_ptr<PollPlan> plan;
  std::unique_ptr<BandwidthCalculator> calc;
  StatsDb db;
};

TEST_F(BandwidthFixture, SwitchRuleUsesOwnTraffic) {
  set_traffic(0, 2'000'000.0);  // A's connection: 2 MB/s
  const ConnectionUsage usage = calc->connection_usage(0, db);
  EXPECT_TRUE(usage.measured);
  EXPECT_FALSE(usage.hub_rule);
  EXPECT_DOUBLE_EQ(usage.used, 2'000'000.0);
  EXPECT_DOUBLE_EQ(usage.capacity, 12'500'000.0);  // 100 Mbps in bytes
  EXPECT_DOUBLE_EQ(usage.available, 10'500'000.0);
}

TEST_F(BandwidthFixture, SwitchConnectionsIndependent) {
  set_traffic(0, 2'000'000.0);
  set_traffic(1, 0.0);
  EXPECT_DOUBLE_EQ(calc->connection_usage(1, db).used, 0.0);
}

TEST_F(BandwidthFixture, HubRuleSumsHostMembers) {
  set_traffic(3, 300'000.0);  // C
  set_traffic(4, 200'000.0);  // D
  set_traffic(2, 500'000.0);  // uplink port (must NOT be added again)
  const ConnectionUsage c_usage = calc->connection_usage(3, db);
  EXPECT_TRUE(c_usage.hub_rule);
  EXPECT_DOUBLE_EQ(c_usage.used, 500'000.0);  // C + D, not + uplink
  // Every connection in the domain reports the same usage.
  EXPECT_DOUBLE_EQ(calc->connection_usage(4, db).used, 500'000.0);
  EXPECT_DOUBLE_EQ(calc->connection_usage(2, db).used, 500'000.0);
}

TEST_F(BandwidthFixture, HubUsageCappedAtHubSpeed) {
  // Paper: "u_i cannot exceed the maximum speed of the hub".
  set_traffic(3, 900'000.0);
  set_traffic(4, 800'000.0);  // sum 1.7 MB/s > 1.25 MB/s (10 Mbps)
  const ConnectionUsage usage = calc->connection_usage(3, db);
  EXPECT_DOUBLE_EQ(usage.used, 1'250'000.0);
  EXPECT_DOUBLE_EQ(usage.available, 0.0);
}

TEST_F(BandwidthFixture, UnmeasuredConnectionFlagged) {
  const ConnectionUsage usage = calc->connection_usage(0, db);
  EXPECT_FALSE(usage.measured);
  EXPECT_DOUBLE_EQ(usage.used, 0.0);
}

TEST_F(BandwidthFixture, PathAvailableIsMinimum) {
  // Path A -> sw -> hub -> C: conns {0, 2, 3}.
  set_traffic(0, 1'000'000.0);
  set_traffic(3, 400'000.0);
  set_traffic(4, 0.0);
  const topo::Path path{0, 2, 3};
  const PathUsage usage = calc->path_usage(path, db);
  EXPECT_TRUE(usage.complete);
  // Hub domain: 10 Mbps - 400 KB/s = 850 KB/s; switch leg: 11.5 MB/s.
  EXPECT_DOUBLE_EQ(usage.available, 850'000.0);
  EXPECT_DOUBLE_EQ(usage.used_at_bottleneck, 400'000.0);
  EXPECT_TRUE(usage.bottleneck == 2 || usage.bottleneck == 3);
  EXPECT_EQ(usage.connections.size(), 3u);
}

TEST_F(BandwidthFixture, PathIncompleteWithoutData) {
  const topo::Path path{0, 1};
  set_traffic(0, 100.0);
  const PathUsage usage = calc->path_usage(path, db);
  EXPECT_FALSE(usage.complete);
}

TEST_F(BandwidthFixture, EmptyPathIsIncomplete) {
  const PathUsage usage = calc->path_usage({}, db);
  EXPECT_FALSE(usage.complete);
  EXPECT_DOUBLE_EQ(usage.available, 0.0);
}

/// The point's raw rate ring in the db's history store, or null.
const hist::RingTier* raw_rates(const StatsDb& db,
                                const MeasurePoint& point) {
  const hist::Series* series = db.history().find(
      hist::interface_series_key(point.node, point.interface));
  return series != nullptr ? &series->raw() : nullptr;
}

TEST(StatsDbBasics, UpdateAndSeries) {
  StatsDb db;
  const MeasurePoint point{.node = "n", .interface = "e", .id = 0};
  EXPECT_FALSE(db.latest_rate(point.id).has_value());
  EXPECT_EQ(raw_rates(db, point), nullptr);

  EXPECT_FALSE(db.update(point, seconds(0), {0, 0, 0, 0, 0}).has_value());
  const auto rates = db.update(point, seconds(2), {200, 1000, 1000, 5, 5});
  ASSERT_TRUE(rates.has_value());
  EXPECT_DOUBLE_EQ(rates->total_rate(), 1000.0);

  ASSERT_TRUE(db.latest_rate(point.id).has_value());
  const hist::RingTier* series = raw_rates(db, point);
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 1u);
  EXPECT_EQ(series->at(0).start, seconds(2));
  EXPECT_DOUBLE_EQ(series->at(0).last, 1000.0);
  EXPECT_EQ(db.size(), 1u);
  ASSERT_TRUE(db.last_update(point.id).has_value());
  EXPECT_EQ(*db.last_update(point.id), seconds(2));
}

TEST(StatsDbBasics, EveryUpdateBumpsTheVersion) {
  StatsDb db;
  const MeasurePoint point{.node = "n", .interface = "e", .id = 3};
  EXPECT_EQ(db.version(), 0u);
  EXPECT_EQ(db.size(), 0u);
  db.update(point, seconds(0), {0, 0, 0, 0, 0});
  EXPECT_EQ(db.version(), 1u);
  // The same counters again: no rate, still an update.
  db.update(point, seconds(2), {0, 0, 0, 0, 0});
  EXPECT_EQ(db.version(), 2u);
  // Ids below the highest one seen have no sample of their own.
  EXPECT_EQ(db.size(), 1u);
  EXPECT_FALSE(db.last_update(0).has_value());
  EXPECT_FALSE(db.latest_rate(0).has_value());
  EXPECT_FALSE(db.last_update(7).has_value());
}

TEST(StatsDbBasics, ZeroTickUpdateKeepsPreviousRate) {
  StatsDb db;
  const MeasurePoint point{.node = "n", .interface = "e", .id = 0};
  db.update(point, seconds(0), {0, 0, 0, 0, 0});
  db.update(point, seconds(2), {200, 1000, 0, 1, 0});
  // Same agent uptime (cached snapshot): no new rate recorded.
  const auto none = db.update(point, seconds(4), {200, 1000, 0, 1, 0});
  EXPECT_FALSE(none.has_value());
  EXPECT_EQ(raw_rates(db, point)->size(), 1u);
  EXPECT_TRUE(db.latest_rate(point.id).has_value());
}

}  // namespace
}  // namespace netqos::mon
