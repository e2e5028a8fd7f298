#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiments/lirtss.h"
#include "history/store.h"
#include "monitor/failure.h"
#include "monitor/qos.h"
#include "netsim/link.h"
#include "query/engine.h"

namespace netqos::query {
namespace {

// One shared scenario for all engine tests: a pulse on the hub segment,
// both qos paths watched, 60 s of polling.
class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bed_.watch("S1", "N1").watch("S1", "S2");
    bed_.add_load("L", "N1",
                  load::RateProfile::pulse(seconds(10), seconds(40),
                                           kilobytes_per_second(200)));
    bed_.run_until(seconds(60));
  }

  exp::LirtssTestbed bed_;
};

TEST_F(QueryEngineTest, PathGroupReturnsUsedAndAvailRows) {
  QueryEngine engine(bed_.monitor());
  WindowRequest request;
  request.group = GroupBy::kPath;
  const WindowResponse response =
      engine.window(request, bed_.simulator().now());

  EXPECT_EQ(response.server_now, bed_.simulator().now());
  EXPECT_EQ(response.end, bed_.simulator().now());
  EXPECT_EQ(response.begin, 0);
  // Two paths x {used, avail}.
  ASSERT_EQ(response.rows.size(), 4u);
  // Rows are key-sorted.
  for (std::size_t i = 1; i < response.rows.size(); ++i) {
    EXPECT_LT(response.rows[i - 1].key, response.rows[i].key);
  }
  // Every row's aggregate matches a direct store query.
  for (const WindowRow& row : response.rows) {
    const hist::WindowSummary direct =
        bed_.monitor().history().query(row.key, response.begin, response.end);
    EXPECT_EQ(row.samples, direct.samples) << row.key;
    EXPECT_DOUBLE_EQ(row.mean, direct.mean) << row.key;
    EXPECT_DOUBLE_EQ(row.p95, direct.p95) << row.key;
  }
}

TEST_F(QueryEngineTest, SelectorFiltersRows) {
  QueryEngine engine(bed_.monitor());
  WindowRequest request;
  request.group = GroupBy::kPath;
  request.selector = "N1";
  const WindowResponse response =
      engine.window(request, bed_.simulator().now());
  ASSERT_EQ(response.rows.size(), 2u);
  for (const WindowRow& row : response.rows) {
    EXPECT_NE(row.key.find("N1"), std::string::npos) << row.key;
  }
}

TEST_F(QueryEngineTest, TrailingWindowResolvesAgainstNow) {
  QueryEngine engine(bed_.monitor());
  const SimTime now = bed_.simulator().now();
  WindowRequest request;
  request.group = GroupBy::kPath;
  request.begin = -20 * kSecond;  // trailing 20 s
  request.end = 0;                // server now
  const WindowResponse response = engine.window(request, now);
  EXPECT_EQ(response.end, now);
  EXPECT_EQ(response.begin, now - 20 * kSecond);
  // The trailing window holds fewer samples than the whole run.
  WindowRequest whole;
  whole.group = GroupBy::kPath;
  const WindowResponse all = engine.window(whole, now);
  ASSERT_FALSE(response.rows.empty());
  EXPECT_LT(response.rows[0].samples, all.rows[0].samples);
}

TEST_F(QueryEngineTest, InterfaceAndHostGroupsCoverPolledNodes) {
  QueryEngine engine(bed_.monitor());
  const SimTime now = bed_.simulator().now();

  WindowRequest by_if;
  by_if.group = GroupBy::kInterface;
  const WindowResponse interfaces = engine.window(by_if, now);
  ASSERT_FALSE(interfaces.rows.empty());
  for (const WindowRow& row : interfaces.rows) {
    EXPECT_TRUE(row.key.starts_with("if:")) << row.key;
  }

  WindowRequest by_host;
  by_host.group = GroupBy::kHost;
  const WindowResponse hosts = engine.window(by_host, now);
  ASSERT_FALSE(hosts.rows.empty());
  std::size_t if_samples = 0;
  std::size_t host_samples = 0;
  for (const WindowRow& row : interfaces.rows) if_samples += row.samples;
  for (const WindowRow& row : hosts.rows) {
    EXPECT_TRUE(row.key.starts_with("host:")) << row.key;
    host_samples += row.samples;
  }
  // Host rows merge interface rows: the sample totals must agree.
  EXPECT_EQ(host_samples, if_samples);

  // The switch is one host row even with eight interfaces.
  WindowRequest sw;
  sw.group = GroupBy::kHost;
  sw.selector = "sw0";
  const WindowResponse sw_rows = engine.window(sw, now);
  ASSERT_EQ(sw_rows.rows.size(), 1u);
  EXPECT_EQ(sw_rows.rows[0].key, "host:sw0");
}

TEST_F(QueryEngineTest, HealthSnapshotCoversAgentsAndPaths) {
  mon::ViolationDetector detector(bed_.monitor());
  detector.add_requirement("S1", "N1", kilobytes_per_second(500));
  QueryEngine engine(bed_.monitor());
  engine.set_violation_detector(&detector);

  const HealthResponse health = engine.health(bed_.simulator().now());
  EXPECT_EQ(health.server_now, bed_.simulator().now());
  EXPECT_EQ(health.agents.size(),
            bed_.monitor().scheduler().agents().size());
  ASSERT_EQ(health.paths.size(), 2u);
  for (const AgentHealthRow& agent : health.agents) {
    EXPECT_GT(agent.polls, 0u) << agent.node;
    EXPECT_EQ(agent.health, 0) << agent.node;  // healthy run
  }
  for (const PathHealthRow& path : health.paths) {
    EXPECT_GT(path.available, 0.0);
    EXPECT_TRUE(path.complete);
    EXPECT_FALSE(path.violated);  // 200 KB/s load leaves > 500 KB/s
    EXPECT_FALSE(path.warning);   // no predictive detector attached
  }
}

TEST_F(QueryEngineTest, HealthAppendsProviderProbeRows) {
  QueryEngine engine(bed_.monitor());
  // No provider wired: probe rows stay absent.
  EXPECT_TRUE(engine.health(bed_.simulator().now()).probes.empty());

  engine.set_probe_status_provider([] {
    ProbeStatusRow row;
    row.estimator = "periodic";
    row.from = "S1";
    row.to = "N1";
    row.convergence = 1;
    row.running = true;
    row.has_estimate = true;
    row.available = 950'000.0;
    row.estimates = 12;
    row.wire_bytes = 4'096;
    return std::vector<ProbeStatusRow>{row};
  });
  const HealthResponse health = engine.health(bed_.simulator().now());
  ASSERT_EQ(health.probes.size(), 1u);
  EXPECT_EQ(health.probes[0].estimator, "periodic");
  EXPECT_TRUE(health.probes[0].running);
  EXPECT_DOUBLE_EQ(health.probes[0].available, 950'000.0);
  // The provider rows ride along without perturbing the passive rows.
  EXPECT_EQ(health.paths.size(), 2u);
}

TEST(QueryEngine, HealthCarriesTheLinkDownVerdict) {
  // FailureAwarePaths.DownLinkZeroesAvailability's scenario: the hub
  // uplink goes down at t=10 s and sw0's linkDown trap reaches L.
  exp::LirtssTestbed bed;
  mon::FailureDetector detector(bed.simulator(), bed.topology(),
                                bed.host("L"));
  bed.monitor().set_failure_detector(&detector);
  bed.watch("S1", "N1");
  bed.run_until(seconds(10));
  bed.network().find_switch("sw0")->find_interface("p8")->link()->set_up(
      false);
  bed.run_until(seconds(16));

  // Between rounds, the snapshot reads what the round samples read.
  const mon::PathUsage usage = bed.monitor().current_usage("S1", "N1");
  EXPECT_TRUE(usage.link_down);
  EXPECT_TRUE(usage.complete);
  EXPECT_DOUBLE_EQ(usage.available, 0.0);
  EXPECT_TRUE(
      bed.topology().connections()[usage.bottleneck].touches("hub0"));

  const QueryEngine engine(bed.monitor());
  const HealthResponse health = engine.health(bed.simulator().now());
  ASSERT_EQ(health.paths.size(), 1u);
  EXPECT_TRUE(health.paths[0].link_down);
  EXPECT_DOUBLE_EQ(health.paths[0].available, 0.0);
}

TEST(QueryEngine, EmptyMonitorYieldsEmptyRows) {
  exp::LirtssTestbed bed;
  bed.watch("S1", "N1");
  // No run: nothing polled yet.
  QueryEngine engine(bed.monitor());
  WindowRequest request;
  request.group = GroupBy::kPath;
  EXPECT_TRUE(engine.window(request, 0).rows.empty());
  const HealthResponse health = engine.health(0);
  EXPECT_EQ(health.paths.size(), 1u);
  EXPECT_FALSE(health.paths[0].complete);
}

}  // namespace
}  // namespace netqos::query
