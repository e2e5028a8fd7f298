// The monitor's ingest rule, under both fetch strategies (per-interface
// GET and whole-table GETBULK): an interface whose counter cells do not
// decode is dropped and fails the poll, while every other interface the
// same answer carries is still ingested. Either way, each answered poll
// records one round trip in the agent's RTT histogram.
#include <gtest/gtest.h>

#include <algorithm>

#include "experiments/lirtss.h"
#include "snmp/deploy.h"

namespace netqos::mon {
namespace {

class PollPathIngest : public ::testing::TestWithParam<bool> {};

TEST_P(PollPathIngest, OneUndecodableCellCostsOnlyItsOwnInterface) {
  exp::LirtssTestbed bed;
  // sw0.p4 (S3's port) answers ifInOctets with an INTEGER, not a
  // Counter32.
  snmp::DeployedAgent* sw0 = snmp::find_agent(bed.agents(), "sw0");
  ASSERT_NE(sw0, nullptr);
  const std::uint32_t p4 = sw0->if_table->index_of(
      *bed.network().find_switch("sw0")->find_interface("p4"));
  ASSERT_NE(p4, 0u);
  sw0->agent->mib().register_object(
      snmp::mib2::if_column(snmp::mib2::kIfInOctetsColumn, p4),
      [] { return snmp::SnmpValue(std::int64_t{42}); });

  MonitorConfig config;
  config.batch_table_polls = GetParam();
  config.scheduler.backoff_base = 1.0;  // sw0 stays due every round
  NetworkMonitor monitor(bed.simulator(), bed.topology(), bed.host("L"),
                         config);
  monitor.add_path("S1", "S4");
  bed.background().start();
  monitor.start();
  bed.simulator().run_until(seconds(20));

  const auto& polled = monitor.polled_agents();
  const auto task = std::find_if(polled.begin(), polled.end(),
                                 [](const AgentTask* t) {
                                   return t->node == "sw0";
                                 });
  ASSERT_NE(task, polled.end());
  const std::vector<PointId>& points = (*task)->points;
  ASSERT_NE(std::find(points.begin(), points.end(),
                      monitor.plan().find_point("sw0", "p4")),
            points.end());
  ASSERT_GT(points.size(), 1u);
  for (const PointId point : points) {
    const std::string& port = monitor.plan().point(point).interface;
    const auto rate = monitor.stats_db().latest_rate(point);
    EXPECT_EQ(rate.has_value(), port != "p4") << "sw0." << port;
  }
  EXPECT_GT(monitor.stats().agent_poll_failures, 0u);
  // Agentless S4 is measured only at sw0.p5.
  EXPECT_TRUE(monitor.current_usage("S1", "S4").complete);

  // Let the last round's answers in: then every launched poll has been
  // answered (none timed out), and each left one observation.
  monitor.stop();
  bed.simulator().run_until(seconds(21));
  EXPECT_EQ(monitor.client_stats().timeouts, 0u);
  const PollScheduler::AgentState* state = monitor.scheduler().find("sw0");
  ASSERT_NE(state, nullptr);
  const obs::HistogramMetric* rtt = monitor.metrics().find_histogram(
      "netqos_snmp_rtt_seconds", {{"agent", "sw0"}, {"station", "L"}});
  ASSERT_NE(rtt, nullptr);
  EXPECT_GT(state->polls, 0u);
  EXPECT_EQ(rtt->data().count(), state->polls);
}

INSTANTIATE_TEST_SUITE_P(FetchStrategies, PollPathIngest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& strategy) {
                           return strategy.param ? "GetBulk" : "Get";
                         });

}  // namespace
}  // namespace netqos::mon
