// Poller shards: interface-weighted partitioning, ownership handoff on
// station failure, merged-view continuity through an outage, and the
// batched GETBULK hot path measuring like the per-varbind GET path.
#include "monitor/distributed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "experiments/lirtss.h"
#include "monitor/plan.h"

namespace netqos::mon {
namespace {

class ShardingFixture : public ::testing::Test {
 protected:
  ShardingFixture() { stations = {&bed.host("L"), &bed.host("S2")}; }

  static sim::Link* link_of(sim::Host& host, const std::string& itf) {
    return host.find_interface(itf)->link();
  }

  exp::LirtssTestbed bed;
  std::vector<sim::Host*> stations;
};

TEST_F(ShardingFixture, InterfaceWeightedPartitionBalancesLoad) {
  DistributedConfig config;
  config.partition = PartitionStrategy::kInterfaceWeighted;
  DistributedMonitor dist(bed.simulator(), bed.topology(), stations,
                          config);

  const PollPlan plan = PollPlan::build(bed.topology());
  std::map<std::string, std::size_t> weight;
  std::size_t heaviest = 0;
  for (const AgentTask& task : plan.agents()) {
    weight[task.node] = std::max<std::size_t>(1, task.points.size());
    heaviest = std::max(heaviest, weight[task.node]);
  }

  // Shards are disjoint and cover the plan exactly.
  const auto s0 = dist.shard_agents(0);
  const auto s1 = dist.shard_agents(1);
  std::set<std::string> all(s0.begin(), s0.end());
  all.insert(s1.begin(), s1.end());
  EXPECT_EQ(all.size(), s0.size() + s1.size());
  EXPECT_EQ(all.size(), plan.agents().size());

  // LPT guarantee: load gap bounded by the heaviest single agent.
  std::size_t load0 = 0, load1 = 0;
  for (const auto& node : s0) load0 += weight.at(node);
  for (const auto& node : s1) load1 += weight.at(node);
  EXPECT_LE(load0 > load1 ? load0 - load1 : load1 - load0, heaviest);
}

TEST_F(ShardingFixture, StationFailureHandsPartitionOffAndBack) {
  DistributedConfig config;
  config.ownership_handoff = true;
  DistributedMonitor dist(bed.simulator(), bed.topology(), stations,
                          config);
  const auto initial0 = dist.shard_agents(0);
  const auto initial1 = dist.shard_agents(1);

  // Pinning: a station's own agent lives on the *next* shard, so its
  // death is observed by a healthy peer.
  EXPECT_TRUE(std::count(initial1.begin(), initial1.end(), "L"));
  EXPECT_TRUE(std::count(initial0.begin(), initial0.end(), "S2"));

  dist.add_path("S1", "N1");
  bed.background().start();
  dist.start();
  bed.simulator().run_until(seconds(5));

  // Station S2 drops off the network entirely.
  link_of(bed.host("S2"), "hme0")->set_up(false);
  bed.simulator().run_until(seconds(40));
  EXPECT_TRUE(dist.shard_dark(1));
  EXPECT_FALSE(dist.shard_dark(0));
  // Shard 0 absorbed everything except the dead station's own agent
  // (still owned by shard 0, where it was pinned).
  EXPECT_TRUE(dist.shard_agents(1).empty());
  EXPECT_EQ(dist.shard_agents(0).size(),
            initial0.size() + initial1.size());

  // Station heals; the partition migrates home.
  link_of(bed.host("S2"), "hme0")->set_up(true);
  bed.simulator().run_until(seconds(120));
  EXPECT_FALSE(dist.shard_dark(1));
  EXPECT_EQ(dist.shard_agents(0), initial0);
  EXPECT_EQ(dist.shard_agents(1), initial1);
}

TEST_F(ShardingFixture, MergedViewStaysFreshThroughStationOutage) {
  DistributedConfig config;
  config.ownership_handoff = true;
  DistributedMonitor dist(bed.simulator(), bed.topology(), stations,
                          config);
  dist.add_path("S1", "N1");
  bed.add_load("S1", "N1",
               load::RateProfile::pulse(seconds(2), seconds(60),
                                        kilobytes_per_second(200)));
  bed.background().start();
  dist.start();
  bed.simulator().run_until(seconds(20));
  ASSERT_EQ(dist.coordinator().current_usage("S1", "N1").freshness,
            Freshness::kFresh);

  link_of(bed.host("S2"), "hme0")->set_up(false);
  bed.simulator().run_until(seconds(60));

  // S1 <-> N1 involves only nodes reachable from station L; after the
  // handoff shard 0 polls them, so the merged view keeps producing
  // fresh samples despite station S2 being gone.
  EXPECT_TRUE(dist.shard_dark(1));
  EXPECT_EQ(dist.coordinator().current_usage("S1", "N1").freshness,
            Freshness::kFresh);
  const double level =
      dist.used_series("S1", "N1").mean_between(seconds(45), seconds(58));
  EXPECT_GT(level, 100'000.0);
}

// The batched whole-ifTable GETBULK path must agree with the classic
// per-varbind GET path on what the network is doing. Two identical
// testbeds, one monitor each; means match within sampling noise.
TEST_F(ShardingFixture, BatchedTablePollsMeasureLikeGetPath) {
  const auto profile =
      load::RateProfile::pulse(seconds(5), seconds(40),
                               kilobytes_per_second(300));

  exp::LirtssTestbed get_bed;
  get_bed.watch("S1", "N1");
  get_bed.add_load("L", "N1", profile);
  get_bed.run_until(seconds(40));
  const double get_level =
      get_bed.monitor().used_series("S1", "N1").mean_between(seconds(12),
                                                            seconds(38));

  exp::LirtssTestbed bulk_bed;
  bulk_bed.add_load("L", "N1", profile);
  MonitorConfig config;
  config.batch_table_polls = true;
  NetworkMonitor monitor(bulk_bed.simulator(), bulk_bed.topology(),
                         bulk_bed.host("L"), config);
  monitor.add_path("S1", "N1");
  bulk_bed.background().start();
  monitor.start();
  bulk_bed.simulator().run_until(seconds(40));
  const double bulk_level =
      monitor.used_series("S1", "N1").mean_between(seconds(12),
                                                   seconds(38));

  EXPECT_NEAR(get_level, 310'000.0, 25'000.0);
  EXPECT_NEAR(bulk_level, get_level, 0.10 * get_level);
  // And the batched monitor really did use the table path.
  EXPECT_GT(monitor.stats().agent_polls, 0u);
  EXPECT_EQ(monitor.stats().agent_poll_failures, 0u);
}

}  // namespace
}  // namespace netqos::mon
