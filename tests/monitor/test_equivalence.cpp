// Cross-cutting equivalence and stress properties of the monitor stack.
#include <gtest/gtest.h>

#include "experiments/lirtss.h"
#include "monitor/distributed.h"

namespace netqos::mon {
namespace {

TEST(Equivalence, DistributedMatchesCentralizedShape) {
  // Same workload measured by the centralized monitor (on L) and a
  // 3-station distributed one: window means agree within noise.
  exp::LirtssTestbed bed;
  DistributedMonitor dist(bed.simulator(), bed.topology(),
                          {&bed.host("S3"), &bed.host("S4"),
                           &bed.host("S5")});
  dist.add_path("S1", "N1");
  bed.watch("S1", "N1");
  bed.add_load("L", "N1",
               load::RateProfile::pulse(seconds(5), seconds(40),
                                        kilobytes_per_second(250)));
  dist.start();
  bed.run_until(seconds(40));

  const double central =
      bed.monitor().used_series("S1", "N1").mean_between(seconds(12),
                                                         seconds(38));
  const double distributed =
      dist.used_series("S1", "N1").mean_between(seconds(12), seconds(38));
  EXPECT_NEAR(central, distributed, central * 0.03);
}

/// Poll-interval sweep: the measured window mean must be interval-
/// independent (the whole point of counter differencing).
class PollIntervalSweep : public ::testing::TestWithParam<int> {};

TEST_P(PollIntervalSweep, WindowMeanIndependentOfInterval) {
  exp::TestbedOptions options;
  options.poll_interval = GetParam() * kMillisecond;
  exp::LirtssTestbed bed(options);
  bed.add_load("L", "N1",
               load::RateProfile::pulse(seconds(4), seconds(44),
                                        kilobytes_per_second(300)));
  bed.watch("S1", "N1");
  bed.run_until(seconds(44));

  const SimTime settle = seconds(4) + 2 * options.poll_interval;
  const double level = bed.monitor().used_series("S1", "N1")
                           .mean_between(settle, seconds(42));
  EXPECT_NEAR(level, 300'000.0 * 1.031 + 11'000.0, 9'000.0)
      << "poll interval " << GetParam() << " ms";
}

INSTANTIATE_TEST_SUITE_P(Intervals, PollIntervalSweep,
                         ::testing::Values(1000, 2000, 4000, 8000));

TEST(ClientStress, ManyConcurrentRequests) {
  exp::LirtssTestbed bed;
  bed.run_until(seconds(1));  // agents ready
  snmp::SnmpClient client(bed.simulator(), bed.host("L").udp());

  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    const char* targets[] = {"10.0.0.11", "10.0.0.12", "10.0.0.21",
                             "10.0.0.22", "10.0.0.100"};
    client.get(sim::Ipv4Address::parse(targets[i % 5]), "public",
               {snmp::mib2::kSysUpTime.child(0)},
               [&](snmp::SnmpResult result) {
                 completed += result.ok();
               });
  }
  EXPECT_EQ(client.outstanding(), 200u);
  bed.run_until(seconds(20));
  EXPECT_EQ(completed, 200);
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(client.stats().timeouts, 0u);
}

TEST(ClientStress, InterleavedRequestIdsNeverCrossTalk) {
  // Two clients on the same host must not consume each other's replies.
  exp::LirtssTestbed bed;
  bed.run_until(seconds(1));
  snmp::SnmpClient one(bed.simulator(), bed.host("L").udp());
  snmp::SnmpClient two(bed.simulator(), bed.host("L").udp());

  int ok_one = 0, ok_two = 0;
  for (int i = 0; i < 50; ++i) {
    one.get(sim::Ipv4Address::parse("10.0.0.11"), "public",
            {snmp::mib2::kSysName.child(0)}, [&](snmp::SnmpResult r) {
              ok_one += r.ok() &&
                        std::get<std::string>(r.varbinds[0].value) == "S1";
            });
    two.get(sim::Ipv4Address::parse("10.0.0.12"), "public",
            {snmp::mib2::kSysName.child(0)}, [&](snmp::SnmpResult r) {
              ok_two += r.ok() &&
                        std::get<std::string>(r.varbinds[0].value) == "S2";
            });
  }
  bed.run_until(seconds(10));
  EXPECT_EQ(ok_one, 50);
  EXPECT_EQ(ok_two, 50);
}

// Every (GET | GETBULK) x (Counter32 | Counter64) combination reads the
// same S1<->S2 level: the testbed's own monitor on L (GET, Counter32)
// against one monitor per other combination, each on its own station.
TEST(Equivalence, HcAndClassicSeriesAgreeUnderLoad) {
  exp::LirtssTestbed bed;
  struct Mode {
    const char* station;
    bool batch_table_polls;
    bool use_hc_counters;
  };
  const Mode modes[] = {{"S6", false, true},  // GET, Counter64
                        {"S4", true, false},  // GETBULK, Counter32
                        {"S5", true, true}};  // GETBULK, Counter64
  std::vector<std::unique_ptr<NetworkMonitor>> monitors;
  for (const Mode& mode : modes) {
    MonitorConfig config;
    config.batch_table_polls = mode.batch_table_polls;
    config.use_hc_counters = mode.use_hc_counters;
    monitors.push_back(std::make_unique<NetworkMonitor>(
        bed.simulator(), bed.topology(), bed.host(mode.station), config));
    monitors.back()->add_path("S1", "S2");
    monitors.back()->start();
  }
  bed.watch("S1", "S2");
  bed.add_load("L", "S2",
               load::RateProfile::pulse(seconds(4), seconds(30),
                                        kilobytes_per_second(2000)));
  bed.run_until(seconds(30));

  const double classic = bed.monitor()
                             .used_series("S1", "S2")
                             .mean_between(seconds(10), seconds(28));
  for (std::size_t i = 0; i < monitors.size(); ++i) {
    const double level = monitors[i]->used_series("S1", "S2")
                             .mean_between(seconds(10), seconds(28));
    EXPECT_NEAR(classic, level, classic * 0.02)
        << "station " << modes[i].station << ", batch "
        << modes[i].batch_table_polls << ", hc "
        << modes[i].use_hc_counters;
  }
}

}  // namespace
}  // namespace netqos::mon
