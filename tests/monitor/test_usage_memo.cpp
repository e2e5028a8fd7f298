// NetworkMonitor::current_usage answers from a per-path memo of the §3.3
// evaluation, kept while neither the StatsDb nor the plan version moves.
// Each scenario steps the simulation in 1 ms slices across several poll
// rounds, so most checks land mid-round, and compares every answer field
// by field with a fresh evaluation: the calculator over the monitor's plan
// and db at now, then the failure detector's link-down override.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/lirtss.h"
#include "monitor/distributed.h"
#include "monitor/failure.h"
#include "netsim/link.h"
#include "snmp/deploy.h"

namespace netqos::mon {
namespace {

/// The usage of `from`-`to` evaluated from scratch, as current_usage
/// would without a memo.
PathUsage fresh_usage(const NetworkMonitor& monitor,
                      const topo::NetworkTopology& topo,
                      const FailureDetector* detector,
                      const std::string& from, const std::string& to,
                      SimTime now) {
  const topo::Path& path = monitor.path_of(from, to);
  PathUsage usage = BandwidthCalculator(topo, monitor.plan())
                        .path_usage(path, monitor.stats_db(), now,
                                    monitor.effective_stale_after());
  if (detector == nullptr) return usage;
  for (std::size_t ci : path) {
    if (detector->connection_down(ci)) {
      usage.link_down = true;
      usage.complete = true;
      usage.available = 0.0;
      usage.bottleneck = ci;
      break;
    }
  }
  return usage;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The first field in which `got` differs from `want`, or "" when every
/// field is identical (doubles bit for bit).
std::string first_difference(const PathUsage& got, const PathUsage& want) {
  std::ostringstream out;
  if (got.complete != want.complete) out << "complete";
  else if (got.link_down != want.link_down) out << "link_down";
  else if (!same_bits(got.available, want.available)) out << "available";
  else if (!same_bits(got.used_at_bottleneck, want.used_at_bottleneck)) {
    out << "used_at_bottleneck";
  } else if (got.bottleneck != want.bottleneck) out << "bottleneck";
  else if (got.freshness != want.freshness) out << "freshness";
  else if (got.max_sample_age != want.max_sample_age) out << "max_sample_age";
  else if (got.connections.size() != want.connections.size()) {
    out << "connection count";
  }
  if (!out.str().empty()) return out.str();
  for (std::size_t i = 0; i < got.connections.size(); ++i) {
    const ConnectionUsage& g = got.connections[i];
    const ConnectionUsage& w = want.connections[i];
    const char* field = nullptr;
    if (g.connection != w.connection) field = "connection";
    else if (!same_bits(g.used, w.used)) field = "used";
    else if (!same_bits(g.capacity, w.capacity)) field = "capacity";
    else if (!same_bits(g.available, w.available)) field = "available";
    else if (!same_bits(g.discard_rate, w.discard_rate)) field = "discard_rate";
    else if (g.hub_rule != w.hub_rule) field = "hub_rule";
    else if (g.measured != w.measured) field = "measured";
    else if (g.via_switch != w.via_switch) field = "via_switch";
    else if (g.sample_age != w.sample_age) field = "sample_age";
    if (field != nullptr) {
      out << "connections[" << i << "]." << field;
      return out.str();
    }
  }
  return "";
}

/// What the slices exercised, read from the two version counters.
struct Coverage {
  std::size_t checks = 0;
  /// Slices where neither version moved: the memo answers, re-aged.
  std::size_t unchanged = 0;
  /// Slices where only the plan version moved.
  std::size_t plan_only = 0;
};

/// Steps [from, to) in 1 ms slices through `run_until` and checks every
/// pair's current_usage against fresh_usage at each slice; stops at the
/// first difference.
Coverage check_slices(const std::function<void(SimTime)>& run_until,
                      const NetworkMonitor& monitor,
                      const topo::NetworkTopology& topo,
                      const FailureDetector* detector,
                      const std::vector<PathKey>& pairs, SimTime from,
                      SimTime to) {
  Coverage coverage;
  std::uint64_t db_version = monitor.stats_db().version();
  std::uint64_t plan_version = monitor.plan().version();
  for (SimTime now = from; now < to; now += kMillisecond) {
    run_until(now);
    const bool db_moved = monitor.stats_db().version() != db_version;
    const bool plan_moved = monitor.plan().version() != plan_version;
    if (!db_moved && !plan_moved) ++coverage.unchanged;
    if (!db_moved && plan_moved) ++coverage.plan_only;
    db_version = monitor.stats_db().version();
    plan_version = monitor.plan().version();
    for (const auto& [a, b] : pairs) {
      const PathUsage got = monitor.current_usage(a, b);
      const PathUsage want = fresh_usage(monitor, topo, detector, a, b, now);
      const std::string difference = first_difference(got, want);
      if (!difference.empty()) {
        ADD_FAILURE() << a << " <-> " << b << " at t=" << to_seconds(now)
                      << " s: " << difference
                      << " differs from a fresh evaluation";
        return coverage;
      }
      ++coverage.checks;
    }
  }
  return coverage;
}

snmp::SnmpAgent& agent_of(exp::LirtssTestbed& bed, const std::string& node) {
  snmp::DeployedAgent* deployed = snmp::find_agent(bed.agents(), node);
  EXPECT_NE(deployed, nullptr);
  return *deployed->agent;
}

TEST(UsageMemo, MatchesFreshEvaluationUnderLoad) {
  exp::LirtssTestbed bed;
  const std::vector<PathKey> pairs = {{"S1", "N1"}, {"S1", "S2"}, {"L", "N2"}};
  for (const auto& [a, b] : pairs) bed.watch(a, b);
  bed.add_load("S1", "N1",
               load::RateProfile::pulse(seconds(3), seconds(20),
                                        kilobytes_per_second(300)));
  bed.add_load("L", "S2",
               load::RateProfile::pulse(seconds(5), seconds(20),
                                        kilobytes_per_second(800)));
  bed.run_until(seconds(3));
  const auto run = [&](SimTime t) { bed.run_until(t); };
  const Coverage coverage = check_slices(run, bed.monitor(), bed.topology(),
                                         nullptr, pairs, seconds(3),
                                         seconds(10));
  EXPECT_EQ(coverage.checks, 3u * 7000u);
  EXPECT_GT(coverage.unchanged, 5000u);
}

TEST(UsageMemo, MatchesFreshEvaluationThroughQuarantineAndHealing) {
  exp::LirtssTestbed bed;
  const std::vector<PathKey> pairs = {{"S1", "S2"}, {"S1", "N1"}};
  for (const auto& [a, b] : pairs) bed.watch(a, b);
  bed.run_until(seconds(11));
  const auto run = [&](SimTime t) { bed.run_until(t); };

  // S2's daemon dies: three failed polls quarantine it, and its
  // connection falls back to the switch port (a plan change with no
  // sample behind it).
  agent_of(bed, "S2").set_responding(false);
  Coverage coverage = check_slices(run, bed.monitor(), bed.topology(),
                                   nullptr, pairs, seconds(11), seconds(40));
  ASSERT_TRUE(bed.monitor().plan().agent_quarantined("S2"));
  EXPECT_GT(coverage.plan_only, 0u);

  // The daemon returns; the next probe heals S2 and restores its point
  // (in the slice that ingests the probe's answer).
  agent_of(bed, "S2").set_responding(true);
  coverage = check_slices(run, bed.monitor(), bed.topology(), nullptr, pairs,
                          seconds(40), seconds(70));
  EXPECT_FALSE(bed.monitor().plan().agent_quarantined("S2"));
  EXPECT_GT(coverage.unchanged, 20000u);
}

TEST(UsageMemo, MatchesFreshEvaluationAcrossLinkDownAndUp) {
  exp::LirtssTestbed bed;
  FailureDetector detector(bed.simulator(), bed.topology(), bed.host("L"));
  bed.monitor().set_failure_detector(&detector);
  const std::vector<PathKey> pairs = {{"S1", "N1"}, {"S1", "S2"}};
  for (const auto& [a, b] : pairs) bed.watch(a, b);
  bed.run_until(seconds(9));
  const auto run = [&](SimTime t) { bed.run_until(t); };

  // The hub uplink goes down (sw0's linkDown trap reaches L), then up.
  sim::Link* uplink =
      bed.network().find_switch("sw0")->find_interface("p8")->link();
  bed.simulator().schedule_at(seconds(10), [uplink] { uplink->set_up(false); });
  bed.simulator().schedule_at(seconds(16), [uplink] { uplink->set_up(true); });
  bool saw_down = false;
  bool saw_up_again = false;
  bed.monitor().add_sample_callback(
      [&](const PathKey&, SimTime time, const PathUsage& usage) {
        if (usage.link_down) saw_down = true;
        if (saw_down && !usage.link_down && time > seconds(16)) {
          saw_up_again = true;
        }
      });
  const Coverage coverage = check_slices(
      run, bed.monitor(), bed.topology(), &detector, pairs, seconds(9),
      seconds(22));
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_up_again);
  EXPECT_GT(coverage.unchanged, 10000u);
}

TEST(UsageMemo, CoordinatorMatchesFreshEvaluationOverSharedDb) {
  // Station L (the coordinator) polls {L, N2, S2}; station S2 polls
  // {N1, S1, sw0}. Every sample the coordinator evaluates against comes
  // through the shared db, most of it from the other worker.
  exp::LirtssTestbed bed;
  DistributedMonitor dist(bed.simulator(), bed.topology(),
                          {&bed.host("L"), &bed.host("S2")});
  const std::vector<PathKey> pairs = {{"S1", "N1"}, {"L", "S2"}};
  for (const auto& [a, b] : pairs) dist.add_path(a, b);
  bed.add_load("S1", "N1",
               load::RateProfile::pulse(seconds(2), seconds(60),
                                        kilobytes_per_second(300)));
  bed.background().start();
  dist.start();
  sim::Simulator& sim = bed.simulator();
  sim.run_until(seconds(5));
  const auto run = [&](SimTime t) { sim.run_until(t); };
  const NetworkMonitor& coordinator = dist.coordinator();

  // S1's agent, polled by the other worker, goes dark: that worker's
  // quarantine reaches the coordinator's plan as an external one.
  agent_of(bed, "S1").set_responding(false);
  Coverage coverage = check_slices(run, coordinator, bed.topology(), nullptr,
                                   pairs, seconds(5), seconds(35));
  ASSERT_TRUE(coordinator.plan().agent_quarantined("S1"));
  EXPECT_GT(coverage.plan_only, 0u);
  agent_of(bed, "S1").set_responding(true);
  coverage = check_slices(run, coordinator, bed.topology(), nullptr, pairs,
                          seconds(35), seconds(60));
  EXPECT_FALSE(coordinator.plan().agent_quarantined("S1"));
  EXPECT_GT(coverage.unchanged, 10000u);
}

}  // namespace
}  // namespace netqos::mon
