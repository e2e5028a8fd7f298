// Per-agent poll scheduling: the health state machine, exponential
// backoff, §4.1 quarantine fallback, per-interface staleness, and
// trap-driven re-probes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "experiments/lirtss.h"
#include "monitor/failure.h"
#include "monitor/plan.h"
#include "monitor/scheduler.h"
#include "monitor/stats_db.h"
#include "netsim/link.h"
#include "snmp/deploy.h"
#include "spec/testbed.h"

namespace netqos::mon {
namespace {

SchedulerConfig base_config() {
  SchedulerConfig config;
  config.poll_interval = 2 * kSecond;
  return config;
}

TEST(PollScheduler, HealthyAgentsAlwaysDue) {
  PollScheduler sched(base_config(), {"a", "b", "c"});
  EXPECT_EQ(sched.due(0).size(), 3u);
  EXPECT_EQ(sched.due(seconds(100)).size(), 3u);
  for (const auto& agent : sched.agents()) {
    EXPECT_EQ(agent.health, AgentHealth::kHealthy);
    EXPECT_EQ(agent.phase, 0);
  }
}

TEST(PollScheduler, LaunchHoldsAgentOutUntilResolution) {
  PollScheduler sched(base_config(), {"a", "b"});
  sched.record_launch("a", seconds(10));
  // In-flight polls are never doubled up within the interval.
  EXPECT_EQ(sched.due(seconds(10)).size(), 1u);
  EXPECT_EQ(sched.due(seconds(10))[0]->node, "b");
  // Success makes the agent immediately due again.
  sched.record_result("a", true, seconds(11));
  EXPECT_EQ(sched.due(seconds(11)).size(), 2u);
  EXPECT_EQ(sched.find("a")->polls, 1u);
}

TEST(PollScheduler, BackoffGrowsExponentiallyToCap) {
  auto config = base_config();  // base 2, cap 0 = 8 * interval
  PollScheduler sched(config, {"a"});
  std::vector<SimDuration> intervals;
  SimTime now = 0;
  for (int k = 0; k < 6; ++k) {
    sched.record_result("a", false, now);
    intervals.push_back(sched.backoff_interval(*sched.find("a")));
    now = sched.find("a")->next_due;
  }
  // 2s * 2^k, capped at 16s.
  EXPECT_EQ(intervals[0], 4 * kSecond);
  EXPECT_EQ(intervals[1], 8 * kSecond);
  EXPECT_EQ(intervals[2], 16 * kSecond);
  EXPECT_EQ(intervals[3], 16 * kSecond);
  EXPECT_EQ(intervals[5], 16 * kSecond);
  EXPECT_EQ(sched.effective_cap(), 16 * kSecond);
  // The backed-off agent is not due until the interval elapses.
  EXPECT_TRUE(sched.due(now - 1).empty());
  EXPECT_EQ(sched.due(now).size(), 1u);
}

TEST(PollScheduler, RejectsConfigsItCannotRunWith) {
  const auto rejects = [](auto&& tweak) {
    SchedulerConfig config = base_config();
    tweak(config);
    EXPECT_THROW(PollScheduler(config, {"a"}), std::invalid_argument);
  };
  rejects([](SchedulerConfig& c) { c.poll_interval = 0; });
  rejects([](SchedulerConfig& c) { c.poll_interval = -kSecond; });
  rejects([](SchedulerConfig& c) { c.backoff_base = 0.5; });
  rejects([](SchedulerConfig& c) {
    c.backoff_base = std::numeric_limits<double>::quiet_NaN();
  });
  rejects([](SchedulerConfig& c) { c.backoff_cap = kSecond; });
  rejects([](SchedulerConfig& c) { c.backoff_cap = -kSecond; });
  // The boundaries are accepted: base 1 (no backoff), a cap equal to
  // the interval, and 0 for the default cap.
  SchedulerConfig config = base_config();
  config.backoff_base = 1.0;
  config.backoff_cap = config.poll_interval;
  EXPECT_NO_THROW(PollScheduler(config, {"a"}));
  config.backoff_cap = 0;
  EXPECT_NO_THROW(PollScheduler(config, {"a"}));
}

TEST(MonitorConfigChecks, RejectsIntervalsItCannotRunWith) {
  exp::LirtssTestbed bed;
  const auto rejects = [&](const MonitorConfig& config) {
    EXPECT_THROW(NetworkMonitor(bed.simulator(), bed.topology(),
                                bed.host("L"), config),
                 std::invalid_argument);
  };
  MonitorConfig zero;
  zero.poll_interval = 0;
  rejects(zero);
  MonitorConfig tiny;  // netqosmon --poll 1e-300: 0 ns after conversion
  tiny.poll_interval = from_seconds(1e-300 / 1000.0);
  rejects(tiny);
  MonitorConfig stale;
  stale.stale_after = -kSecond;
  rejects(stale);
  MonitorConfig base;  // the scheduler's own checks reach the monitor
  base.scheduler.backoff_base = 0.0;
  rejects(base);
}

TEST(PollScheduler, ExplicitCapOverridesDefault) {
  auto config = base_config();
  config.backoff_cap = 6 * kSecond;
  PollScheduler sched(config, {"a"});
  for (int k = 0; k < 4; ++k) sched.record_result("a", false, seconds(k));
  EXPECT_EQ(sched.backoff_interval(*sched.find("a")), 6 * kSecond);
}

TEST(PollScheduler, QuarantineAfterConsecutiveFailuresThenHealsOnSuccess) {
  PollScheduler sched(base_config(), {"a"});
  std::vector<std::tuple<std::string, AgentHealth, AgentHealth>> transitions;
  sched.set_transition_callback(
      [&](const std::string& node, AgentHealth from, AgentHealth to) {
        transitions.emplace_back(node, from, to);
      });

  sched.record_result("a", false, seconds(1));
  EXPECT_EQ(sched.find("a")->health, AgentHealth::kDegraded);
  sched.record_result("a", false, seconds(3));
  EXPECT_EQ(sched.find("a")->health, AgentHealth::kDegraded);
  sched.record_result("a", false, seconds(7));
  EXPECT_EQ(sched.find("a")->health, AgentHealth::kQuarantined);
  EXPECT_EQ(sched.find("a")->quarantined_at, seconds(7));
  EXPECT_EQ(sched.find("a")->quarantines, 1u);
  EXPECT_EQ(sched.find("a")->failures, 3u);

  // One success heals completely (and resets the backoff).
  sched.record_result("a", true, seconds(30));
  EXPECT_EQ(sched.find("a")->health, AgentHealth::kHealthy);
  EXPECT_EQ(sched.find("a")->consecutive_failures, 0);
  EXPECT_EQ(sched.due(seconds(30)).size(), 1u);

  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0], std::make_tuple(std::string("a"),
                                            AgentHealth::kHealthy,
                                            AgentHealth::kDegraded));
  EXPECT_EQ(transitions[1], std::make_tuple(std::string("a"),
                                            AgentHealth::kDegraded,
                                            AgentHealth::kQuarantined));
  EXPECT_EQ(transitions[2], std::make_tuple(std::string("a"),
                                            AgentHealth::kQuarantined,
                                            AgentHealth::kHealthy));
}

TEST(PollScheduler, FixedIntervalModeNeverBacksOff) {
  auto config = base_config();
  config.backoff_base = 1.0;  // the seed's lock-step behaviour
  PollScheduler sched(config, {"a"});
  for (int k = 0; k < 5; ++k) {
    sched.record_result("a", false, seconds(2 * k + 1));
    // Still due at the very next round, no matter how many failures.
    EXPECT_EQ(sched.due(seconds(2 * k + 2)).size(), 1u);
    EXPECT_EQ(sched.backoff_interval(*sched.find("a")), 2 * kSecond);
  }
  // Health still degrades: backoff and quarantine are independent.
  EXPECT_EQ(sched.find("a")->health, AgentHealth::kQuarantined);
}

TEST(PollScheduler, ReprobeMakesAgentDueButKeepsHealth) {
  PollScheduler sched(base_config(), {"a"});
  for (int k = 0; k < 3; ++k) sched.record_result("a", false, seconds(k));
  EXPECT_EQ(sched.find("a")->health, AgentHealth::kQuarantined);
  EXPECT_TRUE(sched.due(seconds(10)).empty());

  sched.request_reprobe("a", seconds(10));
  EXPECT_EQ(sched.due(seconds(10)).size(), 1u);
  // Only a successful poll heals — the trap alone proves nothing.
  EXPECT_EQ(sched.find("a")->health, AgentHealth::kQuarantined);
}

TEST(PollScheduler, StaggerSpacesLaunchPhases) {
  auto config = base_config();
  config.stagger = 250 * kMillisecond;
  PollScheduler sched(config, {"a", "b", "c"});
  EXPECT_EQ(sched.find("a")->phase, 0);
  EXPECT_EQ(sched.find("b")->phase, 250 * kMillisecond);
  EXPECT_EQ(sched.find("c")->phase, 500 * kMillisecond);
}

TEST(PollScheduler, JitterIsDeterministicPerSeedAndZeroWhenDisabled) {
  auto config = base_config();
  EXPECT_EQ(PollScheduler(config, {"a"}).draw_jitter(), 0);

  config.launch_jitter = 100 * kMillisecond;
  PollScheduler first(config, {"a"});
  PollScheduler second(config, {"a"});
  bool any_nonzero = false;
  for (int i = 0; i < 32; ++i) {
    const SimDuration draw = first.draw_jitter();
    EXPECT_EQ(draw, second.draw_jitter());
    EXPECT_GE(draw, 0);
    EXPECT_LT(draw, 100 * kMillisecond);
    if (draw > 0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
}

// --- §4.1 quarantine fallback in the poll plan ---------------------------

std::size_t find_connection(const topo::NetworkTopology& topo,
                            const std::string& a, const std::string& b) {
  const auto& conns = topo.connections();
  for (std::size_t i = 0; i < conns.size(); ++i) {
    if ((conns[i].a.node == a && conns[i].b.node == b) ||
        (conns[i].a.node == b && conns[i].b.node == a)) {
      return i;
    }
  }
  ADD_FAILURE() << "no connection " << a << " <-> " << b;
  return 0;
}

TEST(PollPlanQuarantine, SwitchAttachedHostFallsBackToSwitchPort) {
  const auto specfile = spec::lirtss_testbed();
  PollPlan plan = PollPlan::build(specfile.topology);
  const std::size_t conn = find_connection(specfile.topology, "S2", "sw0");

  ASSERT_TRUE(plan.measurement_for(conn).has_value());
  EXPECT_EQ(plan.measurement_for(conn)->node, "S2");
  EXPECT_FALSE(plan.measurement_for(conn)->via_switch);
  ASSERT_TRUE(plan.switch_fallback_for(conn).has_value());
  EXPECT_EQ(plan.switch_fallback_for(conn)->node, "sw0");

  const auto changed = plan.set_agent_quarantined("S2", true);
  EXPECT_NE(std::find(changed.begin(), changed.end(), conn), changed.end());
  EXPECT_TRUE(plan.agent_quarantined("S2"));
  EXPECT_EQ(plan.measurement_for(conn)->node, "sw0");
  EXPECT_TRUE(plan.measurement_for(conn)->via_switch);
  // The build-time choice is preserved for when the agent heals.
  EXPECT_EQ(plan.primary_measurement_for(conn)->node, "S2");

  const auto restored = plan.set_agent_quarantined("S2", false);
  EXPECT_NE(std::find(restored.begin(), restored.end(), conn),
            restored.end());
  EXPECT_EQ(plan.measurement_for(conn)->node, "S2");
  EXPECT_FALSE(plan.measurement_for(conn)->via_switch);
}

TEST(PollPlanQuarantine, HubAttachedHostHasNoSwitchFallback) {
  const auto specfile = spec::lirtss_testbed();
  PollPlan plan = PollPlan::build(specfile.topology);
  const std::size_t conn = find_connection(specfile.topology, "N1", "hub0");

  ASSERT_TRUE(plan.measurement_for(conn).has_value());
  EXPECT_EQ(plan.measurement_for(conn)->node, "N1");
  EXPECT_FALSE(plan.switch_fallback_for(conn).has_value());

  // Quarantining N1 cannot redirect anywhere: the effective point stays
  // the (stale but honest) host agent, and nothing reports as changed.
  const auto changed = plan.set_agent_quarantined("N1", true);
  EXPECT_TRUE(changed.empty());
  EXPECT_EQ(plan.measurement_for(conn)->node, "N1");
  EXPECT_FALSE(plan.measurement_for(conn)->via_switch);
}

TEST(PollPlanQuarantine, QuarantinedFallbackAgentKeepsPrimary) {
  const auto specfile = spec::lirtss_testbed();
  PollPlan plan = PollPlan::build(specfile.topology);
  const std::size_t conn = find_connection(specfile.topology, "S2", "sw0");

  // With the switch itself quarantined too, there is no healthy fallback:
  // stay on the primary rather than redirect to another dark agent.
  plan.set_agent_quarantined("sw0", true);
  const auto changed = plan.set_agent_quarantined("S2", true);
  EXPECT_TRUE(changed.empty());
  EXPECT_EQ(plan.measurement_for(conn)->node, "S2");

  // Switch heals while S2 is still dark: now the fallback engages.
  const auto engaged = plan.set_agent_quarantined("sw0", false);
  EXPECT_NE(std::find(engaged.begin(), engaged.end(), conn), engaged.end());
  EXPECT_EQ(plan.measurement_for(conn)->node, "sw0");
}

// --- per-interface staleness in the StatsDb ------------------------------

TEST(StatsDbAge, PerInterfaceAgeIsNotDbGlobal) {
  // The testbed's plan gives each host interface its own point id.
  const spec::SpecFile specfile = spec::lirtss_testbed();
  const PollPlan plan = PollPlan::build(specfile.topology);
  const auto slow = plan.find_point("S2", "hme0");
  const auto fast = plan.find_point("S1", "hme0");
  const auto unpolled = plan.find_point("sw0", "p4");  // S3's port
  ASSERT_TRUE(slow.has_value() && fast.has_value() && unpolled.has_value());
  StatsDb db;
  CounterSample sample;
  sample.sys_uptime_ticks = 100;
  db.update(plan.point(*slow), seconds(1), sample);
  sample.sys_uptime_ticks = 900;
  db.update(plan.point(*fast), seconds(9), sample);

  // At t=10 s the most recently polled interface is 1 second old, but
  // the other is 9: each interface keeps its own clock.
  ASSERT_TRUE(db.last_update(*slow).has_value());
  EXPECT_EQ(*db.last_update(*slow), seconds(1));
  EXPECT_EQ(*db.last_update(*fast), seconds(9));
  EXPECT_EQ(*db.sample_age(*slow, seconds(10)), 9 * kSecond);
  EXPECT_EQ(*db.sample_age(*fast, seconds(10)), 1 * kSecond);

  // Unknown interfaces have no age at all.
  EXPECT_FALSE(db.last_update(*unpolled).has_value());
  EXPECT_FALSE(db.sample_age(*unpolled, seconds(10)).has_value());
}

// --- end-to-end: dark agent, fallback, staleness, recovery ---------------

snmp::SnmpAgent& agent_of(exp::LirtssTestbed& bed, const std::string& node) {
  snmp::DeployedAgent* deployed = snmp::find_agent(bed.agents(), node);
  EXPECT_NE(deployed, nullptr);
  return *deployed->agent;
}

TEST(SchedulerIntegration, DarkAgentQuarantinedFallsBackAndRecovers) {
  exp::LirtssTestbed bed;
  bed.watch("S1", "S2");
  bed.run_until(seconds(11));
  EXPECT_EQ(bed.monitor().scheduler().find("S2")->health,
            AgentHealth::kHealthy);
  EXPECT_EQ(bed.monitor().current_usage("S1", "S2").freshness,
            Freshness::kFresh);

  // The SNMP daemon on S2 dies (host keeps forwarding traffic).
  agent_of(bed, "S2").set_responding(false);

  // Before quarantine flips the measure point, the path's S2 samples age
  // past the bound: reported stale, never silently fresh.
  bed.run_until(from_seconds(16.5));
  const PathUsage aging = bed.monitor().current_usage("S1", "S2");
  EXPECT_EQ(aging.freshness, Freshness::kStale);
  EXPECT_GT(aging.max_sample_age, bed.monitor().effective_stale_after());

  // Three consecutive failures quarantine S2 and redirect its connection
  // to the switch port (§4.1); via the fallback the path is fresh again.
  bed.run_until(seconds(60));
  EXPECT_EQ(bed.monitor().scheduler().find("S2")->health,
            AgentHealth::kQuarantined);
  EXPECT_TRUE(bed.monitor().plan().agent_quarantined("S2"));
  EXPECT_GT(bed.monitor().stats().quarantine_transitions, 0u);
  EXPECT_GT(bed.monitor().stats().polls_skipped, 0u);
  const PathUsage fallen_back = bed.monitor().current_usage("S1", "S2");
  EXPECT_EQ(fallen_back.freshness, Freshness::kFresh);
  bool via_switch = false;
  for (const auto& usage : fallen_back.connections) {
    via_switch = via_switch || usage.via_switch;
  }
  EXPECT_TRUE(via_switch);

  // Backoff keeps probing at the cap; the daemon comes back and the next
  // probe heals the agent and restores the host-side measure point.
  agent_of(bed, "S2").set_responding(true);
  bed.run_until(seconds(120));
  EXPECT_EQ(bed.monitor().scheduler().find("S2")->health,
            AgentHealth::kHealthy);
  EXPECT_FALSE(bed.monitor().plan().agent_quarantined("S2"));
  const PathUsage healed = bed.monitor().current_usage("S1", "S2");
  EXPECT_EQ(healed.freshness, Freshness::kFresh);
  for (const auto& usage : healed.connections) {
    EXPECT_FALSE(usage.via_switch);
  }
}

TEST(SchedulerIntegration, LinkUpTrapTriggersImmediateReprobe) {
  exp::LirtssTestbed bed;
  bed.watch("S1", "S2");
  FailureDetector detector(bed.simulator(), bed.topology(), bed.host("L"));
  bed.monitor().set_failure_detector(&detector);
  bed.run_until(seconds(10));

  sim::Link* link = bed.host("S2").find_interface("hme0")->link();
  link->set_up(false);
  // Run until the last capped-backoff probe has failed, leaving the next
  // probe a full cap (16s) away.
  bed.run_until(seconds(46));
  ASSERT_EQ(bed.monitor().scheduler().find("S2")->health,
            AgentHealth::kQuarantined);
  const SimTime next_due = bed.monitor().scheduler().find("S2")->next_due;
  EXPECT_GT(next_due, seconds(55));

  // linkUp trap (from the switch port and from S2 itself) clears the
  // backoff: the agent is re-probed and healed long before next_due.
  link->set_up(true);
  bed.run_until(seconds(49));
  EXPECT_EQ(bed.monitor().scheduler().find("S2")->health,
            AgentHealth::kHealthy);
}

TEST(SchedulerIntegration, StaggeredLaunchesStillMeasure) {
  exp::LirtssTestbed bed;
  MonitorConfig config;
  config.poll_interval = 2 * kSecond;
  config.scheduler.stagger = 200 * kMillisecond;
  config.scheduler.launch_jitter = 50 * kMillisecond;
  NetworkMonitor monitor(bed.simulator(), bed.topology(), bed.host("L"),
                         config);
  monitor.add_path("S1", "S2");
  monitor.start();
  bed.simulator().run_until(seconds(30));
  monitor.stop();

  EXPECT_GT(monitor.stats().rounds_completed, 10u);
  EXPECT_EQ(monitor.stats().agent_poll_failures, 0u);
  for (const auto& agent : monitor.scheduler().agents()) {
    EXPECT_EQ(agent.health, AgentHealth::kHealthy);
  }
  const PathUsage usage = monitor.current_usage("S1", "S2");
  EXPECT_TRUE(usage.complete);
  EXPECT_EQ(usage.freshness, Freshness::kFresh);
}

}  // namespace
}  // namespace netqos::mon
