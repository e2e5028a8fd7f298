#include "apps/application.h"

#include <gtest/gtest.h>

#include "experiments/lirtss.h"
#include "monitor/qos.h"
#include "netsim/link.h"

namespace netqos::apps {
namespace {

StreamSpec track_stream(SimDuration period = 50 * kMillisecond,
                        SimDuration deadline = 50 * kMillisecond) {
  StreamSpec spec;
  spec.name = "track";
  spec.producer = "sensor";
  spec.consumer = "tracker";
  spec.period = period;
  spec.message_bytes = 1024;
  spec.deadline = deadline;
  return spec;
}

TEST(ApplicationGroup, StreamsDeliverOnTime) {
  exp::LirtssTestbed bed;
  ApplicationGroup group(bed.simulator());
  group.deploy("sensor", bed.host("S1"));
  group.deploy("tracker", bed.host("S2"));
  group.add_stream(track_stream());
  bed.run_until(seconds(10));
  group.stop();
  bed.run_until(seconds(11));  // drain the last in-flight message

  const StreamStats& stats = group.stream_stats("track");
  EXPECT_NEAR(static_cast<double>(stats.messages_sent), 199.0, 2.0);
  EXPECT_EQ(stats.messages_received, stats.messages_sent);
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_EQ(stats.loss_fraction(), 0.0);
  // Switched path: sub-millisecond latencies.
  EXPECT_LT(stats.latency.percentile(0.99), 0.001);
}

TEST(ApplicationGroup, CongestionCausesDeadlineMisses) {
  exp::LirtssTestbed bed;
  ApplicationGroup group(bed.simulator());
  group.deploy("sensor", bed.host("S1"));
  group.deploy("tracker", bed.host("N1"));  // across the hub
  group.add_stream(track_stream());
  // Overload the hub.
  bed.add_load("L", "N2",
               load::RateProfile::pulse(seconds(2), seconds(20),
                                        kilobytes_per_second(1300)));
  bed.run_until(seconds(20));
  group.stop();

  const StreamStats& stats = group.stream_stats("track");
  EXPECT_GT(stats.deadline_misses, 20u);
}

TEST(ApplicationGroup, RelocationMovesTraffic) {
  exp::LirtssTestbed bed;
  ApplicationGroup group(bed.simulator());
  group.deploy("sensor", bed.host("S1"));
  group.deploy("tracker", bed.host("N1"));
  group.add_stream(track_stream());
  bed.run_until(seconds(5));
  EXPECT_EQ(group.find("tracker")->host_name(), "N1");

  group.relocate("tracker", bed.host("S2"));
  EXPECT_EQ(group.find("tracker")->host_name(), "S2");
  const auto received_at_move =
      group.stream_stats("track").messages_received;
  bed.run_until(seconds(10));
  group.stop();

  // Messages keep flowing to the new location.
  EXPECT_GT(group.stream_stats("track").messages_received,
            received_at_move + 80);
  // The hub segment no longer carries stream traffic: N1's NIC counters
  // stop growing (modulo background).
  EXPECT_EQ(group.stream_stats("track").deadline_misses, 0u);
}

TEST(ApplicationGroup, RelocateToSameHostIsNoop) {
  exp::LirtssTestbed bed;
  ApplicationGroup group(bed.simulator());
  group.deploy("a", bed.host("S1"));
  group.relocate("a", bed.host("S1"));
  EXPECT_EQ(group.find("a")->host_name(), "S1");
}

TEST(ApplicationGroup, DuplicateNameRejected) {
  exp::LirtssTestbed bed;
  ApplicationGroup group(bed.simulator());
  group.deploy("a", bed.host("S1"));
  EXPECT_THROW(group.deploy("a", bed.host("S2")), std::invalid_argument);
}

TEST(ApplicationGroup, StreamValidation) {
  exp::LirtssTestbed bed;
  ApplicationGroup group(bed.simulator());
  group.deploy("sensor", bed.host("S1"));
  StreamSpec spec = track_stream();
  EXPECT_THROW(group.add_stream(spec), std::invalid_argument);  // no tracker
  group.deploy("tracker", bed.host("S2"));
  spec.period = 0;
  EXPECT_THROW(group.add_stream(spec), std::invalid_argument);
}

TEST(ApplicationGroup, UnknownLookupsThrow) {
  exp::LirtssTestbed bed;
  ApplicationGroup group(bed.simulator());
  EXPECT_EQ(group.find("ghost"), nullptr);
  EXPECT_THROW(group.stream_stats("ghost"), std::out_of_range);
  EXPECT_THROW(group.relocate("ghost", bed.host("S1")),
               std::invalid_argument);
}

TEST(ApplicationGroup, MessagesLostDuringOutageAreCounted) {
  exp::LirtssTestbed bed;
  ApplicationGroup group(bed.simulator());
  group.deploy("sensor", bed.host("S1"));
  group.deploy("tracker", bed.host("S2"));
  group.add_stream(track_stream());
  bed.run_until(seconds(5));
  bed.host("S2").find_interface("hme0")->link()->set_up(false);
  bed.run_until(seconds(10));
  bed.host("S2").find_interface("hme0")->link()->set_up(true);
  bed.run_until(seconds(15));
  group.stop();

  const StreamStats& stats = group.stream_stats("track");
  // ~5 s of messages at 20/s died on the downed link.
  EXPECT_GT(stats.loss_fraction(), 0.25);
  EXPECT_LT(stats.loss_fraction(), 0.45);
}

TEST(ApplicationGroup, ClosedLoopRecoversDeadlines) {
  // The full DeSiDeRaTa loop: congestion on the hub raises a QoS
  // violation, and the callback relocates the tracker to a switched host.
  exp::LirtssTestbed bed;
  ApplicationGroup group(bed.simulator());
  group.deploy("sensor", bed.host("S1"));
  group.deploy("tracker", bed.host("N1"));
  group.add_stream(track_stream());

  mon::ViolationDetector detector(bed.monitor());
  detector.add_requirement("S1", "N1", kilobytes_per_second(400));
  bool relocated = false;
  detector.add_event_callback([&](const mon::QosEvent& event) {
    if (event.kind == mon::QosEvent::Kind::kViolation && !relocated) {
      relocated = true;
      group.relocate("tracker", bed.host("S2"));
    }
  });
  bed.add_load("L", "N2",
               load::RateProfile::pulse(seconds(10), seconds(60),
                                        kilobytes_per_second(1300)));
  bed.run_until(seconds(60));
  group.stop();

  EXPECT_TRUE(relocated);
  const StreamStats& stats = group.stream_stats("track");
  EXPECT_GT(stats.deadline_misses, 0u);  // suffered before the move
  // After the move (~15 s in), latencies are switched-path small again:
  // the last 30 s must be clean.
  int late_in_tail = 0;
  for (const auto& p : stats.latency.points()) {
    if (p.time >= seconds(30) && p.value > 0.050) ++late_in_tail;
  }
  EXPECT_EQ(late_in_tail, 0);
}

}  // namespace
}  // namespace netqos::apps
