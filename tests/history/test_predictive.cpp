#include <gtest/gtest.h>

#include "experiments/lirtss.h"
#include "monitor/qos.h"
#include "rm/manager.h"

namespace netqos::mon {
namespace {

// The Fig. 3 testbed's spec requirement: S1<->N1 needs 500 KB/s available
// on the 1.25 MB/s hub segment.
constexpr double kRequiredKBps = 500.0;

TEST(PredictiveDetector, WarnsBeforeReactiveViolationOnRamp) {
  exp::LirtssTestbed bed;
  ViolationDetector reactive(bed.monitor());
  reactive.add_requirement("S1", "N1", kilobytes_per_second(kRequiredKBps));
  PredictiveDetector predictive(bed.monitor());
  predictive.add_requirement("S1", "N1",
                             kilobytes_per_second(kRequiredKBps));

  // Fig. 4a-style staircase climbing through the requirement: 200 KB/s,
  // +50 KB/s every 4 s up to 900 KB/s. Available bandwidth falls ~12.5
  // KB/s per second, so the 10 s-horizon forecast crosses the 500 KB/s
  // requirement several poll periods before the measured value does.
  bed.add_load("L", "N1",
               load::RateProfile::staircase(
                   kilobytes_per_second(200), seconds(4),
                   kilobytes_per_second(50), seconds(4), 15, seconds(90)));
  bed.run_until(seconds(90));

  ASSERT_GE(predictive.warning_count(), 1u);
  const PredictiveEvent& warning = predictive.events().front();
  EXPECT_EQ(warning.kind, PredictiveEvent::Kind::kEarlyWarning);
  EXPECT_GE(warning.available, kilobytes_per_second(kRequiredKBps));
  EXPECT_LT(warning.forecast, kilobytes_per_second(kRequiredKBps));

  // The reactive detector must also fire (the ramp really violates), and
  // the warning must lead it by at least one poll period — the paper's
  // poll interval is 2 s on this testbed.
  ASSERT_FALSE(reactive.events().empty());
  const QosEvent& violation = reactive.events().front();
  EXPECT_EQ(violation.kind, QosEvent::Kind::kViolation);
  EXPECT_LE(warning.time + 2 * kSecond, violation.time);
}

TEST(PredictiveDetector, NoFalseWarningsOnSteadyLoad) {
  exp::LirtssTestbed bed;
  PredictiveDetector predictive(bed.monitor());
  predictive.add_requirement("S1", "N1",
                             kilobytes_per_second(kRequiredKBps));
  // Steady 400 KB/s leaves ~830 KB/s available: comfortably above the
  // requirement, trend ~0. Zero warnings is the acceptance criterion.
  bed.add_load("L", "N1",
               load::RateProfile::pulse(seconds(5), seconds(80),
                                        kilobytes_per_second(400)));
  bed.run_until(seconds(80));
  EXPECT_EQ(predictive.warning_count(), 0u);
  EXPECT_TRUE(predictive.events().empty());
}

TEST(PredictiveDetector, StaircaseWarningLeadsViolationBySixteenSeconds) {
  // EXPERIMENTS.md's lead-time row: both of the spec's requirements on
  // both detectors, and a staircase into the hub that crosses S1<->N1's
  // 500 KB/s on its 800 KB/s step.
  exp::LirtssTestbed bed;
  ViolationDetector reactive(bed.monitor());
  PredictiveDetector predictive(bed.monitor());
  for (const auto& req : bed.specfile().qos) {
    const BytesPerSecond required = to_bytes_per_second(req.min_available_bps);
    reactive.add_requirement(req.from, req.to, required);
    predictive.add_requirement(req.from, req.to, required);
  }
  load::RateProfile profile;
  profile.add_step(seconds(10), kilobytes_per_second(200));
  profile.add_step(seconds(30), kilobytes_per_second(500));
  profile.add_step(seconds(50), kilobytes_per_second(800));
  profile.add_step(seconds(70), kilobytes_per_second(1000));
  profile.add_step(seconds(90), 0.0);
  bed.add_load("L", "N1", profile);
  bed.run_until(seconds(120));

  // Rounds run every 2 s from just after the ifTable walks, so the
  // round starting within 0.1 s of t names the poll.
  ASSERT_FALSE(predictive.events().empty());
  const PredictiveEvent& warning = predictive.events().front();
  EXPECT_EQ(warning.kind, PredictiveEvent::Kind::kEarlyWarning);
  EXPECT_EQ(warning.path, PathKey("S1", "N1"));
  EXPECT_NEAR(to_seconds(warning.time), 38.0, 0.1);
  ASSERT_FALSE(reactive.events().empty());
  const QosEvent& violation = reactive.events().front();
  EXPECT_EQ(violation.kind, QosEvent::Kind::kViolation);
  EXPECT_EQ(violation.path, PathKey("S1", "N1"));
  EXPECT_NEAR(to_seconds(violation.time), 54.0, 0.1);
  EXPECT_EQ(violation.time - warning.time, 16 * kSecond);  // 8 polls
}

// ------------------------------------------------------------------
// Golden tests: synthetic step/ramp/steady series driven through the
// same observe() entry point the monitor callback uses, with the 2 s
// poll cadence. Deterministic by construction — no simulator noise.

class PredictiveGolden : public ::testing::Test {
 protected:
  exp::LirtssTestbed bed_;
  PredictiveDetector predictive_{bed_.monitor()};
  PathKey key_{"S1", "N1"};

  void SetUp() override {
    predictive_.add_requirement("S1", "N1",
                                kilobytes_per_second(kRequiredKBps));
  }

  void feed(SimTime t, double kbps) {
    predictive_.observe(key_, t, kilobytes_per_second(kbps));
  }
};

TEST_F(PredictiveGolden, SteadySeriesEmitsNothing) {
  for (int i = 0; i < 60; ++i) feed(seconds(2 * i), 830.0);
  EXPECT_TRUE(predictive_.events().empty());
}

TEST_F(PredictiveGolden, StepDownAboveRequirementEmitsNothing) {
  // 1240 KB/s idle, sharp step to 830 at t=10: the transient negative
  // trend must decay without surviving the confirm window — a step that
  // lands above the requirement is not an approaching violation.
  int i = 0;
  for (; i < 5; ++i) feed(seconds(2 * i), 1240.0);
  for (; i < 60; ++i) feed(seconds(2 * i), 830.0);
  EXPECT_TRUE(predictive_.events().empty());
}

TEST_F(PredictiveGolden, RampWarnsAtLeastOnePollPeriodBeforeCrossing) {
  // Available falls 12.5 KB/s per second from 1040; it crosses the
  // 500 KB/s requirement at t = 2*((1040-500)/25) + 20 polls offset...
  // tracked explicitly below.
  SimTime crossing_time = -1;
  SimTime warning_time = -1;
  for (int i = 0; i < 60; ++i) {
    const SimTime t = seconds(2 * i);
    const double v = i < 10 ? 1040.0 : 1040.0 - 25.0 * (i - 10);
    if (v < kRequiredKBps && crossing_time < 0) crossing_time = t;
    feed(t, v);
    if (warning_time < 0 && predictive_.warning_count() > 0) {
      warning_time = t;
    }
  }
  ASSERT_GE(crossing_time, 0);
  ASSERT_GE(warning_time, 0);
  // The warning leads the actual crossing by >= one 2 s poll period.
  EXPECT_LE(warning_time + 2 * kSecond, crossing_time);
}

TEST_F(PredictiveGolden, AllClearWhenTrendFlattensAboveRequirement) {
  // Decline toward the requirement, then plateau at 580 KB/s (above the
  // 550 KB/s clear margin): a warning raised during the descent must be
  // followed by an all-clear, and no violation ever happens.
  int i = 0;
  for (; i < 5; ++i) feed(seconds(2 * i), 1040.0);
  for (; i < 14; ++i) feed(seconds(2 * i), 1040.0 - 50.0 * (i - 4));
  for (; i < 60; ++i) feed(seconds(2 * i), 580.0);

  ASSERT_GE(predictive_.warning_count(), 1u);
  EXPECT_FALSE(predictive_.warning_active("S1", "N1"));
  bool saw_all_clear = false;
  for (const PredictiveEvent& event : predictive_.events()) {
    if (event.kind == PredictiveEvent::Kind::kAllClear) saw_all_clear = true;
  }
  EXPECT_TRUE(saw_all_clear);
}

TEST(PredictiveDetector, FeedsProactiveRecommendationsToRm) {
  exp::LirtssTestbed bed;
  ViolationDetector reactive(bed.monitor());
  reactive.add_requirement("S1", "N1", kilobytes_per_second(kRequiredKBps));
  PredictiveDetector predictive(bed.monitor());
  predictive.add_requirement("S1", "N1",
                             kilobytes_per_second(kRequiredKBps));
  rm::ResourceManager manager(bed.monitor(), reactive);
  manager.attach_predictive(predictive);

  bed.add_load("L", "N1",
               load::RateProfile::staircase(
                   kilobytes_per_second(200), seconds(4),
                   kilobytes_per_second(50), seconds(4), 15, seconds(90)));
  bed.run_until(seconds(90));

  ASSERT_GE(manager.proactive_recommendations(), 1u);
  // The first recommendation is the proactive one: it predates the
  // reactive violation's reallocation advice.
  const rm::Recommendation& first = manager.recommendations().front();
  EXPECT_EQ(first.action.rfind("proactive:", 0), 0u);
  EXPECT_GE(manager.recommendations().size(),
            manager.proactive_recommendations());
}

TEST(PredictiveDetector, AddRequirementRegistersPathIfMissing) {
  exp::LirtssTestbed bed;
  PredictiveDetector predictive(bed.monitor());
  predictive.add_requirement("S2", "N2", kilobytes_per_second(100));
  EXPECT_NO_THROW(bed.monitor().path_of("S2", "N2"));
}

}  // namespace
}  // namespace netqos::mon
