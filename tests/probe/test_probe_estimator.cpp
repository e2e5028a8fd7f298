#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "experiments/lirtss.h"
#include "loadgen/profile.h"
#include "probe/registry.h"
#include "probe/sink.h"
#include "topology/model.h"
#include "topology/path.h"

namespace netqos::probe {
namespace {

/// Builds a registry estimator probing S1 -> N1 on the stock testbed
/// (bottleneck: the 10 Mbps hub segment, 1.25e6 bytes/s).
class EstimatorTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    const auto path = topo::traverse_recursive(bed_.topology(), "S1", "N1");
    ASSERT_TRUE(path.has_value());
    capacity_bits_ = std::numeric_limits<double>::infinity();
    for (const std::size_t index : *path) {
      capacity_bits_ = std::min(
          capacity_bits_,
          static_cast<double>(connection_speed(
              bed_.topology(), bed_.topology().connections()[index])));
    }
    sink_ = std::make_unique<ProbeSink>(bed_.host("N1"));
    estimator_ = make_estimator(
        GetParam(), bed_.host("S1"), bed_.host("N1").ip(),
        {"S1", "N1", static_cast<BitsPerSecond>(capacity_bits_)});
  }

  double capacity_bytes() const { return capacity_bits_ / 8.0; }

  exp::LirtssTestbed bed_;
  double capacity_bits_ = 0.0;
  std::unique_ptr<ProbeSink> sink_;
  std::unique_ptr<Estimator> estimator_;
};

TEST_P(EstimatorTest, ConvergesNearCapacityOnAQuietPath) {
  estimator_->start();
  bed_.run_until(seconds(60));
  estimator_->stop();

  const auto latest = estimator_->latest();
  ASSERT_TRUE(latest.has_value());
  // Loose band: every method must land within 25% of the idle path's
  // capacity (the monitor's own polling is the only competing traffic).
  EXPECT_NEAR(*latest, capacity_bytes(), 0.25 * capacity_bytes());
  EXPECT_EQ(estimator_->convergence(), Convergence::kConverged);
  ASSERT_TRUE(estimator_->first_estimate_at().has_value());
  EXPECT_LT(*estimator_->first_estimate_at(), seconds(15));

  const EstimatorStats& stats = estimator_->stats();
  EXPECT_GT(stats.probes_sent, 0u);
  EXPECT_GT(stats.reports_received, 0u);
  EXPECT_GT(stats.probe_wire_bytes, 0u);
  EXPECT_GT(stats.report_wire_bytes, 0u);
  EXPECT_EQ(stats.reports_malformed, 0u);
}

TEST_P(EstimatorTest, SeesThroughAKnownConstantCrossLoad) {
  // 400 KB/s CBR between the hub hosts, contending the probed path's
  // bottleneck segment once — the contention-sensing case probing
  // exists for. (Load sourced from S1 itself would serialize through
  // S1's own NIC ahead of the probes, and load from the switch side
  // crosses two serial 10 Mbps stages, which the periodic method's
  // busy-fraction counts twice by design.) Truth is ~850 KB/s. Active
  // methods are noisier than passive counters, so the band is wide —
  // but an estimator stuck at full capacity (blind to the load) or at
  // zero (swamped by it) must fail.
  bed_.add_load("N2", "N1",
                load::RateProfile::pulse(seconds(0), seconds(130),
                                         kilobytes_per_second(400)));
  estimator_->start();
  bed_.run_until(seconds(120));
  estimator_->stop();

  const auto latest = estimator_->latest();
  ASSERT_TRUE(latest.has_value());
  const double truth = capacity_bytes() - 400'000.0;
  EXPECT_NEAR(*latest, truth, 0.3 * capacity_bytes());
}

TEST_P(EstimatorTest, StopHaltsProbeInjection) {
  estimator_->start();
  bed_.run_until(seconds(20));
  estimator_->stop();
  EXPECT_FALSE(estimator_->running());
  const std::uint64_t sent = estimator_->stats().probes_sent;
  bed_.run_until(seconds(40));
  EXPECT_EQ(estimator_->stats().probes_sent, sent);
}

TEST_P(EstimatorTest, IntrusivenessIsSmallButAccounted) {
  estimator_->start();
  bed_.run_until(seconds(60));
  estimator_->stop();
  const double fraction = estimator_->intrusiveness(seconds(60));
  EXPECT_GT(fraction, 0.0);
  // No estimator may claim more than a tenth of the bottleneck.
  EXPECT_LT(fraction, 0.10);
}

INSTANTIATE_TEST_SUITE_P(
    AllEstimators, EstimatorTest,
    ::testing::ValuesIn(available_estimators()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

TEST(ProbeRegistry, KnowsExactlyTheThreeMethods) {
  const auto& names = available_estimators();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "pair");
  EXPECT_EQ(names[1], "train");
  EXPECT_EQ(names[2], "periodic");
  for (const std::string& name : names) {
    EXPECT_TRUE(is_estimator_name(name));
  }
  EXPECT_FALSE(is_estimator_name("pathchirp"));
}

TEST(ProbeRegistry, ParsesEstimatorLists) {
  EXPECT_EQ(estimator_names("all"), available_estimators());
  EXPECT_EQ(estimator_names(",train,,pair,"),
            (std::vector<std::string>{"train", "pair"}));
  EXPECT_TRUE(estimator_names("").empty());
  // Names pass through unchecked: make_estimator rejects unknown ones.
  EXPECT_EQ(estimator_names("bogus"), std::vector<std::string>{"bogus"});
}

TEST(ProbeRegistry, UnknownNameThrows) {
  exp::LirtssTestbed bed;
  EXPECT_THROW(make_estimator("pathchirp", bed.host("S1"),
                              bed.host("N1").ip(), {"S1", "N1", 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace netqos::probe
