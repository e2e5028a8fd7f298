#include "monitor/counter_math.h"

#include <gtest/gtest.h>

#include "monitor/stats_db.h"
#include "obs/metrics.h"

namespace netqos::mon {
namespace {

TEST(Counter32Delta, SimpleDifference) {
  EXPECT_EQ(counter32_delta(100, 250), 150u);
  EXPECT_EQ(counter32_delta(0, 0), 0u);
}

TEST(Counter32Delta, WrapsCorrectly) {
  // The paper polls Counter32 objects that wrap at 2^32; at 100 Mbps a
  // counter wraps in under six minutes, so this path is routine.
  EXPECT_EQ(counter32_delta(0xfffffff0u, 0x10u), 0x20u);
  EXPECT_EQ(counter32_delta(0xffffffffu, 0x0u), 1u);
}

TEST(TimeTicksDelta, WrapsCorrectly) {
  EXPECT_EQ(timeticks_delta(0xffffff00u, 0x100u), 0x200u);
}

TEST(ComputeRates, BasicRates) {
  CounterSample older{/*ticks=*/0, /*in=*/0, /*out=*/0, 0, 0};
  CounterSample newer{/*ticks=*/200, /*in=*/2000, /*out=*/1000, 20, 10};
  const auto rates = compute_rates(older, newer);
  ASSERT_TRUE(rates.has_value());
  EXPECT_DOUBLE_EQ(rates->interval_seconds, 2.0);
  EXPECT_DOUBLE_EQ(rates->in_rate, 1000.0);
  EXPECT_DOUBLE_EQ(rates->out_rate, 500.0);
  EXPECT_DOUBLE_EQ(rates->in_packet_rate, 10.0);
  EXPECT_DOUBLE_EQ(rates->out_packet_rate, 5.0);
  EXPECT_DOUBLE_EQ(rates->total_rate(), 1500.0);
}

TEST(ComputeRates, ZeroUptimeDeltaRejected) {
  CounterSample s{100, 50, 50, 5, 5};
  CounterSample same_time{100, 90, 90, 9, 9};
  EXPECT_FALSE(compute_rates(s, same_time).has_value());
}

TEST(ComputeRates, CounterWrapDuringInterval) {
  CounterSample older{0, 0xffffff00u, 0, 0, 0};
  CounterSample newer{100, 0x100u, 0, 0, 0};
  const auto rates = compute_rates(older, newer);
  ASSERT_TRUE(rates.has_value());
  EXPECT_DOUBLE_EQ(rates->in_rate, 512.0);  // 0x200 bytes over 1 s
}

TEST(ComputeRates, UptimeWrapDuringInterval) {
  CounterSample older{0xffffffceu, 0, 0, 0, 0};  // 50 ticks before wrap
  CounterSample newer{50, 1000, 0, 0, 0};        // 50 ticks after wrap
  const auto rates = compute_rates(older, newer);
  ASSERT_TRUE(rates.has_value());
  EXPECT_DOUBLE_EQ(rates->interval_seconds, 1.0);
  EXPECT_DOUBLE_EQ(rates->in_rate, 1000.0);
}

TEST(StatsDbWrap, WrapProducesOneCorrectedSampleInHistory) {
  // Regression for the history store: a Counter32 wrap between polls must
  // land in the store as the modular-corrected rate (0x200 bytes over
  // 1 s = 512 B/s), never as a ~4 GB/s spike — neither in the raw ring
  // nor in any downsampled bucket.
  obs::MetricsRegistry registry;
  hist::RetentionPolicy policy;
  policy.raw_capacity = 16;
  policy.tiers = {{2 * kSecond, 8}};
  StatsDb db(policy);
  db.attach_metrics(registry);
  const MeasurePoint point{.node = "hub0", .interface = "eth0", .id = 0};

  CounterSample before{/*ticks=*/0, /*in=*/0xffffff00u, /*out=*/0, 0, 0};
  CounterSample after{/*ticks=*/100, /*in=*/0x100u, /*out=*/0, 0, 0};
  db.update(point, seconds(0), before);
  db.update(point, seconds(1), after);

  EXPECT_DOUBLE_EQ(
      registry.counter("netqos_statsdb_counter_wraps_total", "").value(),
      1.0);

  const hist::Series* series =
      db.history().find(hist::interface_series_key("hub0", "eth0"));
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->raw().size(), 1u);
  EXPECT_DOUBLE_EQ(series->raw().newest().last, 512.0);
  // Every retained bucket, downsampled tiers included, stays at the
  // corrected rate.
  for (const hist::RingTier& tier : series->tiers()) {
    for (std::size_t i = 0; i < tier.size(); ++i) {
      EXPECT_DOUBLE_EQ(tier.at(i).max, 512.0);
    }
  }
  const hist::WindowSummary window = db.history().query(
      hist::interface_series_key("hub0", "eth0"), 0, seconds(10));
  EXPECT_EQ(window.samples, 1u);
  EXPECT_DOUBLE_EQ(window.max, 512.0);
}

TEST(ComputeRates, SubSecondInterval) {
  CounterSample older{0, 0, 0, 0, 0};
  CounterSample newer{10, 100, 0, 0, 0};  // 0.1 s
  const auto rates = compute_rates(older, newer);
  ASSERT_TRUE(rates.has_value());
  EXPECT_DOUBLE_EQ(rates->in_rate, 1000.0);
}

}  // namespace
}  // namespace netqos::mon
