#include <gtest/gtest.h>

#include "experiments/lirtss.h"
#include "history/store.h"

namespace netqos::mon {
namespace {

TEST(MonitorHistory, StoreMemoryIsDurationInvariant) {
  // Two identical testbeds differing only in how long they run: the
  // history stores (path-level and the StatsDb's per-interface one) must
  // end with identical capacity and footprint — the bounded-memory
  // guarantee the subsystem exists for.
  std::size_t footprints[2];
  std::size_t db_footprints[2];
  std::size_t series_counts[2];
  const SimTime durations[2] = {seconds(30), seconds(90)};
  for (int run = 0; run < 2; ++run) {
    exp::LirtssTestbed bed;
    bed.watch("S1", "N1");
    bed.add_load("L", "N1",
                 load::RateProfile::pulse(seconds(5), durations[run],
                                          kilobytes_per_second(300)));
    bed.run_until(durations[run]);
    footprints[run] = bed.monitor().history().footprint_bytes();
    db_footprints[run] = bed.monitor().stats_db().history().footprint_bytes();
    series_counts[run] = bed.monitor().history().series_count();
  }
  EXPECT_GT(footprints[0], 0u);
  EXPECT_EQ(footprints[0], footprints[1]);
  EXPECT_GT(db_footprints[0], 0u);
  EXPECT_EQ(db_footprints[0], db_footprints[1]);
  EXPECT_EQ(series_counts[0], series_counts[1]);
}

TEST(MonitorHistory, StoreBackedSeriesMatchesCallbackSamples) {
  exp::LirtssTestbed bed;
  bed.watch("S1", "N1");
  TimeSeries observed_used;
  TimeSeries observed_avail;
  bed.monitor().add_sample_callback(
      [&](const PathKey&, SimTime time, const PathUsage& usage) {
        if (!usage.complete) return;
        observed_used.add(time, usage.used_at_bottleneck);
        observed_avail.add(time, usage.available);
      });
  bed.add_load("L", "N1",
               load::RateProfile::pulse(seconds(5), seconds(40),
                                        kilobytes_per_second(250)));
  bed.run_until(seconds(40));

  const TimeSeries& used = bed.monitor().used_series("S1", "N1");
  const TimeSeries& avail = bed.monitor().available_series("S1", "N1");
  ASSERT_EQ(used.size(), observed_used.size());
  ASSERT_EQ(avail.size(), observed_avail.size());
  for (std::size_t i = 0; i < used.size(); ++i) {
    EXPECT_EQ(used.points()[i].time, observed_used.points()[i].time);
    EXPECT_DOUBLE_EQ(used.points()[i].value,
                     observed_used.points()[i].value);
    EXPECT_DOUBLE_EQ(avail.points()[i].value,
                     observed_avail.points()[i].value);
  }
}

TEST(MonitorHistory, WindowedQueryOverPathSeries) {
  exp::LirtssTestbed bed;
  bed.watch("S1", "N1");
  bed.add_load("L", "N1",
               load::RateProfile::pulse(seconds(5), seconds(60),
                                        kilobytes_per_second(400)));
  bed.run_until(seconds(60));

  const auto key = hist::path_series_key("S1", "N1", "avail");
  const hist::WindowSummary last30 =
      bed.monitor().history().query(key, seconds(30), seconds(60));
  ASSERT_GT(last30.samples, 0u);
  EXPECT_TRUE(last30.complete);
  EXPECT_EQ(last30.resolution, 0);  // raw precision for a recent window
  EXPECT_LE(last30.min, last30.mean);
  EXPECT_LE(last30.mean, last30.max);
  EXPECT_GE(last30.p95, last30.min);
  EXPECT_LE(last30.p95, last30.max);

  // The windowed answer agrees with brute force over the materialized
  // raw series.
  const RunningStats expected =
      bed.monitor()
          .available_series("S1", "N1")
          .stats_between(seconds(30), seconds(60));
  EXPECT_EQ(last30.samples, expected.count());
  EXPECT_DOUBLE_EQ(last30.mean, expected.mean());
  EXPECT_DOUBLE_EQ(last30.min, expected.min());
  EXPECT_DOUBLE_EQ(last30.max, expected.max());
}

TEST(MonitorHistory, CustomRetentionPlumbsThroughTestbed) {
  exp::TestbedOptions options;
  options.retention = hist::RetentionPolicy::for_span(seconds(60),
                                                      2 * kSecond);
  exp::LirtssTestbed bed(options);
  bed.watch("S1", "N1");
  bed.run_until(seconds(20));
  EXPECT_EQ(bed.monitor().history().policy().raw_capacity,
            options.retention.raw_capacity);
  EXPECT_EQ(bed.monitor().stats_db().history().policy().raw_capacity,
            options.retention.raw_capacity);
}

}  // namespace
}  // namespace netqos::mon
