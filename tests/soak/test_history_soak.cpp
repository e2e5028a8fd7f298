// Tier-2 soak: the history store's memory bound over a long horizon.
//
// A half-hour run at the 2 s poll cadence pushes ~900 samples per series
// through a deliberately tiny retention policy (raw ring 64 slots), so
// every ring wraps many times over. The store's footprint must never move
// after the series set stabilizes, occupancy must stay at the capacity
// bound, and windowed queries must keep answering from downsampled tiers
// after the raw horizon is long gone.
#include <gtest/gtest.h>

#include "experiments/lirtss.h"
#include "history/store.h"

namespace netqos::mon {
namespace {

TEST(SoakHistory, FootprintStaysFlatWhileRingsWrapForHalfAnHour) {
  exp::TestbedOptions options;
  options.retention.raw_capacity = 64;
  options.retention.tiers = {{8 * kSecond, 64}, {32 * kSecond, 32}};
  exp::LirtssTestbed bed(options);
  bed.watch("S1", "N1").watch("S1", "S2");
  bed.add_load("L", "N1",
               load::RateProfile::pulse(seconds(10), seconds(1800),
                                        kilobytes_per_second(500)));

  // Let the series set stabilize, then pin the footprint.
  bed.run_until(seconds(60));
  const std::size_t path_footprint =
      bed.monitor().history().footprint_bytes();
  const std::size_t if_footprint =
      bed.monitor().stats_db().history().footprint_bytes();
  const std::size_t path_series =
      bed.monitor().history().series_count();
  ASSERT_GT(path_footprint, 0u);
  ASSERT_GT(if_footprint, 0u);

  // Check at several horizons: the bound must hold continuously, not
  // just at the end.
  for (const std::int64_t checkpoint : {300, 600, 1200, 1800}) {
    bed.run_until(seconds(checkpoint));
    EXPECT_EQ(bed.monitor().history().footprint_bytes(), path_footprint);
    EXPECT_EQ(bed.monitor().stats_db().history().footprint_bytes(),
              if_footprint);
    EXPECT_EQ(bed.monitor().history().series_count(), path_series);
  }

  // Occupancy is pinned at the capacity bound per series.
  const std::size_t per_series_cap = 64 + 64 + 32;
  std::size_t visited = 0;
  bed.monitor().history().visit_prefix(
      "", [&](const std::string& key, const hist::Series& series) {
        ++visited;
        EXPECT_LE(series.bucket_count(), per_series_cap) << key;
      });
  EXPECT_EQ(visited, path_series);

  // Raw retention is ~128 s, yet a 12-minute window still answers —
  // from the 32 s tier, whose 32 slots reach ~1024 s back — with
  // extremes intact.
  const hist::WindowSummary window = bed.monitor().history().query(
      hist::path_series_key("S1", "N1", "avail"), seconds(1080),
      seconds(1800));
  ASSERT_GT(window.samples, 0u);
  EXPECT_TRUE(window.complete);
  EXPECT_GT(window.resolution, 0);
  EXPECT_LE(window.min, window.mean);
  EXPECT_LE(window.mean, window.max);
}

}  // namespace
}  // namespace netqos::mon
