#include "history/store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace netqos::hist {
namespace {

RetentionPolicy small_policy() {
  RetentionPolicy policy;
  policy.raw_capacity = 16;
  policy.tiers = {{8 * kSecond, 16}, {32 * kSecond, 8}};
  return policy;
}

TEST(Series, RawWindowQueryMatchesBruteForce) {
  Series series(RetentionPolicy{});
  TimeSeries reference;
  for (int i = 0; i < 100; ++i) {
    const double v = static_cast<double>((i * 37) % 41);
    series.add(seconds(2 * i), v);
    reference.add(seconds(2 * i), v);
  }
  const SimTime begin = seconds(60);
  const SimTime end = seconds(140);
  const WindowSummary summary = series.query(begin, end);
  const RunningStats expected = reference.stats_between(begin, end);

  EXPECT_TRUE(summary.complete);
  EXPECT_EQ(summary.resolution, 0);
  EXPECT_EQ(summary.samples, expected.count());
  EXPECT_DOUBLE_EQ(summary.min, expected.min());
  EXPECT_DOUBLE_EQ(summary.max, expected.max());
  EXPECT_DOUBLE_EQ(summary.mean, expected.mean());
  // The histogram p95 is approximate; it must land inside the range and
  // near the exact order-statistic percentile.
  EXPECT_GE(summary.p95, summary.min);
  EXPECT_LE(summary.p95, summary.max);
  const double exact = reference.percentile_between(begin, end, 0.95);
  EXPECT_NEAR(summary.p95, exact, (summary.max - summary.min) / 10.0);
}

TEST(Series, FallsBackToCoarserTierAfterEviction) {
  Series series(small_policy());
  // 2 s cadence, 200 samples = 400 s: the 16-slot raw ring holds only the
  // last ~32 s, the 8 s tier ~128 s, the 32 s tier all of it.
  for (int i = 0; i < 200; ++i) {
    series.add(seconds(2 * i), static_cast<double>(i));
  }
  const SimTime end = seconds(400);

  const WindowSummary recent = series.query(seconds(390), end);
  EXPECT_TRUE(recent.complete);
  EXPECT_EQ(recent.resolution, 0);

  const WindowSummary mid = series.query(seconds(300), end);
  EXPECT_TRUE(mid.complete);
  EXPECT_EQ(mid.resolution, 8 * kSecond);

  // The 8 s tier reaches back ~128 s (16 x 8 s) from t=398; a window
  // older than that falls through to the 32 s tier (~256 s reach).
  const WindowSummary old = series.query(seconds(200), end);
  EXPECT_TRUE(old.complete);
  EXPECT_EQ(old.resolution, 32 * kSecond);

  // A window older than even the coarsest retention is answered from the
  // surviving suffix and flagged incomplete.
  Series tiny(RetentionPolicy{4, {{8 * kSecond, 4}}});
  for (int i = 0; i < 100; ++i) tiny.add(seconds(2 * i), 1.0);
  const WindowSummary truncated = tiny.query(0, seconds(200));
  EXPECT_FALSE(truncated.complete);
  EXPECT_GT(truncated.samples, 0u);
}

TEST(Series, DownsampledQueryPreservesExtremes) {
  Series series(small_policy());
  for (int i = 0; i < 200; ++i) {
    // Sawtooth between 0 and 9 with one large spike.
    series.add(seconds(2 * i), i == 150 ? 100.0 : static_cast<double>(i % 10));
  }
  // Window answered from a downsampled tier: min/max must survive the
  // aggregation exactly (the buckets carry true extremes, not means).
  const WindowSummary summary = series.query(seconds(250), seconds(350));
  EXPECT_GT(summary.resolution, 0);
  EXPECT_DOUBLE_EQ(summary.max, 100.0);
  EXPECT_DOUBLE_EQ(summary.min, 0.0);
}

TEST(Series, FootprintFlatInSampleCount) {
  Series short_run(small_policy());
  Series long_run(small_policy());
  for (int i = 0; i < 10; ++i) short_run.add(seconds(i), 1.0);
  for (int i = 0; i < 10'000; ++i) long_run.add(seconds(i), 1.0);
  EXPECT_EQ(short_run.footprint_bytes(), long_run.footprint_bytes());
  EXPECT_GT(long_run.footprint_bytes(), 0u);
  // Occupancy is bounded by the policy's total capacity.
  EXPECT_LE(long_run.bucket_count(), 16u + 16u + 8u);
}

TEST(Series, MaterializeRawRoundTripsWithoutEviction) {
  Series series(RetentionPolicy{});
  TimeSeries expected;
  for (int i = 0; i < 50; ++i) {
    series.add(seconds(i), static_cast<double>(i * i));
    expected.add(seconds(i), static_cast<double>(i * i));
  }
  TimeSeries actual;
  series.materialize_raw(actual);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual.points()[i].time, expected.points()[i].time);
    EXPECT_DOUBLE_EQ(actual.points()[i].value, expected.points()[i].value);
  }
}

TEST(RetentionPolicyTest, ForSpanCoversRequestedSpan) {
  const RetentionPolicy policy =
      RetentionPolicy::for_span(seconds(600), 2 * kSecond);
  // 300 samples over 10 minutes at 2 s cadence, plus slack.
  EXPECT_GE(policy.raw_capacity, 300u);
  ASSERT_EQ(policy.tiers.size(), 2u);
  EXPECT_EQ(policy.tiers[0].width, 8 * kSecond);
  EXPECT_EQ(policy.tiers[1].width, 32 * kSecond);
  EXPECT_THROW(RetentionPolicy::for_span(0, kSecond), std::invalid_argument);
}

TEST(RetentionPolicyTest, ForSpanRefusesSpansPastItsBound) {
  constexpr SimDuration kPoll = 2 * kSecond;
  constexpr auto kMaxIntervals =
      static_cast<SimDuration>(RetentionPolicy::kMaxSpanBuckets - 2);
  // The largest span accepted fills each ring to the bound exactly.
  const RetentionPolicy widest =
      RetentionPolicy::for_span(kMaxIntervals * kPoll, kPoll);
  EXPECT_EQ(widest.raw_capacity, RetentionPolicy::kMaxSpanBuckets);
  for (const RetentionPolicy::Tier& tier : widest.tiers) {
    EXPECT_EQ(tier.capacity, RetentionPolicy::kMaxSpanBuckets);
  }
  // A span short of the next whole interval still fits.
  EXPECT_NO_THROW(
      RetentionPolicy::for_span((kMaxIntervals + 1) * kPoll - 1, kPoll));
  // One interval more does not, nor does netqosmon --history-retention
  // 1e9, which would ask for about 72 GB per series.
  EXPECT_THROW(RetentionPolicy::for_span((kMaxIntervals + 1) * kPoll, kPoll),
               std::invalid_argument);
  EXPECT_THROW(RetentionPolicy::for_span(seconds(1'000'000'000), kPoll),
               std::invalid_argument);
}

TEST(HistoryStoreTest, QueryAndLookup) {
  HistoryStore store(small_policy());
  store.append("a", seconds(1), 10.0);
  store.append("a", seconds(2), 20.0);
  store.append("b", seconds(1), 1.0);

  EXPECT_EQ(store.series_count(), 2u);
  EXPECT_NE(store.find("a"), nullptr);
  EXPECT_EQ(store.find("missing"), nullptr);
  EXPECT_EQ(store.query("missing", 0, seconds(10)).samples, 0u);

  const WindowSummary summary = store.query("a", 0, seconds(10));
  EXPECT_EQ(summary.samples, 2u);
  EXPECT_DOUBLE_EQ(summary.mean, 15.0);

  EXPECT_EQ(store.footprint_bytes(), 2 * store.bytes_per_series());
}

TEST(HistoryStoreTest, DurationInvariantFootprint) {
  HistoryStore short_store(small_policy());
  HistoryStore long_store(small_policy());
  for (int i = 0; i < 20; ++i) short_store.append("x", seconds(i), 1.0);
  for (int i = 0; i < 5000; ++i) long_store.append("x", seconds(i), 1.0);
  EXPECT_EQ(short_store.footprint_bytes(), long_store.footprint_bytes());
}

TEST(HistoryStoreTest, MetricsTrackOccupancyAndFootprint) {
  obs::MetricsRegistry registry;
  HistoryStore store(small_policy());
  store.attach_metrics(registry, "test");
  for (int i = 0; i < 500; ++i) {
    store.append("k", seconds(2 * i), static_cast<double>(i));
  }
  const obs::Labels labels = {{"store", "test"}};
  const double occupancy =
      registry.gauge("netqos_history_occupancy_buckets", "", labels).value();
  const double footprint =
      registry.gauge("netqos_history_footprint_bytes", "", labels).value();
  const double samples =
      registry.counter("netqos_history_samples_total", "", labels).value();
  // The O(1) delta-tracked gauge must agree with a full recount.
  EXPECT_DOUBLE_EQ(occupancy,
                   static_cast<double>(store.find("k")->bucket_count()));
  EXPECT_DOUBLE_EQ(footprint, static_cast<double>(store.footprint_bytes()));
  EXPECT_DOUBLE_EQ(samples, 500.0);
}

TEST(HistoryStoreTest, VisitPrefixWalksMatchingKeysInOrderAndCountsQueries) {
  obs::MetricsRegistry registry;
  HistoryStore store(small_policy());
  store.attach_metrics(registry);
  for (const char* key : {"if:b/eth0", "conn:1", "if:a/eth1", "if:a/eth0",
                          "path:a|b:used", "if", "ig:x"}) {
    store.append(key, seconds(1), 1.0);
  }
  std::vector<std::string> visited;
  store.visit_prefix("if:", [&](const std::string& key, const Series& series) {
    visited.push_back(key);
    EXPECT_EQ(&series, store.find(key));
    EXPECT_EQ(store.query(series, 0, seconds(2)).samples, 1u);
  });
  EXPECT_EQ(visited, (std::vector<std::string>{"if:a/eth0", "if:a/eth1",
                                                "if:b/eth0"}));
  std::size_t all = 0;
  store.visit_prefix("", [&](const std::string&, const Series&) { ++all; });
  EXPECT_EQ(all, store.series_count());
  store.visit_prefix("zz", [&](const std::string& key, const Series&) {
    ADD_FAILURE() << "unexpected key " << key;
  });

  // The series overload counts like the keyed one (unknown keys too).
  store.query("if:a/eth0", 0, seconds(2));
  store.query("missing", 0, seconds(2));
  EXPECT_DOUBLE_EQ(
      registry.counter("netqos_history_queries_total", "").value(), 5.0);
}

TEST(Series, P95NeverFallsBelowTheWindowMin) {
  // 99 samples of 1000 then one of 2000: the 95th percentile lies in the
  // first of the 32 bins, [1000, 1031.25]. That bin starts at the window
  // min; interpolating it up from 0 put p95 at 989.58, below every
  // sample in the window.
  Series series(RetentionPolicy{});
  for (int i = 0; i < 99; ++i) series.add(seconds(i), 1000.0);
  series.add(seconds(99), 2000.0);
  const WindowSummary summary = series.query(0, seconds(100));
  ASSERT_EQ(summary.samples, 100u);
  EXPECT_EQ(summary.min, 1000.0);
  EXPECT_EQ(summary.max, 2000.0);
  EXPECT_GE(summary.p95, summary.min);
  EXPECT_LE(summary.p95, summary.min + (summary.max - summary.min) / 32.0);
}

TEST(Series, NearConstantWindowAnswersInsideItsRange) {
  // Two samples one ulp apart: min + step * i rounds to repeated bin
  // bounds, which once made the query throw.
  const double low = 123456.789;
  const double high = std::nextafter(low, 2 * low);
  Series series(RetentionPolicy{});
  series.add(seconds(1), low);
  series.add(seconds(2), high);
  WindowSummary summary;
  ASSERT_NO_THROW(summary = series.query(0, seconds(3)));
  ASSERT_EQ(summary.samples, 2u);
  EXPECT_EQ(summary.min, low);
  EXPECT_EQ(summary.max, high);
  EXPECT_GE(summary.p95, summary.min);
  EXPECT_LE(summary.p95, summary.max);
}

TEST(SeriesKeys, NormalizeAndCompose) {
  EXPECT_EQ(interface_series_key("hub0", "eth1"), "if:hub0/eth1");
  EXPECT_EQ(path_series_key("S1", "N1", "used"), "path:N1|S1:used");
  EXPECT_EQ(path_series_key("N1", "S1", "used"), "path:N1|S1:used");
  EXPECT_EQ(connection_series_key(7), "conn:7");
}

}  // namespace
}  // namespace netqos::hist
