// Seeded model test of the window search behind Series::query. Random
// series (a raw tier and two width tiers, small enough that evictions run
// the rings past their wrap-around, with repeated and out-of-order sample
// times folded into the newest bucket) are queried over random windows:
// empty and reversed ones, and ones aligned to bucket boundaries.
//   - RingTier::overlapping must return exactly the indices overlaps()
//     accepts, on every tier.
//   - Every WindowSummary field except the binned p95 must equal a
//     brute-force scan of the tier the store documents it answers from.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "history/store.h"

namespace netqos::hist {
namespace {

constexpr std::uint64_t kSeeds = 200;
constexpr int kWindowsPerSeed = 60;

RetentionPolicy random_policy(Xoshiro256& rng) {
  RetentionPolicy policy;
  policy.raw_capacity = rng.uniform_int(1, 24);
  const SimDuration fine =
      seconds(static_cast<std::int64_t>(rng.uniform_int(1, 6)));
  const SimDuration coarse =
      fine * static_cast<SimDuration>(rng.uniform_int(2, 5));
  policy.tiers = {{fine, rng.uniform_int(1, 12)},
                  {coarse, rng.uniform_int(1, 8)}};
  return policy;
}

/// Next sample time: usually 1 ns to 3 s later, sometimes the same time
/// again, sometimes up to 3 s earlier (an out-of-order fold).
SimTime next_time(Xoshiro256& rng, SimTime t) {
  switch (rng.uniform_int(0, 9)) {
    case 0:
      return t - static_cast<SimDuration>(rng.uniform_int(0, 3 * kSecond));
    case 1:
      return t;
    default:
      return t + static_cast<SimDuration>(rng.uniform_int(1, 3 * kSecond));
  }
}

std::vector<const RingTier*> tiers_of(const Series& series) {
  std::vector<const RingTier*> all = {&series.raw()};
  for (const RingTier& tier : series.tiers()) all.push_back(&tier);
  return all;
}

/// A window endpoint: a random time around the data, or a bucket's start
/// or end on a random tier.
SimTime random_endpoint(Xoshiro256& rng, const Series& series, SimTime lo,
                        SimTime hi) {
  const std::vector<const RingTier*> tiers = tiers_of(series);
  const RingTier& tier = *tiers[rng.uniform_int(0, tiers.size() - 1)];
  const std::uint64_t kind = rng.uniform_int(0, 2);
  if (kind == 0 || tier.empty()) {
    return lo + static_cast<SimDuration>(
                    rng.uniform_int(0, static_cast<std::uint64_t>(hi - lo)));
  }
  const Bucket& bucket = tier.at(rng.uniform_int(0, tier.size() - 1));
  return kind == 1 ? bucket.start : bucket.start + tier.width();
}

/// The store's documented answer, by exhaustive scan: the finest tier
/// whose oldest bucket starts at or before `begin` (complete), else the
/// coarsest non-empty tier (incomplete); then every bucket overlaps()
/// accepts, in age order.
WindowSummary brute_force(const Series& series, SimTime begin, SimTime end) {
  const RingTier* tier = nullptr;
  bool complete = false;
  for (const RingTier* candidate : tiers_of(series)) {
    if (candidate->empty()) continue;
    tier = candidate;
    if (candidate->at(0).start <= begin) {
      complete = true;
      break;
    }
  }
  WindowSummary summary;
  if (tier == nullptr) return summary;
  summary.resolution = tier->width();
  summary.complete = complete;
  double sum = 0.0;
  for (std::size_t i = 0; i < tier->size(); ++i) {
    const Bucket& bucket = tier->at(i);
    if (!tier->overlaps(bucket, begin, end)) continue;
    if (summary.buckets == 0 || bucket.min < summary.min) {
      summary.min = bucket.min;
    }
    if (summary.buckets == 0 || bucket.max > summary.max) {
      summary.max = bucket.max;
    }
    sum += bucket.sum;
    summary.samples += bucket.count;
    ++summary.buckets;
  }
  if (summary.samples != 0) {
    summary.mean = sum / static_cast<double>(summary.samples);
  }
  return summary;
}

TEST(WindowModel, OverlappingAndQueryMatchBruteForce) {
  std::size_t windows_with_samples = 0;
  std::size_t empty_windows = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Xoshiro256 rng(seed);
    Series series(random_policy(rng));
    const std::size_t samples = rng.uniform_int(0, 300);
    SimTime t = seconds(static_cast<std::int64_t>(rng.uniform_int(0, 100)));
    const SimTime first_time = t;
    SimTime last_time = t;
    for (std::size_t i = 0; i < samples; ++i) {
      t = next_time(rng, t);
      if (t > last_time) last_time = t;
      // Few distinct values, so some windows are constant.
      const double value = rng.uniform_int(0, 3) == 0
                               ? 500.0
                               : rng.uniform(0.0, 1000.0);
      series.add(t, value);
    }
    const SimTime lo = first_time - 10 * kSecond;
    const SimTime hi = last_time + 10 * kSecond;

    for (int w = 0; w < kWindowsPerSeed; ++w) {
      const SimTime begin = random_endpoint(rng, series, lo, hi);
      const SimTime end = rng.uniform_int(0, 7) == 0
                              ? begin
                              : random_endpoint(rng, series, lo, hi);
      SCOPED_TRACE(testing::Message() << "window [" << begin << ", " << end
                                      << ")");

      for (const RingTier* tier : tiers_of(series)) {
        const auto [first, last] = tier->overlapping(begin, end);
        ASSERT_LE(first, last);
        ASSERT_LE(last, tier->size());
        for (std::size_t i = 0; i < tier->size(); ++i) {
          ASSERT_EQ(tier->overlaps(tier->at(i), begin, end),
                    i >= first && i < last)
              << "tier width " << tier->width() << " index " << i
              << " of " << tier->size();
        }
      }

      const WindowSummary got = series.query(begin, end);
      const WindowSummary want = brute_force(series, begin, end);
      EXPECT_EQ(got.samples, want.samples);
      EXPECT_EQ(got.buckets, want.buckets);
      EXPECT_EQ(got.min, want.min);
      EXPECT_EQ(got.mean, want.mean);
      EXPECT_EQ(got.max, want.max);
      EXPECT_EQ(got.resolution, want.resolution);
      EXPECT_EQ(got.complete, want.complete);
      if (got.samples != 0) {
        ++windows_with_samples;
        EXPECT_GE(got.p95, got.min);
      } else {
        ++empty_windows;
        EXPECT_EQ(got.p95, 0.0);
      }
    }
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(windows_with_samples, kSeeds);
  EXPECT_GT(empty_windows, kSeeds);
}

}  // namespace
}  // namespace netqos::hist
