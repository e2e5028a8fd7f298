#include "history/ring.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace netqos::hist {
namespace {

TEST(RingTier, RawTierKeepsOneSamplePerBucket) {
  RingTier raw(0, 8);
  for (int i = 0; i < 5; ++i) {
    bool evicted = true;
    EXPECT_EQ(raw.add(seconds(i), 10.0 * i, &evicted),
              RingTier::Append::kNewBucket);
    EXPECT_FALSE(evicted);
  }
  ASSERT_EQ(raw.size(), 5u);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const Bucket& b = raw.at(i);
    EXPECT_EQ(b.start, seconds(i));
    EXPECT_EQ(b.count, 1u);
    EXPECT_DOUBLE_EQ(b.min, 10.0 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(b.max, b.min);
    EXPECT_DOUBLE_EQ(b.mean(), b.min);
    EXPECT_DOUBLE_EQ(b.last, b.min);
  }
}

TEST(RingTier, EvictsOldestAtCapacity) {
  RingTier raw(0, 3);
  for (int i = 0; i < 7; ++i) {
    bool evicted = false;
    raw.add(seconds(i), static_cast<double>(i), &evicted);
    EXPECT_EQ(evicted, i >= 3);
  }
  ASSERT_EQ(raw.size(), 3u);
  // Oldest-first: the survivors are samples 4, 5, 6.
  EXPECT_EQ(raw.at(0).start, seconds(4));
  EXPECT_EQ(raw.at(1).start, seconds(5));
  EXPECT_EQ(raw.at(2).start, seconds(6));
  EXPECT_EQ(raw.oldest_start(), seconds(4));
  EXPECT_EQ(raw.newest().start, seconds(6));
}

TEST(RingTier, FootprintIndependentOfAppendCount) {
  RingTier a(0, 16);
  RingTier b(0, 16);
  for (int i = 0; i < 1000; ++i) b.add(seconds(i), 1.0);
  EXPECT_EQ(a.footprint_bytes(), b.footprint_bytes());
  EXPECT_EQ(a.capacity(), 16u);
  EXPECT_EQ(b.capacity(), 16u);
}

TEST(RingTier, WidthTierStreamsMinMeanMax) {
  RingTier tier(10 * kSecond, 4);
  // All three land in the [0, 10s) bucket.
  EXPECT_EQ(tier.add(seconds(1), 5.0), RingTier::Append::kNewBucket);
  EXPECT_EQ(tier.add(seconds(4), 1.0), RingTier::Append::kMerged);
  EXPECT_EQ(tier.add(seconds(9), 9.0), RingTier::Append::kMerged);
  ASSERT_EQ(tier.size(), 1u);
  const Bucket& b = tier.newest();
  EXPECT_EQ(b.start, 0);
  EXPECT_EQ(b.count, 3u);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.max, 9.0);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
  EXPECT_DOUBLE_EQ(b.last, 9.0);
}

TEST(RingTier, OddAlignmentSplitsBucketsOnBoundaries) {
  // Samples straddling a bucket boundary at an awkward offset: 10 s
  // buckets with samples at 9.999 s and 10.000 s must not share one.
  RingTier tier(10 * kSecond, 4);
  tier.add(seconds(10) - 1, 2.0);  // one nanosecond before the boundary
  tier.add(seconds(10), 8.0);
  ASSERT_EQ(tier.size(), 2u);
  EXPECT_EQ(tier.at(0).start, 0);
  EXPECT_EQ(tier.at(1).start, seconds(10));
  EXPECT_DOUBLE_EQ(tier.at(0).max, 2.0);
  EXPECT_DOUBLE_EQ(tier.at(1).min, 8.0);
}

TEST(RingTier, OddSampleCadenceKeepsInvariants) {
  // 3 s cadence into 10 s buckets: bucket occupancy alternates 4/3 and
  // the invariants min <= mean <= max must hold in every bucket.
  RingTier tier(10 * kSecond, 8);
  for (int i = 0; i < 30; ++i) {
    tier.add(seconds(3 * i), static_cast<double>((i * 7) % 13));
  }
  for (std::size_t i = 0; i < tier.size(); ++i) {
    const Bucket& b = tier.at(i);
    EXPECT_GT(b.count, 0u);
    EXPECT_LE(b.min, b.mean());
    EXPECT_LE(b.mean(), b.max);
    EXPECT_GE(b.last, b.min);
    EXPECT_LE(b.last, b.max);
    EXPECT_EQ(b.start % (10 * kSecond), 0);
    if (i > 0) {
      EXPECT_LT(tier.at(i - 1).start, b.start);
    }
  }
}

TEST(RingTier, LateSampleFoldsIntoNewestBucket) {
  // A re-probe stamped slightly in the past must not reorder history;
  // it folds into the newest bucket.
  RingTier raw(0, 8);
  raw.add(seconds(5), 1.0);
  bool evicted = true;
  EXPECT_EQ(raw.add(seconds(4), 3.0, &evicted), RingTier::Append::kMerged);
  EXPECT_FALSE(evicted);
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(raw.newest().count, 2u);
  EXPECT_DOUBLE_EQ(raw.newest().max, 3.0);
}

TEST(RingTier, OverlapsRespectsBucketExtent) {
  RingTier raw(0, 4);
  RingTier wide(10 * kSecond, 4);
  raw.add(seconds(5), 1.0);
  wide.add(seconds(5), 1.0);  // bucket [0, 10s)
  // Raw buckets are points.
  EXPECT_TRUE(raw.overlaps(raw.newest(), seconds(5), seconds(6)));
  EXPECT_FALSE(raw.overlaps(raw.newest(), seconds(6), seconds(7)));
  // Width buckets cover their whole window.
  EXPECT_TRUE(wide.overlaps(wide.newest(), seconds(8), seconds(9)));
  EXPECT_FALSE(wide.overlaps(wide.newest(), seconds(10), seconds(20)));
}

TEST(RingTier, RejectsZeroCapacity) {
  EXPECT_THROW(RingTier(0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace netqos::hist
