// Fixed-capacity time-series ring tier.
//
// One tier of the multi-resolution history store: a circular buffer of
// aggregate buckets. A tier with width 0 is a *raw* tier — every sample
// becomes its own bucket — while a tier with width W streams samples into
// W-aligned buckets keeping min/mean/max/last, so any retention horizon
// costs O(capacity) memory regardless of run length. Appending past
// capacity evicts the oldest bucket; nothing ever reallocates after
// construction, which is what makes the store's footprint provably flat.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/sim_time.h"

namespace netqos::hist {

/// One aggregate bucket: the streaming summary of every sample whose time
/// fell into [start, start + width). Raw tiers hold exactly one sample
/// per bucket, so min == mean == max == last there.
struct Bucket {
  SimTime start = 0;
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double last = 0.0;

  double mean() const {
    return count != 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

class RingTier {
 public:
  /// What an append did, for the store's downsample instrumentation.
  enum class Append {
    kNewBucket,  ///< opened a fresh bucket (possibly evicting the oldest)
    kMerged,     ///< folded into the newest bucket (streaming downsample)
  };

  /// `width` 0 makes a raw tier; otherwise samples are bucketed into
  /// width-aligned windows. `capacity` must be >= 1.
  RingTier(SimDuration width, std::size_t capacity);

  /// Appends one sample. Sample times are expected non-decreasing (the
  /// monitor's poll rounds are); a sample older than the newest bucket is
  /// folded into that bucket rather than reordering history. Sets
  /// `*evicted` when the append pushed the oldest bucket out.
  Append add(SimTime t, double v, bool* evicted = nullptr);

  SimDuration width() const { return width_; }
  std::size_t capacity() const { return buckets_.size(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Bucket by age: index 0 is the oldest retained bucket.
  const Bucket& at(std::size_t index) const {
    if (index >= size_) out_of_range();
    return slot(index);
  }
  const Bucket& newest() const { return at(size_ - 1); }

  /// Start time of the oldest retained bucket; nullopt when empty. A
  /// query window beginning at or after this is fully covered.
  std::optional<SimTime> oldest_start() const;

  /// True when the bucket overlaps [begin, end): raw buckets are points,
  /// width tiers cover [start, start + width).
  bool overlaps(const Bucket& bucket, SimTime begin, SimTime end) const;

  /// The [first, last) index range of exactly the buckets overlaps()
  /// accepts for [begin, end), by two binary searches: bucket starts
  /// strictly ascend with index, so the accepted buckets are contiguous.
  /// first == last when none overlaps.
  std::pair<std::size_t, std::size_t> overlapping(SimTime begin,
                                                  SimTime end) const;

  /// Bytes permanently reserved by this tier: the preallocated bucket
  /// array. Independent of how many samples were ever appended.
  std::size_t footprint_bytes() const {
    return buckets_.size() * sizeof(Bucket);
  }

 private:
  /// Start of the bucket containing t (identity for raw tiers).
  SimTime bucket_start(SimTime t) const;
  [[noreturn]] static void out_of_range();
  /// Bucket by age without the range check.
  const Bucket& slot(std::size_t index) const {
    const std::size_t at = head_ + index;
    return buckets_[at < buckets_.size() ? at : at - buckets_.size()];
  }
  /// First index in [0, size) whose bucket fails `before`, which must
  /// hold for a prefix of the ring and fail for the rest.
  template <typename Before>
  std::size_t partition_point(Before before) const;

  SimDuration width_;
  std::vector<Bucket> buckets_;  ///< circular storage, never reallocated
  std::size_t head_ = 0;         ///< index of the oldest bucket
  std::size_t size_ = 0;
};

}  // namespace netqos::hist
