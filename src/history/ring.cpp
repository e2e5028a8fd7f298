#include "history/ring.h"

#include <stdexcept>

namespace netqos::hist {

RingTier::RingTier(SimDuration width, std::size_t capacity) : width_(width) {
  if (capacity == 0) {
    throw std::invalid_argument("RingTier capacity must be >= 1");
  }
  if (width < 0) {
    throw std::invalid_argument("RingTier width must be >= 0");
  }
  // The whole ring is allocated up front: memory is fixed at construction
  // and no append can ever reallocate.
  buckets_.resize(capacity);
}

SimTime RingTier::bucket_start(SimTime t) const {
  if (width_ == 0) return t;
  // Floor division that stays aligned for negative times too (SimTime is
  // signed, although the simulator never goes below zero).
  SimTime q = t / width_;
  if (t % width_ != 0 && t < 0) --q;
  return q * width_;
}

void RingTier::out_of_range() { throw std::out_of_range("RingTier::at"); }

std::optional<SimTime> RingTier::oldest_start() const {
  if (size_ == 0) return std::nullopt;
  return buckets_[head_].start;
}

bool RingTier::overlaps(const Bucket& bucket, SimTime begin,
                        SimTime end) const {
  if (width_ == 0) return bucket.start >= begin && bucket.start < end;
  return bucket.start < end && bucket.start + width_ > begin;
}

template <typename Before>
std::size_t RingTier::partition_point(Before before) const {
  std::size_t lo = 0;
  std::size_t hi = size_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (before(slot(mid))) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::pair<std::size_t, std::size_t> RingTier::overlapping(SimTime begin,
                                                          SimTime end) const {
  // overlaps() is "ends after begin" and "starts before end"; each half
  // is monotone in the ascending starts. The expressions mirror it.
  const std::size_t first =
      width_ == 0 ? partition_point([&](const Bucket& b) {
        return !(b.start >= begin);
      })
                  : partition_point([&](const Bucket& b) {
                      return !(b.start + width_ > begin);
                    });
  const std::size_t last =
      partition_point([&](const Bucket& b) { return b.start < end; });
  return {first, last > first ? last : first};
}

RingTier::Append RingTier::add(SimTime t, double v, bool* evicted) {
  if (evicted != nullptr) *evicted = false;
  const SimTime start = bucket_start(t);

  if (size_ != 0) {
    Bucket& newest_bucket = buckets_[(head_ + size_ - 1) % buckets_.size()];
    // Merge into the newest bucket when t lands in (or before) it: the
    // streaming downsample path for width tiers, and the out-of-order
    // fold for raw tiers.
    if (start <= newest_bucket.start) {
      ++newest_bucket.count;
      newest_bucket.sum += v;
      newest_bucket.last = v;
      if (v < newest_bucket.min) newest_bucket.min = v;
      if (v > newest_bucket.max) newest_bucket.max = v;
      return Append::kMerged;
    }
  }

  Bucket fresh;
  fresh.start = start;
  fresh.count = 1;
  fresh.min = fresh.max = fresh.sum = fresh.last = v;

  if (size_ < buckets_.size()) {
    buckets_[(head_ + size_) % buckets_.size()] = fresh;
    ++size_;
  } else {
    // Evict the oldest bucket in place.
    buckets_[head_] = fresh;
    head_ = (head_ + 1) % buckets_.size();
    if (evicted != nullptr) *evicted = true;
  }
  return Append::kNewBucket;
}

}  // namespace netqos::hist
