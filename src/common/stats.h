// Streaming statistics and time-series containers used by the monitor and
// the experiment harnesses (Table 2 style summaries).
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/sim_time.h"

namespace netqos {

/// Welford-style running mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Value at quantile q in [0, 1] of a fixed-bucket histogram, by linear
/// interpolation within the containing bucket. `counts` holds one entry
/// per finite upper bound in `bounds` (ascending) plus a last overflow
/// entry, `total` their sum; bucket 0 spans [first_lower, bounds[0]].
/// Returns 0 when total is 0; a quantile in the overflow bucket clamps to
/// the largest finite bound. Histogram::percentile and the history
/// store's windowed p95 share this one implementation.
double bucket_percentile(std::span<const double> bounds,
                         std::span<const std::size_t> counts,
                         std::size_t total, double first_lower, double q);

/// Fixed-bucket histogram: observations are sorted into buckets delimited
/// by a fixed, ascending list of upper bounds, with an implicit +Inf
/// overflow bucket. The bucket layout matches Prometheus histogram
/// semantics (cumulative `le` buckets on export), and percentile(q)
/// recovers approximate quantiles by linear interpolation inside the
/// winning bucket — the classic fixed-cost alternative to storing every
/// sample.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> upper_bounds);

  /// `count` bounds starting at `start`, each `factor` times the last
  /// (e.g. exponential(0.001, 2.0, 12) spans 1 ms .. 2 s).
  static Histogram exponential(double start, double factor,
                               std::size_t count);

  void add(double x);

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Finite bucket upper bounds (the +Inf bucket is implicit).
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1,
  /// the last entry being the +Inf overflow bucket.
  const std::vector<std::size_t>& bucket_counts() const { return counts_; }

  /// Approximate value at quantile q in [0, 1] by linear interpolation
  /// within the containing bucket (bucket_percentile with bucket 0's
  /// lower edge at 0). Returns 0 when empty. Values in the overflow
  /// bucket clamp to the largest finite bound.
  double percentile(double q) const {
    return bucket_percentile(bounds_, counts_, count_, 0.0, q);
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::size_t> counts_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
};

/// One observation in a time series.
struct TimePoint {
  SimTime time = 0;
  double value = 0.0;
};

/// Append-only series of (time, value) samples with range queries.
class TimeSeries {
 public:
  void add(SimTime t, double v) { points_.push_back({t, v}); }

  const std::vector<TimePoint>& points() const { return points_; }
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  /// Stats over samples with begin <= time < end.
  RunningStats stats_between(SimTime begin, SimTime end) const;

  /// Mean over samples with begin <= time < end (0 if none).
  double mean_between(SimTime begin, SimTime end) const;

  /// Largest |value - reference| / reference over the window, as a
  /// fraction. Returns 0 when reference == 0 or the window is empty.
  double max_relative_error(SimTime begin, SimTime end,
                            double reference) const;

  /// Value at quantile q in [0, 1] over samples with begin <= time < end,
  /// by linear interpolation between order statistics. 0 if the window is
  /// empty.
  double percentile_between(SimTime begin, SimTime end, double q) const;
  double percentile(double q) const {
    return percentile_between(std::numeric_limits<SimTime>::min(),
                              std::numeric_limits<SimTime>::max(), q);
  }

 private:
  std::vector<TimePoint> points_;
};

}  // namespace netqos
