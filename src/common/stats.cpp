#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netqos {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("histogram needs at least one bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "histogram bounds must be strictly ascending");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

Histogram Histogram::exponential(double start, double factor,
                                 std::size_t count) {
  if (start <= 0.0 || factor <= 1.0 || count == 0) {
    throw std::invalid_argument("bad exponential histogram parameters");
  }
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return Histogram(std::move(bounds));
}

void Histogram::add(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += x;
}

double bucket_percentile(std::span<const double> bounds,
                         std::span<const std::size_t> counts,
                         std::size_t total, double first_lower, double q) {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::size_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::size_t next = cumulative + counts[b];
    if (static_cast<double>(next) >= rank && counts[b] > 0) {
      if (b == counts.size() - 1) return bounds.back();  // overflow bucket
      const double lower = b == 0 ? first_lower : bounds[b - 1];
      const double upper = bounds[b];
      const double fraction =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(counts[b]);
      return lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds.back();
}

RunningStats TimeSeries::stats_between(SimTime begin, SimTime end) const {
  RunningStats s;
  for (const auto& p : points_) {
    if (p.time >= begin && p.time < end) s.add(p.value);
  }
  return s;
}

double TimeSeries::mean_between(SimTime begin, SimTime end) const {
  return stats_between(begin, end).mean();
}

double TimeSeries::percentile_between(SimTime begin, SimTime end,
                                      double q) const {
  std::vector<double> values;
  for (const auto& p : points_) {
    if (p.time >= begin && p.time < end) values.push_back(p.value);
  }
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  if (lower + 1 >= values.size()) return values.back();
  const double fraction = position - static_cast<double>(lower);
  return values[lower] * (1.0 - fraction) + values[lower + 1] * fraction;
}

double TimeSeries::max_relative_error(SimTime begin, SimTime end,
                                      double reference) const {
  if (reference == 0.0) return 0.0;
  double worst = 0.0;
  for (const auto& p : points_) {
    if (p.time >= begin && p.time < end) {
      const double err = std::fabs(p.value - reference) / reference;
      if (err > worst) worst = err;
    }
  }
  return worst;
}

}  // namespace netqos
