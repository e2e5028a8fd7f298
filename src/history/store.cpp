#include "history/store.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

namespace netqos::hist {

RetentionPolicy RetentionPolicy::for_span(SimDuration raw_span,
                                          SimDuration sample_interval) {
  if (raw_span <= 0 || sample_interval <= 0) {
    throw std::invalid_argument("for_span needs positive span and interval");
  }
  // +2 slack: the edge samples of a span straddle its boundaries.
  const auto intervals = static_cast<std::size_t>(raw_span / sample_interval);
  if (intervals > kMaxSpanBuckets - 2) {
    throw std::invalid_argument(
        "history retention of " + std::to_string(intervals) +
        " sample intervals exceeds the bound of " +
        std::to_string(kMaxSpanBuckets - 2) + " per series");
  }
  RetentionPolicy policy;
  policy.raw_capacity = intervals + 2;
  // Cascade: 4x coarser buckets spanning 4x the raw horizon, then 16x.
  const SimDuration fine = std::max<SimDuration>(4 * sample_interval, 1);
  policy.tiers = {{fine, policy.raw_capacity},
                  {4 * fine, policy.raw_capacity}};
  return policy;
}

// ---------------------------------------------------------------- Series

Series::Series(const RetentionPolicy& policy)
    : raw_(0, policy.raw_capacity) {
  SimDuration previous = 0;
  tiers_.reserve(policy.tiers.size());
  for (const auto& tier : policy.tiers) {
    if (tier.width <= previous) {
      throw std::invalid_argument(
          "RetentionPolicy tier widths must be strictly ascending");
    }
    previous = tier.width;
    tiers_.emplace_back(tier.width, tier.capacity);
  }
}

Series::AppendOutcome Series::add(SimTime t, double v) {
  ++appends_;
  AppendOutcome outcome;
  bool evicted = false;
  if (raw_.add(t, v, &evicted) == RingTier::Append::kMerged) {
    ++outcome.merges;
  }
  if (evicted) ++outcome.evictions;
  for (RingTier& tier : tiers_) {
    if (tier.add(t, v, &evicted) == RingTier::Append::kMerged) {
      ++outcome.merges;
    }
    if (evicted) ++outcome.evictions;
  }
  return outcome;
}

std::optional<SimTime> Series::last_time() const {
  if (raw_.empty()) return std::nullopt;
  return raw_.newest().start;
}

const RingTier* Series::tier_for(SimTime begin, bool* complete) const {
  *complete = false;
  const RingTier* coarsest_nonempty = nullptr;
  if (const auto oldest = raw_.oldest_start();
      oldest.has_value() && *oldest <= begin) {
    *complete = true;
    return &raw_;
  }
  if (!raw_.empty()) coarsest_nonempty = &raw_;
  for (const RingTier& tier : tiers_) {
    if (const auto oldest = tier.oldest_start();
        oldest.has_value() && *oldest <= begin) {
      *complete = true;
      return &tier;
    }
    if (!tier.empty()) coarsest_nonempty = &tier;
  }
  return coarsest_nonempty;
}

namespace {

/// The window summary over buckets [first, last) of `tier`: everything
/// but `complete`.
WindowSummary summarize(const RingTier& tier, std::size_t first,
                        std::size_t last) {
  WindowSummary summary;
  summary.resolution = tier.width();
  summary.buckets = last - first;
  if (first == last) return summary;

  // Pass 1: extremes, sum and sample count over the window's buckets.
  double min = tier.at(first).min;
  double max = tier.at(first).max;
  double sum = 0.0;
  for (std::size_t i = first; i < last; ++i) {
    const Bucket& bucket = tier.at(i);
    if (bucket.min < min) min = bucket.min;
    if (bucket.max > max) max = bucket.max;
    sum += bucket.sum;
    summary.samples += bucket.count;
  }
  summary.min = min;
  summary.max = max;
  summary.mean = sum / static_cast<double>(summary.samples);

  // Pass 2: p95 over 32 linear bins spanning the window's own [min, max],
  // the first starting at min. Bucket means enter count-weighted; on the
  // raw tier every bucket is a single sample, so this is the exact
  // per-sample distribution up to bin interpolation. The bounds repeat
  // when max - min is a few ulps, but never descend, which is all the
  // bin search and the interpolation need.
  if (max <= min) {
    summary.p95 = max;
    return summary;
  }
  constexpr std::size_t kBins = 32;
  std::array<double, kBins> bounds;
  std::array<std::size_t, kBins + 1> counts{};
  const double step = (max - min) / static_cast<double>(kBins);
  for (std::size_t i = 0; i < kBins; ++i) {
    bounds[i] = min + step * static_cast<double>(i + 1);
  }
  for (std::size_t i = first; i < last; ++i) {
    const Bucket& bucket = tier.at(i);
    const auto bin = std::lower_bound(bounds.begin(), bounds.end(),
                                      bucket.mean()) -
                     bounds.begin();
    counts[static_cast<std::size_t>(bin)] += bucket.count;
  }
  summary.p95 = bucket_percentile(bounds, counts, summary.samples, min, 0.95);
  return summary;
}

}  // namespace

WindowSummary Series::query(SimTime begin, SimTime end) const {
  bool complete = false;
  const RingTier* tier = tier_for(begin, &complete);
  if (tier == nullptr) return {};
  const auto [first, last] = tier->overlapping(begin, end);
  const std::size_t tier_index =
      tier == &raw_ ? 0 : 1 + static_cast<std::size_t>(tier - tiers_.data());
  if (memo_.appends != appends_ || memo_.tier != tier_index ||
      memo_.first != first || memo_.last != last) {
    memo_ = {appends_, tier_index, first, last,
             summarize(*tier, first, last)};
  }
  WindowSummary summary = memo_.summary;
  summary.complete = complete;
  return summary;
}

void Series::materialize_raw(TimeSeries& out) const {
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const Bucket& bucket = raw_.at(i);
    out.add(bucket.start, bucket.last);
  }
}

std::size_t Series::bucket_count() const {
  std::size_t total = raw_.size();
  for (const RingTier& tier : tiers_) total += tier.size();
  return total;
}

std::size_t Series::footprint_bytes() const {
  std::size_t total = raw_.footprint_bytes();
  for (const RingTier& tier : tiers_) total += tier.footprint_bytes();
  return total;
}

// ----------------------------------------------------------- HistoryStore

HistoryStore::HistoryStore(RetentionPolicy policy)
    : policy_(std::move(policy)) {}

void HistoryStore::attach_metrics(obs::MetricsRegistry& registry,
                                  const std::string& store_label) {
  obs::Labels labels;
  if (!store_label.empty()) labels.push_back({"store", store_label});
  samples_ = &registry.counter("netqos_history_samples_total",
                               "Samples appended to the history store",
                               labels);
  merges_ = &registry.counter(
      "netqos_history_downsample_merges_total",
      "Samples folded into an existing bucket while downsampling", labels);
  evictions_ = &registry.counter(
      "netqos_history_evictions_total",
      "Oldest buckets evicted by the fixed-capacity rings", labels);
  queries_ = &registry.counter("netqos_history_queries_total",
                               "Windowed queries answered by the store",
                               labels);
  series_gauge_ = &registry.gauge("netqos_history_series",
                                  "Series tracked by the history store",
                                  labels);
  occupancy_gauge_ = &registry.gauge(
      "netqos_history_occupancy_buckets",
      "Buckets currently held across all series and tiers", labels);
  footprint_gauge_ = &registry.gauge(
      "netqos_history_footprint_bytes",
      "Bytes permanently reserved by all series' rings (flat in run "
      "length; grows only with the series count)", labels);
}

Series& HistoryStore::series(const std::string& key) {
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_.emplace(key, Series(policy_)).first;
    if (series_gauge_ != nullptr) {
      series_gauge_->set(static_cast<double>(series_.size()));
    }
    if (footprint_gauge_ != nullptr) {
      footprint_gauge_->set(static_cast<double>(footprint_bytes()));
    }
  }
  return it->second;
}

void HistoryStore::append(const std::string& key, SimTime t, double v) {
  append(series(key), t, v);
}

void HistoryStore::append(Series& series, SimTime t, double v) {
  const Series::AppendOutcome outcome = series.add(t, v);
  if (samples_ != nullptr) {
    samples_->inc();
    merges_->inc(outcome.merges);
    evictions_->inc(outcome.evictions);
    // Each append touches the raw ring plus every tier; a touch either
    // opens a bucket (+1) or merges (0), and evictions retire one each.
    // Tracking the delta keeps the gauge O(1) per append.
    occupancy_gauge_->add(
        static_cast<double>(1 + policy_.tiers.size() - outcome.merges) -
        static_cast<double>(outcome.evictions));
  }
}

const Series* HistoryStore::find(std::string_view key) const {
  auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

WindowSummary HistoryStore::query(std::string_view key, SimTime begin,
                                  SimTime end) const {
  if (queries_ != nullptr) queries_->inc();
  const Series* entry = find(key);
  if (entry == nullptr) return {};
  return entry->query(begin, end);
}

WindowSummary HistoryStore::query(const Series& series, SimTime begin,
                                  SimTime end) const {
  if (queries_ != nullptr) queries_->inc();
  return series.query(begin, end);
}

std::size_t HistoryStore::footprint_bytes() const {
  std::size_t total = 0;
  for (const auto& [key, entry] : series_) total += entry.footprint_bytes();
  return total;
}

std::size_t HistoryStore::bytes_per_series() const {
  return Series(policy_).footprint_bytes();
}

// ------------------------------------------------------------------ keys

std::string interface_series_key(const std::string& node,
                                 const std::string& if_descr) {
  return "if:" + node + "/" + if_descr;
}

std::string path_series_key(const std::string& from, const std::string& to,
                            const char* metric) {
  const bool ordered = from <= to;
  return "path:" + (ordered ? from : to) + "|" + (ordered ? to : from) +
         ":" + metric;
}

std::string connection_series_key(std::size_t connection) {
  return "conn:" + std::to_string(connection);
}

}  // namespace netqos::hist
