#include "monitor/stats_db.h"

namespace netqos::mon {

void StatsDb::attach_metrics(obs::MetricsRegistry& registry) {
  updates_ = &registry.counter("netqos_statsdb_updates_total",
                               "Counter samples recorded in the stats db");
  counter_wraps_ = &registry.counter(
      "netqos_statsdb_counter_wraps_total",
      "Octet-counter wraps detected between consecutive samples");
  interfaces_gauge_ = &registry.gauge("netqos_statsdb_interfaces",
                                      "Interfaces currently tracked");
  history_.attach_metrics(registry, "interfaces");
}

std::optional<RateSample> StatsDb::update(const MeasurePoint& point,
                                          SimTime when,
                                          const CounterSample& sample) {
  if (point.id >= entries_.size()) entries_.resize(point.id + 1);
  Entry& entry = entries_[point.id];
  std::optional<RateSample> rates;
  if (entry.has_sample) {
    rates = compute_rates(entry.last_sample, sample);
    // A smaller octet total than last time means the modular delta
    // crossed a wrap (the ~6-minute Counter32 horizon at 100 Mbps).
    if (counter_wraps_ != nullptr &&
        (sample.in_octets < entry.last_sample.in_octets ||
         sample.out_octets < entry.last_sample.out_octets)) {
      counter_wraps_->inc();
    }
  } else {
    ++tracked_;
  }
  if (updates_ != nullptr) updates_->inc();
  ++version_;
  entry.last_sample = sample;
  entry.has_sample = true;
  if (rates.has_value()) {
    entry.last_rate = rates;
    if (entry.series == nullptr) {
      entry.series = &history_.series(
          hist::interface_series_key(point.node, point.interface));
    }
    // compute_rates already corrected any Counter32 wrap via modular
    // arithmetic, so the store receives one honest rate sample — a wrap
    // must never show up as a spike in downsampled buckets.
    history_.append(*entry.series, when, rates->total_rate());
  }
  entry.last_time = when;
  if (interfaces_gauge_ != nullptr) {
    interfaces_gauge_->set(static_cast<double>(tracked_));
  }
  return rates;
}

std::optional<RateSample> StatsDb::latest_rate(PointId point) const {
  const Entry* entry = find(point);
  if (entry == nullptr) return std::nullopt;
  return entry->last_rate;
}

std::optional<SimTime> StatsDb::last_update(PointId point) const {
  const Entry* entry = find(point);
  if (entry == nullptr || !entry->has_sample) return std::nullopt;
  return entry->last_time;
}

std::optional<SimDuration> StatsDb::sample_age(PointId point,
                                               SimTime now) const {
  const auto updated = last_update(point);
  if (!updated.has_value()) return std::nullopt;
  return now - *updated;
}

}  // namespace netqos::mon
