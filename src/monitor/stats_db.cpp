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

std::optional<RateSample> StatsDb::update(const InterfaceKey& key,
                                          SimTime when,
                                          const CounterSample& sample) {
  Entry& entry = entries_[key];
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
  }
  if (updates_ != nullptr) updates_->inc();
  entry.last_sample = sample;
  entry.has_sample = true;
  if (rates.has_value()) {
    entry.last_rate = rates;
    // compute_rates already corrected any Counter32 wrap via modular
    // arithmetic, so the store receives one honest rate sample — a wrap
    // must never show up as a spike in downsampled buckets.
    history_.append(hist::interface_series_key(key.first, key.second), when,
                    rates->total_rate());
  }
  entry.last_time = when;
  if (interfaces_gauge_ != nullptr) {
    interfaces_gauge_->set(static_cast<double>(entries_.size()));
  }
  return rates;
}

std::optional<RateSample> StatsDb::latest_rate(
    const InterfaceKey& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second.last_rate;
}

std::optional<SimTime> StatsDb::last_update(const InterfaceKey& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || !it->second.has_sample) return std::nullopt;
  return it->second.last_time;
}

std::optional<SimDuration> StatsDb::sample_age(const InterfaceKey& key,
                                               SimTime now) const {
  const auto updated = last_update(key);
  if (!updated.has_value()) return std::nullopt;
  return now - *updated;
}

}  // namespace netqos::mon
