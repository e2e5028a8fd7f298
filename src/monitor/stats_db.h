// Interface statistics database.
//
// Stores the latest counter sample per (node, interface), computes rates
// on update (paper §3.1 differencing), and streams rate history into a
// bounded multi-resolution history store (src/history/) — memory is
// O(interfaces x retention capacity), flat in run length, instead of the
// old unbounded per-interface TimeSeries vectors. Sample ages are tracked
// per-interface: a single fresh agent must never mask the staleness of
// the others, so freshness queries always name the interface.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "history/store.h"
#include "monitor/counter_math.h"
#include "obs/metrics.h"

namespace netqos::mon {

/// (node name, ifDescr) key.
using InterfaceKey = std::pair<std::string, std::string>;

class StatsDb {
 public:
  StatsDb() = default;
  explicit StatsDb(hist::RetentionPolicy retention)
      : history_(std::move(retention)) {}

  /// Registers the db's instruments (sample updates, detected Counter32
  /// wraps, tracked-interface gauge) plus the backing history store's in
  /// `registry`. Telemetry is off until attached; re-attaching moves it
  /// to the new registry.
  void attach_metrics(obs::MetricsRegistry& registry);
  /// Records a fresh sample taken at monitor-side time `when`. Returns
  /// the rates vs. the previous sample, or nullopt for the first sample
  /// (or a zero uptime delta).
  std::optional<RateSample> update(const InterfaceKey& key, SimTime when,
                                   const CounterSample& sample);

  /// Most recent rates for an interface.
  std::optional<RateSample> latest_rate(const InterfaceKey& key) const;

  /// The bounded store backing all per-interface rate history: total
  /// (in+out) byte rates, named by hist::interface_series_key. Windowed
  /// min/mean/max/p95 queries go through here; the raw ring holds the
  /// individual rates.
  const hist::HistoryStore& history() const { return history_; }

  /// Number of interfaces tracked.
  std::size_t size() const { return entries_.size(); }

  /// Monitor-side time of the most recent update of this interface, or
  /// nullopt before its first sample.
  std::optional<SimTime> last_update(const InterfaceKey& key) const;

  /// Age of the interface's latest sample at `now`; nullopt before the
  /// first sample.
  std::optional<SimDuration> sample_age(const InterfaceKey& key,
                                        SimTime now) const;

 private:
  struct Entry {
    bool has_sample = false;
    CounterSample last_sample;
    SimTime last_time = 0;
    std::optional<RateSample> last_rate;
  };

  std::map<InterfaceKey, Entry> entries_;
  hist::HistoryStore history_;

  obs::Counter* updates_ = nullptr;
  obs::Counter* counter_wraps_ = nullptr;
  obs::Gauge* interfaces_gauge_ = nullptr;
};

}  // namespace netqos::mon
