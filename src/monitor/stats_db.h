// Interface statistics database.
//
// Stores the latest counter sample per measure point, computes rates on
// update (paper §3.1 differencing), and streams rate history into a
// bounded multi-resolution history store (src/history/) — memory is
// O(interfaces x retention capacity), flat in run length, instead of the
// old unbounded per-interface TimeSeries vectors. Sample ages are tracked
// per-interface: a single fresh agent must never mask the staleness of
// the others, so freshness queries always name the interface.
//
// Entries are a vector indexed by the plan's dense PointId. A point's
// names are read once, to key its history series at its first rate;
// after that an update neither builds nor looks up a key.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "history/store.h"
#include "monitor/counter_math.h"
#include "monitor/plan.h"
#include "obs/metrics.h"

namespace netqos::mon {

class StatsDb {
 public:
  StatsDb() = default;
  explicit StatsDb(hist::RetentionPolicy retention)
      : history_(std::move(retention)) {}
  // Entries hold handles into the db's own history store.
  StatsDb(const StatsDb&) = delete;
  StatsDb& operator=(const StatsDb&) = delete;

  /// Registers the db's instruments (sample updates, detected Counter32
  /// wraps, tracked-interface gauge) plus the backing history store's in
  /// `registry`. Telemetry is off until attached; re-attaching moves it
  /// to the new registry.
  void attach_metrics(obs::MetricsRegistry& registry);
  /// Records a fresh sample of `point`, taken at monitor-side time
  /// `when`. The point's id selects its entry; its names key the history
  /// series, made at the point's first rate. Returns the rates vs. the
  /// previous sample, or nullopt for the first sample (or a zero uptime
  /// delta). Bumps version().
  std::optional<RateSample> update(const MeasurePoint& point, SimTime when,
                                   const CounterSample& sample);

  /// Most recent rates of a point; nullopt before its first rate.
  std::optional<RateSample> latest_rate(PointId point) const;

  /// The bounded store backing all per-interface rate history: total
  /// (in+out) byte rates, named by hist::interface_series_key. Windowed
  /// min/mean/max/p95 queries go through here; the raw ring holds the
  /// individual rates.
  const hist::HistoryStore& history() const { return history_; }

  /// Number of interfaces with at least one sample.
  std::size_t size() const { return tracked_; }

  /// Monitor-side time of the point's most recent update, or nullopt
  /// before its first sample.
  std::optional<SimTime> last_update(PointId point) const;

  /// Age of the point's latest sample at `now`; nullopt before the first
  /// sample.
  std::optional<SimDuration> sample_age(PointId point, SimTime now) const;

  /// Bumped by every update. A figure derived from the db's rates and
  /// sample times is current while this is unchanged.
  std::uint64_t version() const { return version_; }

 private:
  struct Entry {
    bool has_sample = false;
    CounterSample last_sample;
    SimTime last_time = 0;
    std::optional<RateSample> last_rate;
    hist::Series* series = nullptr;  ///< made at the first rate
  };

  /// The entry of `point`, or null past the highest id updated so far.
  const Entry* find(PointId point) const {
    return point < entries_.size() ? &entries_[point] : nullptr;
  }

  std::vector<Entry> entries_;  ///< by PointId, grown on demand
  std::size_t tracked_ = 0;     ///< entries with a sample
  std::uint64_t version_ = 0;
  hist::HistoryStore history_;

  obs::Counter* updates_ = nullptr;
  obs::Counter* counter_wraps_ = nullptr;
  obs::Gauge* interfaces_gauge_ = nullptr;
};

}  // namespace netqos::mon
