// Reporting sinks: CSV writer and experiment-style summaries.
#pragma once

#include <ostream>
#include <string>

#include "common/stats.h"
#include "loadgen/profile.h"
#include "monitor/monitor.h"

namespace netqos::mon {

/// Streams every path sample as CSV rows:
/// time_s,from,to,used_KBps,available_KBps,bottleneck,freshness,age_s
class CsvSink {
 public:
  /// Subscribes to the monitor; the stream is flushed when the monitor
  /// stops. `out` must outlive the sink. A failed stream (badbit) is
  /// reported with a warning once instead of silently dropping rows.
  CsvSink(NetworkMonitor& monitor, std::ostream& out,
          bool write_header = true);

 private:
  std::ostream& out_;
  bool warned_bad_stream_ = false;
};

/// Writes the registry's JSONL snapshot (one object per series) when the
/// monitor stops, so a run's final metrics land on disk even when the
/// caller forgets an explicit render — the same stop-flush contract
/// CsvSink has for sample rows.
class MetricsJsonlSink {
 public:
  /// `registry` and `out` must outlive the monitor's stop.
  MetricsJsonlSink(NetworkMonitor& monitor, obs::MetricsRegistry& registry,
                   std::ostream& out);

 private:
  std::ostream& out_;
};

/// One row of a Table 2 style summary for a constant-load window.
struct LoadWindowStats {
  double generated_kbps = 0.0;        ///< KB/s, paper's "Generated Load"
  double measured_kbps = 0.0;         ///< average measured over the window
  double less_background_kbps = 0.0;  ///< measured minus background
  double percent_error = 0.0;         ///< of the window average
  double max_percent_error = 0.0;     ///< worst individual sample
  /// 95th percentile of per-sample |error| (histogram approximation) —
  /// a robust companion to max_percent_error, which a single polling
  /// spike dominates.
  double p95_percent_error = 0.0;
  /// Holt-smoothed slope of the measured series over the window, in KB/s
  /// per second — ~0 on a well-measured constant-load window; nonzero
  /// flags drift or contamination. Same estimator the PredictiveDetector
  /// uses for early warnings.
  double trend_kbps_per_s = 0.0;
};

/// Computes a Table 2 row from a measured series over [begin, end), given
/// the generated payload rate and the background level (both bytes/sec).
/// `settle` trims the start of the window so staircase transitions (and
/// one polling interval of lag) don't contaminate the average.
LoadWindowStats analyze_window(const TimeSeries& measured, SimTime begin,
                               SimTime end, BytesPerSecond generated,
                               BytesPerSecond background,
                               SimDuration settle = 0);

/// Average of a measured series over a window with zero generated load —
/// the paper's background estimate.
BytesPerSecond estimate_background(const TimeSeries& measured, SimTime begin,
                                   SimTime end);

}  // namespace netqos::mon
