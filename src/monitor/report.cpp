#include "monitor/report.h"

#include <cmath>

#include "common/log.h"
#include "history/forecast.h"

namespace netqos::mon {

CsvSink::CsvSink(NetworkMonitor& monitor, std::ostream& out,
                 bool write_header)
    : out_(out) {
  if (write_header) {
    out_ << "time_s,from,to,used_KBps,available_KBps,bottleneck,"
            "freshness,age_s\n";
  }
  monitor.add_sample_callback([this, &monitor](const PathKey& key,
                                               SimTime time,
                                               const PathUsage& usage) {
    out_ << to_seconds(time) << ',' << key.first << ',' << key.second << ','
         << to_kilobytes_per_second(usage.used_at_bottleneck) << ','
         << to_kilobytes_per_second(usage.available) << ','
         << monitor.topology().connections()[usage.bottleneck].to_string()
         << ',' << freshness_name(usage.freshness) << ','
         << to_seconds(usage.max_sample_age) << '\n';
    if (out_.bad() && !warned_bad_stream_) {
      warned_bad_stream_ = true;
      NETQOS_WARN_C("report")
          << "CSV output stream failed (badbit); rows are being lost";
    }
  });
  monitor.add_stop_callback([this] { out_.flush(); });
}

MetricsJsonlSink::MetricsJsonlSink(NetworkMonitor& monitor,
                                   obs::MetricsRegistry& registry,
                                   std::ostream& out)
    : out_(out) {
  monitor.add_stop_callback([this, &registry] {
    registry.render_jsonl(out_);
    out_.flush();
    if (out_.bad()) {
      NETQOS_WARN_C("report")
          << "metrics JSONL stream failed (badbit); snapshot lost";
    }
  });
}

LoadWindowStats analyze_window(const TimeSeries& measured, SimTime begin,
                               SimTime end, BytesPerSecond generated,
                               BytesPerSecond background,
                               SimDuration settle) {
  LoadWindowStats stats;
  stats.generated_kbps = to_kilobytes_per_second(generated);

  const SimTime effective_begin = begin + settle;
  const RunningStats window = measured.stats_between(effective_begin, end);
  stats.measured_kbps = to_kilobytes_per_second(window.mean());
  stats.less_background_kbps =
      to_kilobytes_per_second(window.mean() - background);

  if (generated > 0.0) {
    stats.percent_error =
        100.0 * (window.mean() - background - generated) / generated;
    stats.max_percent_error =
        100.0 * measured.max_relative_error(effective_begin, end,
                                            generated + background);
    // Distribution of per-sample errors: 0.25% .. ~64% doubling buckets.
    Histogram errors = Histogram::exponential(0.25, 2.0, 9);
    const double reference = generated + background;
    for (const auto& p : measured.points()) {
      if (p.time >= effective_begin && p.time < end) {
        errors.add(100.0 * std::fabs(p.value - reference) / reference);
      }
    }
    stats.p95_percent_error = errors.percentile(0.95);
  }
  stats.trend_kbps_per_s = to_kilobytes_per_second(
      hist::holt_trend_per_second(measured, effective_begin, end));
  return stats;
}

BytesPerSecond estimate_background(const TimeSeries& measured, SimTime begin,
                                   SimTime end) {
  return measured.mean_between(begin, end);
}

}  // namespace netqos::mon
