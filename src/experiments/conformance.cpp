#include "experiments/conformance.h"

#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "experiments/lirtss.h"
#include "monitor/modules/registry.h"
#include "monitor/qos.h"
#include "monitor/report.h"
#include "probe/hybrid.h"

namespace netqos::exp {
namespace {

/// Renders a double so that any change in the underlying bits shows up
/// in the transcript (17 significant digits round-trip IEEE-754).
std::string exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void append_event(std::ostringstream& out, const mon::QosEvent& event) {
  out << "event t=" << exact(to_seconds(event.time)) << " "
      << (event.kind == mon::QosEvent::Kind::kViolation ? "VIOLATION"
                                                        : "recovery")
      << " " << event.path.first << "<->" << event.path.second
      << " available=" << exact(event.available)
      << " required=" << exact(event.required);
  if (event.kind == mon::QosEvent::Kind::kViolation) {
    out << " bottleneck=" << event.bottleneck_description;
  }
  out << "\n";
}

void append_predictive(std::ostringstream& out,
                       const mon::PredictiveEvent& event) {
  out << "event t=" << exact(to_seconds(event.time)) << " "
      << (event.kind == mon::PredictiveEvent::Kind::kEarlyWarning
              ? "EARLY-WARNING"
              : "all-clear")
      << " " << event.path.first << "<->" << event.path.second
      << " available=" << exact(event.available)
      << " forecast=" << exact(event.forecast)
      << " required=" << exact(event.required);
  if (event.predicted_in.has_value()) {
    out << " predicted_in=" << exact(to_seconds(*event.predicted_in));
  }
  out << "\n";
}

void append_window(std::ostringstream& out, const char* label,
                   const TimeSeries& series, SimTime begin, SimTime end,
                   BytesPerSecond generated, BytesPerSecond background) {
  const mon::LoadWindowStats row = mon::analyze_window(
      series, begin, end, generated, background, /*settle=*/seconds(6));
  out << "window " << label << " generated=" << exact(row.generated_kbps)
      << " measured=" << exact(row.measured_kbps)
      << " less_background=" << exact(row.less_background_kbps)
      << " pct_error=" << exact(row.percent_error)
      << " max_pct_error=" << exact(row.max_percent_error)
      << " p95_pct_error=" << exact(row.p95_percent_error)
      << " trend=" << exact(row.trend_kbps_per_s) << "\n";
}

void append_usage(std::ostringstream& out, const std::string& from,
                  const std::string& to, const mon::PathUsage& usage) {
  out << "usage " << from << "<->" << to
      << " complete=" << usage.complete << " link_down=" << usage.link_down
      << " available=" << exact(usage.available)
      << " used=" << exact(usage.used_at_bottleneck)
      << " bottleneck=" << usage.bottleneck
      << " freshness=" << mon::freshness_name(usage.freshness)
      << " max_age=" << exact(to_seconds(usage.max_sample_age)) << "\n";
  for (const mon::ConnectionUsage& conn : usage.connections) {
    out << "  connection " << conn.connection
        << " used=" << exact(conn.used)
        << " capacity=" << exact(conn.capacity)
        << " available=" << exact(conn.available)
        << " discard_rate=" << exact(conn.discard_rate)
        << " hub_rule=" << conn.hub_rule << " measured=" << conn.measured
        << " via_switch=" << conn.via_switch << "\n";
  }
}

void append_history(std::ostringstream& out, const mon::NetworkMonitor& mon,
                    const std::string& from, const std::string& to,
                    SimTime end) {
  const std::string key = hist::path_series_key(from, to, "avail");
  const hist::WindowSummary window = mon.history().query(key, 0, end);
  out << "history " << from << "<->" << to << " samples=" << window.samples
      << " min=" << exact(window.min) << " mean=" << exact(window.mean)
      << " max=" << exact(window.max) << " p95=" << exact(window.p95)
      << " resolution=" << exact(to_seconds(window.resolution))
      << " complete=" << window.complete << "\n";
}

void append_stats(std::ostringstream& out, const mon::NetworkMonitor& mon) {
  const mon::MonitorStats stats = mon.stats();
  out << "stats rounds_started=" << stats.rounds_started
      << " rounds_completed=" << stats.rounds_completed
      << " rounds_failed=" << stats.rounds_failed
      << " agent_polls=" << stats.agent_polls
      << " poll_failures=" << stats.agent_poll_failures
      << " resolve_failures=" << stats.resolve_failures
      << " polls_skipped=" << stats.polls_skipped
      << " quarantines=" << stats.quarantine_transitions << "\n";
  for (const auto& agent : mon.scheduler().agents()) {
    out << "agent " << agent.node << " health="
        << mon::agent_health_name(agent.health) << " polls=" << agent.polls
        << " failures=" << agent.failures
        << " quarantines=" << agent.quarantines << "\n";
  }
}

struct Scenario {
  LirtssTestbed bed;
  std::ostringstream out;
  bool observers = false;
  std::unique_ptr<mon::ViolationDetector> detector;
  std::unique_ptr<mon::PredictiveDetector> predictive;
  std::unique_ptr<mon::CsvSink> csv;

  /// Detectors register before the CSV sink, like netqosmon: per sample,
  /// event lines precede the sample's CSV row. The conformance diff pins
  /// that consumer ordering. With `observers` set, every registry module
  /// joins the pipeline too — they must not perturb the transcript.
  void arm(bool with_predictive) {
    detector = std::make_unique<mon::ViolationDetector>(bed.monitor());
    detector->add_event_callback(
        [this](const mon::QosEvent& event) { append_event(out, event); });
    if (with_predictive) {
      mon::PredictiveConfig pconfig;
      pconfig.horizon = 30 * kSecond;
      predictive = std::make_unique<mon::PredictiveDetector>(bed.monitor(),
                                                             pconfig);
      predictive->add_event_callback([this](
                                         const mon::PredictiveEvent& event) {
        append_predictive(out, event);
      });
    }
    csv = std::make_unique<mon::CsvSink>(bed.monitor(), out);
    if (observers) {
      for (auto& module : mon::make_modules("all")) {
        bed.monitor().add_module(std::move(module));
      }
      // The probe cross-check module rides along too: with no estimator
      // feeding it, it must stay inert even with the detector wired up.
      auto hybrid = std::make_unique<probe::HybridEstimator>();
      if (predictive != nullptr) hybrid->set_detector(*predictive);
      bed.monitor().add_module(std::move(hybrid));
    }
  }
};

std::string run_fig4(bool observers) {
  Scenario s;
  s.observers = observers;
  s.out << "scenario fig4 staircase L->N1, watch S1<->N1\n";
  const auto profile = load::RateProfile::staircase(
      kilobytes_per_second(100), seconds(120), kilobytes_per_second(100),
      seconds(60), /*steps=*/5, /*off_time=*/seconds(420));
  s.bed.add_load("L", "N1", profile);
  s.bed.watch("S1", "N1");
  s.arm(/*with_predictive=*/true);
  // 6.8 Mbps on a 10 Mbps hub segment: the 400 and 500 KB/s steps leave
  // less available than required, so the staircase produces violation,
  // recovery, and (on the descending forecast) early-warning events.
  s.detector->add_requirement("S1", "N1", kilobytes_per_second(850));
  s.predictive->add_requirement("S1", "N1", kilobytes_per_second(850));
  s.bed.run_until(seconds(480));
  s.bed.monitor().stop();

  const TimeSeries& measured = s.bed.monitor().used_series("S1", "N1");
  const BytesPerSecond background =
      mon::estimate_background(measured, seconds(430), seconds(480));
  s.out << "background=" << exact(background) << "\n";
  struct Window {
    const char* label;
    double generated_kb;
    double begin_s, end_s;
  };
  const Window windows[] = {
      {"100KB", 100, 0, 120},    {"200KB", 200, 120, 180},
      {"300KB", 300, 180, 240},  {"400KB", 400, 240, 300},
      {"500KB", 500, 300, 360},
  };
  for (const Window& w : windows) {
    append_window(s.out, w.label, measured, from_seconds(w.begin_s),
                  from_seconds(w.end_s),
                  kilobytes_per_second(w.generated_kb), background);
  }
  append_usage(s.out, "S1", "N1", s.bed.monitor().current_usage("S1", "N1"));
  append_history(s.out, s.bed.monitor(), "S1", "N1", seconds(480));
  append_stats(s.out, s.bed.monitor());
  return s.out.str();
}

std::string run_fig5(bool observers) {
  Scenario s;
  s.observers = observers;
  s.out << "scenario fig5 hub contention, watch S1<->N1 S1<->N2\n";
  s.bed.add_load("L", "N1",
                 load::RateProfile::pulse(seconds(20), seconds(60),
                                          kilobytes_per_second(200)));
  s.bed.add_load("L", "N2",
                 load::RateProfile::pulse(seconds(40), seconds(80),
                                          kilobytes_per_second(200)));
  s.bed.watch("S1", "N1").watch("S1", "N2");
  s.arm(/*with_predictive=*/false);
  // 7.2 Mbps: the 400 KB/s both-loads window leaves ~839 KB/s available
  // on the hub, below the 900 KB/s requirement — one violation/recovery
  // pair per path (both bottleneck on the shared hub domain).
  s.detector->add_requirement("S1", "N1", kilobytes_per_second(900));
  s.detector->add_requirement("S1", "N2", kilobytes_per_second(900));
  s.bed.run_until(seconds(100));
  s.bed.monitor().stop();

  const TimeSeries& n1 = s.bed.monitor().used_series("S1", "N1");
  const BytesPerSecond background =
      mon::estimate_background(n1, seconds(0), seconds(18));
  s.out << "background=" << exact(background) << "\n";
  append_window(s.out, "only-N1", n1, seconds(20), seconds(40),
                kilobytes_per_second(200), background);
  append_window(s.out, "both", n1, seconds(40), seconds(60),
                kilobytes_per_second(400), background);
  append_window(s.out, "only-N2", n1, seconds(60), seconds(80),
                kilobytes_per_second(200), background);
  append_usage(s.out, "S1", "N1", s.bed.monitor().current_usage("S1", "N1"));
  append_usage(s.out, "S1", "N2", s.bed.monitor().current_usage("S1", "N2"));
  append_history(s.out, s.bed.monitor(), "S1", "N1", seconds(100));
  append_history(s.out, s.bed.monitor(), "S1", "N2", seconds(100));
  append_stats(s.out, s.bed.monitor());
  return s.out.str();
}

std::string run_fig6(bool observers) {
  Scenario s;
  s.observers = observers;
  s.out << "scenario fig6 switch isolation, watch S1<->S2 S1<->S3\n";
  s.bed.add_load("L", "S2",
                 load::RateProfile::pulse(seconds(20), seconds(60),
                                          kilobytes_per_second(2000)));
  s.bed.add_load("L", "S3",
                 load::RateProfile::pulse(seconds(40), seconds(80),
                                          kilobytes_per_second(2000)));
  s.bed.add_load("L", "S1",
                 load::RateProfile::pulse(seconds(100), seconds(120),
                                          kilobytes_per_second(2000)));
  s.bed.watch("S1", "S2").watch("S1", "S3");
  s.arm(/*with_predictive=*/false);
  // 85 Mbps on 100 Mbps switch links: a 2000 KB/s load leaves ~10.4 MB/s,
  // below the 10.625 MB/s requirement, so each pulse that crosses a
  // path's ports produces a violation/recovery pair — and the isolation
  // property shows as S1<->S3 staying quiet during the S2-only window.
  s.detector->add_requirement("S1", "S2", kilobytes_per_second(10'625));
  s.detector->add_requirement("S1", "S3", kilobytes_per_second(10'625));
  s.bed.run_until(seconds(140));
  s.bed.monitor().stop();

  const TimeSeries& s2 = s.bed.monitor().used_series("S1", "S2");
  const TimeSeries& s3 = s.bed.monitor().used_series("S1", "S3");
  const BytesPerSecond background =
      mon::estimate_background(s2, seconds(0), seconds(18));
  s.out << "background=" << exact(background) << "\n";
  append_window(s.out, "S2-on-S1S2", s2, seconds(20), seconds(40),
                kilobytes_per_second(2000), background);
  append_window(s.out, "S2-not-S1S3", s3, seconds(20), seconds(40), 0.0,
                background);
  append_window(s.out, "S3-on-S1S3", s3, seconds(60), seconds(80),
                kilobytes_per_second(2000), background);
  append_window(s.out, "S3-not-S1S2", s2, seconds(60), seconds(80), 0.0,
                background);
  append_window(s.out, "S1-on-S1S2", s2, seconds(100), seconds(120),
                kilobytes_per_second(2000), background);
  append_window(s.out, "S1-on-S1S3", s3, seconds(100), seconds(120),
                kilobytes_per_second(2000), background);
  append_usage(s.out, "S1", "S2", s.bed.monitor().current_usage("S1", "S2"));
  append_usage(s.out, "S1", "S3", s.bed.monitor().current_usage("S1", "S3"));
  append_history(s.out, s.bed.monitor(), "S1", "S2", seconds(140));
  append_history(s.out, s.bed.monitor(), "S1", "S3", seconds(140));
  append_stats(s.out, s.bed.monitor());
  return s.out.str();
}

}  // namespace

std::vector<std::string> conformance_scenarios() {
  return {"fig4", "fig5", "fig6"};
}

std::string run_conformance_scenario(const std::string& name,
                                     bool enable_observer_modules) {
  if (name == "fig4") return run_fig4(enable_observer_modules);
  if (name == "fig5") return run_fig5(enable_observer_modules);
  if (name == "fig6") return run_fig6(enable_observer_modules);
  throw std::invalid_argument("unknown conformance scenario: " + name);
}

}  // namespace netqos::exp
