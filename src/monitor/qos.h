// QoS violation detection (paper §5 future work, implemented here).
//
// The DeSiDeRaTa middleware consumes the monitor's metrics against a
// network QoS specification: each requirement demands a minimum available
// bandwidth on the path between two hosts. The detector subscribes to
// monitor samples and emits violation/recovery events with a bottleneck
// diagnosis. Hysteresis avoids flapping at the threshold.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "history/forecast.h"
#include "monitor/monitor.h"

namespace netqos::mon {

struct QosEvent {
  enum class Kind { kViolation, kRecovery };

  Kind kind = Kind::kViolation;
  PathKey path;
  SimTime time = 0;
  BytesPerSecond available = 0.0;
  BytesPerSecond required = 0.0;
  /// Connection index diagnosed as the bottleneck (valid for violations).
  std::size_t bottleneck = 0;
  std::string bottleneck_description;
};

/// Reactive violation detection, expressed as a measurement module: the
/// detector registers itself with the monitor's module host ("qos" name
/// family) and consumes the path-sample stream the bandwidth producer
/// emits.
class ViolationDetector : public Module {
 public:
  using EventCallback = std::function<void(const QosEvent&)>;

  /// `recovery_margin` is the fractional headroom above the requirement
  /// needed before a violated path is declared recovered. Registers with
  /// `monitor`'s module host; deregisters on destruction.
  explicit ViolationDetector(NetworkMonitor& monitor,
                             double recovery_margin = 0.05);

  /// Adds a requirement. The path must already be (or will be) registered
  /// with the monitor via add_path; this also registers it if missing.
  void add_requirement(const std::string& from, const std::string& to,
                       BytesPerSecond min_available);

  /// Subscribes to QoS events. Multiple consumers (logging, the RM
  /// middleware) may subscribe; all are invoked in subscription order.
  void add_event_callback(EventCallback callback) {
    callbacks_.push_back(std::move(callback));
  }

  /// All events observed so far, in order.
  const std::vector<QosEvent>& events() const { return events_; }

  /// True while the given path is in violation.
  bool in_violation(const std::string& from, const std::string& to) const;

  std::size_t footprint_bytes() const override;
  std::vector<ModuleNote> notes() const override;

 private:
  struct Requirement {
    PathKey key;
    BytesPerSecond min_available = 0.0;
    bool violated = false;
  };

  void on_path_sample(const PathKey& key, SimTime time,
                      const PathUsage& usage) override;

  NetworkMonitor& monitor_;
  double recovery_margin_;
  std::vector<Requirement> requirements_;
  std::vector<QosEvent> events_;
  std::vector<EventCallback> callbacks_;
};

/// Tuning for the predictive (early-warning) detector.
struct PredictiveConfig {
  /// How far ahead the Holt forecast is projected. A warning fires when
  /// the projected available bandwidth at now + horizon is below the
  /// requirement (while the current value still satisfies it).
  SimDuration horizon = 10 * kSecond;
  hist::HoltForecaster::Config smoothing;
  /// Samples the forecaster must absorb before any warning — the first
  /// trend estimates after a cold start are meaningless.
  std::size_t min_samples = 4;
  /// Consecutive breach forecasts needed before a warning is emitted.
  /// The breach forecast projects with the *least pessimistic* of the
  /// Holt trend and the raw slope over the last `confirm_rounds` samples:
  /// a genuine ramp keeps both negative, while after a sharp step-down
  /// the window slope collapses to ~0 within `confirm_rounds` polls even
  /// though the smoothed Holt trend lingers — so a step that lands above
  /// the requirement never warns.
  int confirm_rounds = 3;
  /// Fractional headroom the forecast must regain before kAllClear.
  double clear_margin = 0.1;
  /// Lower clamp on per-path measurement confidence (see
  /// set_path_confidence): even a fully distrusted passive measurement
  /// only tightens the effective requirement by 1/floor.
  double confidence_floor = 0.25;
};

struct PredictiveEvent {
  enum class Kind { kEarlyWarning, kAllClear };

  Kind kind = Kind::kEarlyWarning;
  PathKey path;
  SimTime time = 0;
  /// Measured available bandwidth at emission time.
  BytesPerSecond available = 0.0;
  /// Holt forecast of available bandwidth at time + horizon.
  BytesPerSecond forecast = 0.0;
  BytesPerSecond required = 0.0;
  /// Predicted time until the requirement is crossed (valid for
  /// warnings; unset when the trend flattened before the crossing).
  std::optional<SimDuration> predicted_in;
  /// Confidence in the passive measurement this event was judged from
  /// (1.0 unless an active/passive cross-check lowered it).
  double confidence = 1.0;
};

/// Early-warning QoS detector: feeds each path's available-bandwidth
/// samples through a Holt linear forecaster and raises kEarlyWarning when
/// the trend says the requirement will be crossed within `horizon` —
/// before the reactive ViolationDetector can see the actual violation.
/// Once the real violation happens the warning state retires silently
/// (the reactive event owns the incident from there). Like the reactive
/// detector, this is a measurement module consuming the path-sample
/// stream.
class PredictiveDetector : public Module {
 public:
  using EventCallback = std::function<void(const PredictiveEvent&)>;

  explicit PredictiveDetector(NetworkMonitor& monitor,
                              PredictiveConfig config = {});

  /// Registers the path with the monitor if missing, like
  /// ViolationDetector::add_requirement.
  void add_requirement(const std::string& from, const std::string& to,
                       BytesPerSecond min_available);

  void add_event_callback(EventCallback callback) {
    callbacks_.push_back(std::move(callback));
  }

  /// Feeds one available-bandwidth sample for a path — the same entry
  /// point monitor samples arrive through, exposed so stored history can
  /// be replayed through the forecaster and golden tests can drive
  /// synthetic step/ramp/steady loads.
  void observe(const PathKey& key, SimTime time, BytesPerSecond available);

  /// Sets how much the detector trusts the passive measurement of a
  /// path, in (0, 1]. Fed by the hybrid active/passive cross-check
  /// (src/probe): when occasional probes disagree with the SNMP-derived
  /// figure, confidence drops and the path must clear a proportionally
  /// higher forecast bar (required / confidence) before being considered
  /// safe — cross traffic the poller cannot see then warns earlier
  /// instead of never. Values are clamped to [confidence_floor, 1];
  /// 1.0 restores the exact untuned behavior. Unknown paths are ignored.
  void set_path_confidence(const std::string& from, const std::string& to,
                           double confidence, SimTime time);
  /// Current confidence for a path (1.0 when never set or unknown).
  double path_confidence(const std::string& from,
                         const std::string& to) const;

  const std::vector<PredictiveEvent>& events() const { return events_; }

  /// True while an early warning is active (and the requirement has not
  /// yet actually been violated).
  bool warning_active(const std::string& from, const std::string& to) const;

  /// Warnings emitted so far (kEarlyWarning events only).
  std::size_t warning_count() const;

  const PredictiveConfig& config() const { return config_; }

  std::size_t footprint_bytes() const override;
  std::vector<ModuleNote> notes() const override;

 private:
  struct Requirement {
    PathKey key;
    BytesPerSecond min_available = 0.0;
    hist::HoltForecaster forecaster;
    /// Last `confirm_rounds` samples, oldest first — the window the
    /// raw-slope clamp is computed over.
    std::vector<TimePoint> recent;
    int breach_streak = 0;
    bool warning = false;
    bool violated = false;  ///< actual violation observed; warning retired
    /// Passive-measurement trust from the active cross-check; scales the
    /// effective requirement (min_available / confidence).
    double confidence = 1.0;
    SimTime confidence_at = 0;
  };

  void on_path_sample(const PathKey& key, SimTime time,
                      const PathUsage& usage) override;

  NetworkMonitor& monitor_;
  PredictiveConfig config_;
  std::vector<Requirement> requirements_;
  std::vector<PredictiveEvent> events_;
  std::vector<EventCallback> callbacks_;
};

}  // namespace netqos::mon
