#include "monitor/qos.h"

#include <algorithm>

namespace netqos::mon {

ViolationDetector::ViolationDetector(NetworkMonitor& monitor,
                                     double recovery_margin)
    : Module("qos.violation"),
      monitor_(monitor),
      recovery_margin_(recovery_margin) {
  monitor_.modules().attach(*this);
}

void ViolationDetector::add_requirement(const std::string& from,
                                        const std::string& to,
                                        BytesPerSecond min_available) {
  try {
    monitor_.path_of(from, to);
  } catch (const std::out_of_range&) {
    monitor_.add_path(from, to);
  }
  requirements_.push_back({{from, to}, min_available, false});
}

void ViolationDetector::on_path_sample(const PathKey& key, SimTime time,
                                       const PathUsage& usage) {
  for (Requirement& req : requirements_) {
    if (!same_pair(req.key, key.first, key.second)) continue;

    const bool below = usage.available < req.min_available;
    const bool recovered =
        usage.available >= req.min_available * (1.0 + recovery_margin_);

    if (!req.violated && below) {
      req.violated = true;
      QosEvent event;
      event.kind = QosEvent::Kind::kViolation;
      event.path = req.key;
      event.time = time;
      event.available = usage.available;
      event.required = req.min_available;
      event.bottleneck = usage.bottleneck;
      event.bottleneck_description =
          monitor_.topology().connections()[usage.bottleneck].to_string();
      events_.push_back(event);
      for (const auto& callback : callbacks_) callback(events_.back());
    } else if (req.violated && recovered) {
      req.violated = false;
      QosEvent event;
      event.kind = QosEvent::Kind::kRecovery;
      event.path = req.key;
      event.time = time;
      event.available = usage.available;
      event.required = req.min_available;
      events_.push_back(event);
      for (const auto& callback : callbacks_) callback(events_.back());
    }
  }
}

bool ViolationDetector::in_violation(const std::string& from,
                                     const std::string& to) const {
  for (const Requirement& req : requirements_) {
    if (same_pair(req.key, from, to)) return req.violated;
  }
  return false;
}

std::size_t ViolationDetector::footprint_bytes() const {
  return requirements_.capacity() * sizeof(Requirement) +
         events_.capacity() * sizeof(QosEvent);
}

std::vector<ModuleNote> ViolationDetector::notes() const {
  std::size_t active = 0;
  for (const Requirement& req : requirements_) active += req.violated;
  return {{"requirements", std::to_string(requirements_.size())},
          {"events", std::to_string(events_.size())},
          {"active_violations", std::to_string(active)}};
}

PredictiveDetector::PredictiveDetector(NetworkMonitor& monitor,
                                       PredictiveConfig config)
    : Module("qos.predictive"), monitor_(monitor), config_(config) {
  monitor_.modules().attach(*this);
}

void PredictiveDetector::add_requirement(const std::string& from,
                                         const std::string& to,
                                         BytesPerSecond min_available) {
  try {
    monitor_.path_of(from, to);
  } catch (const std::out_of_range&) {
    monitor_.add_path(from, to);
  }
  Requirement req;
  req.key = {from, to};
  req.min_available = min_available;
  req.forecaster = hist::HoltForecaster(config_.smoothing);
  requirements_.push_back(std::move(req));
}

void PredictiveDetector::on_path_sample(const PathKey& key, SimTime time,
                                        const PathUsage& usage) {
  observe(key, time, usage.available);
}

void PredictiveDetector::set_path_confidence(const std::string& from,
                                             const std::string& to,
                                             double confidence,
                                             SimTime time) {
  const double clamped =
      std::clamp(confidence, config_.confidence_floor, 1.0);
  for (Requirement& req : requirements_) {
    if (!same_pair(req.key, from, to)) continue;
    req.confidence = clamped;
    req.confidence_at = time;
  }
}

double PredictiveDetector::path_confidence(const std::string& from,
                                           const std::string& to) const {
  for (const Requirement& req : requirements_) {
    if (same_pair(req.key, from, to)) return req.confidence;
  }
  return 1.0;
}

void PredictiveDetector::observe(const PathKey& key, SimTime time,
                                 BytesPerSecond available) {
  for (Requirement& req : requirements_) {
    if (!same_pair(req.key, key.first, key.second)) continue;

    req.forecaster.observe(time, available);
    // Raw slope across the confirm window (value change per second from
    // the sample `confirm_rounds` polls back to now), evaluated before
    // the window slides. No window yet -> 0, which suppresses breaches.
    double window_slope = 0.0;
    if (req.recent.size() >=
        static_cast<std::size_t>(config_.confirm_rounds)) {
      const TimePoint& oldest =
          req.recent[req.recent.size() -
                     static_cast<std::size_t>(config_.confirm_rounds)];
      const double dt = to_seconds(time - oldest.time);
      if (dt > 0.0) window_slope = (available - oldest.value) / dt;
    }
    req.recent.push_back({time, available});
    if (req.recent.size() >
        static_cast<std::size_t>(config_.confirm_rounds)) {
      req.recent.erase(req.recent.begin());
    }

    const bool below_now = available < req.min_available;
    if (below_now) {
      // The reactive detector owns the incident from the moment the
      // violation is real; the warning retires without an all-clear.
      req.violated = true;
      req.warning = false;
      req.breach_streak = 0;
      continue;
    }
    if (req.violated) {
      // Re-arm once the path has genuinely recovered above the margin.
      if (available >= req.min_available * (1.0 + config_.clear_margin)) {
        req.violated = false;
        req.forecaster.reset();
        req.forecaster.observe(time, available);
        req.recent.clear();
        req.recent.push_back({time, available});
      }
      continue;
    }
    if (req.forecaster.samples() < config_.min_samples) continue;

    // Project from the *measured* value with the least pessimistic of
    // the smoothed Holt trend and the raw confirm-window slope. The Holt
    // level and trend both lag a sharp step-down and keep predicting a
    // crossing after the decline has stopped; the window slope collapses
    // to ~0 as soon as the measurements flatten, so only a sustained
    // decline breaches for confirm_rounds in a row.
    //
    // A distrusted passive measurement raises the bar the forecast must
    // clear: the effective requirement is min_available / confidence
    // (exactly min_available at full trust — x / 1.0 is an identity in
    // IEEE arithmetic, keeping the untuned goldens bit-identical). When
    // confidence has actually been lowered, the measured value itself is
    // also held against the raised bar: cross traffic the poller cannot
    // see leaves the passive figure flat, so a trend-gated breach alone
    // would never fire there.
    const double trend =
        std::max(req.forecaster.trend_per_second(), window_slope);
    const double forecast = available + trend * to_seconds(config_.horizon);
    const double effective = req.min_available / req.confidence;
    const bool breach = (forecast < effective && trend < 0.0) ||
                        (req.confidence < 1.0 && available < effective);

    if (!req.warning) {
      req.breach_streak = breach ? req.breach_streak + 1 : 0;
      if (req.breach_streak >= config_.confirm_rounds) {
        req.warning = true;
        req.breach_streak = 0;
        PredictiveEvent event;
        event.kind = PredictiveEvent::Kind::kEarlyWarning;
        event.path = req.key;
        event.time = time;
        event.available = available;
        event.forecast = forecast;
        event.required = req.min_available;
        event.predicted_in =
            req.forecaster.time_until_below(req.min_available);
        event.confidence = req.confidence;
        events_.push_back(event);
        for (const auto& callback : callbacks_) callback(events_.back());
      }
    } else if (forecast >= effective * (1.0 + config_.clear_margin) &&
               !(req.confidence < 1.0 && available < effective)) {
      req.warning = false;
      PredictiveEvent event;
      event.kind = PredictiveEvent::Kind::kAllClear;
      event.path = req.key;
      event.time = time;
      event.available = available;
      event.forecast = forecast;
      event.required = req.min_available;
      event.confidence = req.confidence;
      events_.push_back(event);
      for (const auto& callback : callbacks_) callback(events_.back());
    }
  }
}

bool PredictiveDetector::warning_active(const std::string& from,
                                        const std::string& to) const {
  for (const Requirement& req : requirements_) {
    if (same_pair(req.key, from, to)) return req.warning;
  }
  return false;
}

std::size_t PredictiveDetector::warning_count() const {
  std::size_t count = 0;
  for (const PredictiveEvent& event : events_) {
    if (event.kind == PredictiveEvent::Kind::kEarlyWarning) ++count;
  }
  return count;
}

std::size_t PredictiveDetector::footprint_bytes() const {
  std::size_t recent = 0;
  for (const Requirement& req : requirements_) {
    recent += req.recent.capacity() * sizeof(TimePoint);
  }
  return requirements_.capacity() * sizeof(Requirement) + recent +
         events_.capacity() * sizeof(PredictiveEvent);
}

std::vector<ModuleNote> PredictiveDetector::notes() const {
  std::size_t warnings = 0;
  for (const Requirement& req : requirements_) warnings += req.warning;
  return {{"requirements", std::to_string(requirements_.size())},
          {"warnings", std::to_string(warning_count())},
          {"active_warnings", std::to_string(warnings)}};
}

}  // namespace netqos::mon
