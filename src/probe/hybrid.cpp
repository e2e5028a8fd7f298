#include "probe/hybrid.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace netqos::probe {

HybridEstimator::HybridEstimator(HybridConfig config)
    : mon::Module("probe.hybrid"), config_(config) {}

void HybridEstimator::on_path_sample(const mon::PathKey& key, SimTime time,
                                     const mon::PathUsage& usage) {
  if (estimator_ == nullptr) return;
  if (!mon::same_pair(key, estimator_->path().from, estimator_->path().to)) {
    return;
  }
  if (estimator_->convergence() == Convergence::kWarmup) return;

  const auto& estimates = estimator_->estimates();
  if (estimates.empty()) return;
  const EstimateSample& probe = estimates.back();
  if (time - probe.time > config_.max_estimate_age) return;

  const double capacity =
      to_bytes_per_second(estimator_->path().capacity);
  if (capacity <= 0.0) return;

  // Disagreement only counts when the probe sees *less* headroom than the
  // counters do: an optimistic probe (converging from above, or a quiet
  // sampling window) is no reason to distrust the passive figure.
  const double gap =
      std::max(0.0, usage.available - probe.available) / capacity;
  last_disagreement_ = gap;
  ++cross_checks_;

  const double excess = std::max(0.0, gap - config_.deadband);
  const double agreement = std::clamp(1.0 - excess, 0.0, 1.0);
  confidence_ += config_.smoothing * (agreement - confidence_);
  // A clean streak decays back to full trust exactly (asymptotic EWMA
  // would hover just below 1.0 and keep the raised bar forever).
  if (agreement >= 1.0 && confidence_ > 0.995) confidence_ = 1.0;

  if (detector_ != nullptr) {
    detector_->set_path_confidence(key.first, key.second, confidence_, time);
  }
}

std::size_t HybridEstimator::footprint_bytes() const {
  return sizeof(double) * 2 + sizeof(std::uint64_t);
}

std::vector<mon::ModuleNote> HybridEstimator::notes() const {
  std::vector<mon::ModuleNote> notes;
  notes.push_back({"estimator",
                   estimator_ != nullptr ? estimator_->name() : "none"});
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", confidence_);
  notes.push_back({"confidence", buffer});
  notes.push_back({"cross_checks", std::to_string(cross_checks_)});
  if (last_disagreement_.has_value()) {
    std::snprintf(buffer, sizeof(buffer), "%.3f", *last_disagreement_);
    notes.push_back({"last_disagreement", buffer});
  }
  return notes;
}

}  // namespace netqos::probe
