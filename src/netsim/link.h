// Point-to-point cable between two NICs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "netsim/packet.h"

namespace netqos::sim {

class Nic;
class Simulator;

/// A full-duplex cable. The sending NIC handles serialization delay; the
/// link adds propagation delay and delivers to the far end.
///
/// Failure injection: a link can be administratively downed (frames are
/// dropped and state observers — e.g. SNMP agents emitting linkDown
/// traps — are notified) and can drop frames randomly with a seeded loss
/// probability (exercises SNMP client retries and monitor robustness).
class Link {
 public:
  /// Called on carrier transitions with the new state.
  using StateObserver = std::function<void(bool up)>;

  /// Attaches both NICs; they must not already be connected.
  Link(Simulator& sim, Nic& a, Nic& b,
       SimDuration propagation_delay = 500 * kNanosecond);

  Nic& peer_of(const Nic& nic);

  /// Called by a NIC when a frame has finished serializing.
  void carry(const Nic& from, Frame frame);

  SimDuration propagation_delay() const { return propagation_delay_; }

  /// Carrier control. Transitions notify observers.
  void set_up(bool up);
  bool up() const { return up_; }
  void add_state_observer(StateObserver observer) {
    observers_.push_back(std::move(observer));
  }

  /// Random frame loss in [0, 1]; deterministic under `seed`. Throws
  /// std::invalid_argument for NaN or a probability outside [0, 1].
  void set_loss(double probability, std::uint64_t seed = 0x10553);
  double loss() const { return loss_probability_; }

  /// Tap invoked for every frame the link actually carries (after the
  /// carrier/loss checks). Used by FrameTracer; one tap per link.
  using Tap = std::function<void(const Nic& from, const Frame& frame)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  std::uint64_t frames_dropped_down() const { return dropped_down_; }
  std::uint64_t frames_dropped_loss() const { return dropped_loss_; }

  /// Traffic actually carried (frames that survived the carrier/loss
  /// checks); octets count the full frame size.
  std::uint64_t frames_carried() const { return frames_carried_; }
  std::uint64_t octets_carried() const { return octets_carried_; }

  /// The two endpoints, in construction order. Used to label exported
  /// per-link metrics.
  const Nic& end_a() const { return a_; }
  const Nic& end_b() const { return b_; }

 private:
  Simulator& sim_;
  Nic& a_;
  Nic& b_;
  SimDuration propagation_delay_;

  bool up_ = true;
  double loss_probability_ = 0.0;
  Xoshiro256 loss_rng_{0x10553};
  std::vector<StateObserver> observers_;
  Tap tap_;
  std::uint64_t dropped_down_ = 0;
  std::uint64_t dropped_loss_ = 0;
  std::uint64_t frames_carried_ = 0;
  std::uint64_t octets_carried_ = 0;
};

}  // namespace netqos::sim
