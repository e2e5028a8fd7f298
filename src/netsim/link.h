// Point-to-point cable between two NICs, and the frames in flight on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "netsim/packet.h"
#include "netsim/simulator.h"

namespace netqos::sim {

class Nic;

/// A full-duplex cable. A frame hop costs one simulator event, the
/// frame's arrival at the far NIC one propagation delay after its last bit
/// is serialized, and none at all for a copy the far NIC's MAC filter
/// drops.
///
/// Each direction keeps a FIFO of the frames its sending NIC has
/// accepted, in the order they finish serializing ("finish"). What
/// happens at a finish is applied lazily, by fold(): the sender counts the
/// frame out, the carrier and loss checks run, the frame is counted as
/// carried and shown to the tap, and a copy the far NIC filters adds to
/// its filtered_octets(). fold() does this for every frame whose finish is
/// at or before now, in finish order across both directions. Everything
/// that reads a counter of the link or of either NIC, changes the carrier,
/// the loss or the tap, sends, or handles an arrival folds first. A read
/// at time t so sees what it would see had each finish been an event.
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
  // Pending arrival events hold this link's address.
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

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
  /// carrier/loss checks), with the frame's finish time. It runs when the
  /// link folds, so it can run later than `when`. Used by FrameTracer;
  /// one tap per link. A copy the far NIC filters is shown only if the
  /// tap was set before the copy was sent.
  using Tap =
      std::function<void(SimTime when, const Nic& from, const Frame& frame)>;
  void set_tap(Tap tap);

  /// The counters below are not const: a read folds first.
  std::uint64_t frames_dropped_down() {
    fold();
    return dropped_down_;
  }
  std::uint64_t frames_dropped_loss() {
    fold();
    return dropped_loss_;
  }

  /// Traffic actually carried (frames that survived the carrier/loss
  /// checks); octets count the full frame size.
  std::uint64_t frames_carried() {
    fold();
    return frames_carried_;
  }
  std::uint64_t octets_carried() {
    fold();
    return octets_carried_;
  }

  /// The two endpoints, in construction order. Used to label exported
  /// per-link metrics.
  const Nic& end_a() const { return a_; }
  const Nic& end_b() const { return b_; }

  /// Applies every finish at or before now that is not applied yet. Costs
  /// one comparison when none is due.
  void fold() {
    if (sim_.now() >= next_finish_) fold_due();
  }

 private:
  friend class Nic;  // Nic::transmit uses backlog() and send()

  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  struct InFlight {
    Frame frame;  ///< null once nothing will read it
    SimTime finish = 0;
    std::uint32_t octets = 0;
    bool arrives = false;  ///< the far NIC accepts it: arrival scheduled
  };

  /// The frames in flight in one direction, in finish order: a ring whose
  /// storage doubles when full and is reused from then on. The first
  /// `folded` have finished and wait for their arrival; the rest have not
  /// finished. A finished copy the far NIC filters leaves the ring as soon
  /// as it reaches the front.
  struct Lane {
    std::vector<InFlight> ring;  ///< empty, or a power of two in size
    std::size_t head = 0;
    std::size_t size = 0;
    std::size_t folded = 0;

    InFlight& at(std::size_t i) { return ring[(head + i) & (ring.size() - 1)]; }
    /// Finish of the first unfolded frame, or kNever.
    SimTime next_finish() {
      return folded < size ? at(folded).finish : kNever;
    }
    void push(InFlight frame);
    void pop_front();
  };

  /// Frames `from` has accepted that wait behind the one it is
  /// serializing. Folds first.
  std::size_t backlog(const Nic& from);
  /// Puts a frame `from` accepted on the wire. It finishes serializing at
  /// `finish`, which is after every earlier frame from `from`.
  void send(const Nic& from, Frame frame, std::uint32_t octets,
            SimTime finish);

  Nic& sender(int lane) { return lane == 0 ? a_ : b_; }
  Nic& receiver(int lane) { return lane == 0 ? b_ : a_; }
  /// Whether lane `x`'s next unfolded frame finishes before lane `y`'s:
  /// by finish, then by when serialization started, then lane 0 first.
  bool finishes_first(int x, int y);
  void fold_due();
  /// Applies the finish of `lane`'s first unfolded frame.
  void finish_next(int lane);
  /// The arrival event of `lane`'s front frame.
  void arrive(int lane);

  Simulator& sim_;
  Nic& a_;
  Nic& b_;
  SimDuration propagation_delay_;

  Lane lanes_[2];  ///< [0]: a_ to b_, [1]: b_ to a_
  SimTime next_finish_ = kNever;  ///< earliest unfolded finish

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
