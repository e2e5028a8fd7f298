#include "netsim/link.h"

#include <stdexcept>

#include "netsim/nic.h"
#include "netsim/simulator.h"

namespace netqos::sim {

Link::Link(Simulator& sim, Nic& a, Nic& b, SimDuration propagation_delay)
    : sim_(sim), a_(a), b_(b), propagation_delay_(propagation_delay) {
  if (a_.connected() || b_.connected()) {
    throw std::invalid_argument(
        "NIC already connected (connections must be 1-to-1)");
  }
  a_.attach(this);
  b_.attach(this);
}

Nic& Link::peer_of(const Nic& nic) {
  if (&nic == &a_) return b_;
  if (&nic == &b_) return a_;
  throw std::invalid_argument("NIC not on this link");
}

void Link::carry(const Nic& from, Frame frame) {
  if (!up_) {
    ++dropped_down_;
    return;
  }
  if (loss_probability_ > 0.0 && loss_rng_.uniform() < loss_probability_) {
    ++dropped_loss_;
    return;
  }
  ++frames_carried_;
  octets_carried_ += frame->wire_size();
  if (tap_) tap_(from, frame);
  Nic& to = peer_of(from);
  sim_.schedule_after(propagation_delay_,
                      [&to, frame = std::move(frame)] { to.deliver(frame); });
}

void Link::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  for (const auto& observer : observers_) observer(up_);
}

void Link::set_loss(double probability, std::uint64_t seed) {
  // Written so that NaN fails too: every comparison with NaN is false.
  if (!(probability >= 0.0 && probability <= 1.0)) {
    throw std::invalid_argument("link loss probability must be in [0, 1]");
  }
  loss_probability_ = probability;
  loss_rng_ = Xoshiro256(seed);
}

}  // namespace netqos::sim
