#include "netsim/link.h"

#include <algorithm>
#include <stdexcept>

#include "common/units.h"
#include "netsim/nic.h"

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

void Link::Lane::push(InFlight frame) {
  if (size == ring.size()) {
    std::vector<InFlight> bigger(ring.empty() ? 8 : 2 * ring.size());
    for (std::size_t i = 0; i < size; ++i) bigger[i] = std::move(at(i));
    ring.swap(bigger);
    head = 0;
  }
  at(size) = std::move(frame);
  ++size;
}

void Link::Lane::pop_front() {
  ring[head].frame = Frame();
  head = (head + 1) & (ring.size() - 1);
  --size;
}

std::size_t Link::backlog(const Nic& from) {
  fold();
  const Lane& lane = lanes_[&from == &a_ ? 0 : 1];
  // The earliest unfinished frame is the one serializing.
  const std::size_t unfinished = lane.size - lane.folded;
  return unfinished == 0 ? 0 : unfinished - 1;
}

void Link::send(const Nic& from, Frame frame, std::uint32_t octets,
                SimTime finish) {
  const int lane = &from == &a_ ? 0 : 1;
  const bool arrives = receiver(lane).accepts(*frame);
  if (!arrives && !tap_) frame = Frame();  // only its octets matter now
  lanes_[lane].push(InFlight{std::move(frame), finish, octets, arrives});
  if (finish < next_finish_) next_finish_ = finish;
  if (arrives) {
    sim_.schedule_at(finish + propagation_delay_,
                     [this, lane] { arrive(lane); });
  } else {
    sim_.hold_until(finish);  // no event marks this finish
  }
}

bool Link::finishes_first(int x, int y) {
  const InFlight& fx = lanes_[x].at(lanes_[x].folded);
  const InFlight& fy = lanes_[y].at(lanes_[y].folded);
  if (fx.finish != fy.finish) return fx.finish < fy.finish;
  const SimTime start_x =
      fx.finish - transmission_delay(fx.octets, sender(x).speed());
  const SimTime start_y =
      fy.finish - transmission_delay(fy.octets, sender(y).speed());
  return start_x < start_y || (start_x == start_y && x == 0);
}

void Link::fold_due() {
  const SimTime now = sim_.now();
  for (;;) {
    const SimTime finish0 = lanes_[0].next_finish();
    const SimTime finish1 = lanes_[1].next_finish();
    next_finish_ = std::min(finish0, finish1);
    if (next_finish_ > now) return;
    if (finish0 != finish1) {
      finish_next(finish0 < finish1 ? 0 : 1);
    } else {
      finish_next(finishes_first(0, 1) ? 0 : 1);
    }
  }
}

void Link::finish_next(int lane_index) {
  Lane& lane = lanes_[lane_index];
  InFlight& frame = lane.at(lane.folded);
  Nic& from = sender(lane_index);
  from.counters_.count_out(frame.octets);
  from.total_out_octets_ += frame.octets;

  bool carried = false;
  if (!up_) {
    ++dropped_down_;
  } else if (loss_probability_ > 0.0 &&
             loss_rng_.uniform() < loss_probability_) {
    ++dropped_loss_;
  } else {
    carried = true;
    ++frames_carried_;
    octets_carried_ += frame.octets;
    // Non-promiscuous hardware filter: the far end's OS (and so its SNMP
    // counters) never sees this copy. This models hub-attached hosts
    // whose own counters under-report segment usage, forcing the paper's
    // summation.
    if (!frame.arrives) receiver(lane_index).filtered_octets_ += frame.octets;
  }

  // The tap runs last, once the lane is consistent again.
  const SimTime finish = frame.finish;
  const Frame tapped = carried && tap_ ? frame.frame : Frame();
  // A dropped frame's arrival delivers nothing; a filtered copy is done.
  if (!carried || !frame.arrives) frame.frame = Frame();
  if (frame.arrives || lane.folded > 0) {
    ++lane.folded;  // waits for its arrival, or for the one ahead of it
  } else {
    lane.pop_front();
  }
  if (tapped) tap_(finish, from, tapped);
}

void Link::arrive(int lane_index) {
  fold();
  Lane& lane = lanes_[lane_index];
  const Frame frame = std::move(lane.at(0).frame);
  lane.pop_front();
  --lane.folded;
  while (lane.folded > 0 && !lane.at(0).arrives) {
    lane.pop_front();
    --lane.folded;
  }
  if (frame) receiver(lane_index).deliver(frame);
}

void Link::set_up(bool up) {
  fold();
  if (up == up_) return;
  up_ = up;
  for (const auto& observer : observers_) observer(up_);
}

void Link::set_loss(double probability, std::uint64_t seed) {
  // Written so that NaN fails too: every comparison with NaN is false.
  if (!(probability >= 0.0 && probability <= 1.0)) {
    throw std::invalid_argument("link loss probability must be in [0, 1]");
  }
  fold();
  loss_probability_ = probability;
  loss_rng_ = Xoshiro256(seed);
}

void Link::set_tap(Tap tap) {
  fold();
  tap_ = std::move(tap);
}

}  // namespace netqos::sim
