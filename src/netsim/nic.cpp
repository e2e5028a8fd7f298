#include "netsim/nic.h"

#include "common/log.h"
#include "netsim/link.h"
#include "netsim/node.h"
#include "netsim/simulator.h"

namespace netqos::sim {

Nic::Nic(Simulator& sim, Node& owner, std::string name, BitsPerSecond speed,
         MacAddress mac, bool promiscuous)
    : sim_(sim),
      owner_(owner),
      name_(std::move(name)),
      speed_(speed),
      mac_(mac),
      promiscuous_(promiscuous) {}

bool Nic::transmit(Frame frame) {
  if (link_ == nullptr || tx_queue_.size() >= queue_limit_) {
    ++counters_.if_out_discards;
    return false;
  }
  tx_queue_.push_back(std::move(frame));
  if (!transmitting_) start_transmission();
  return true;
}

void Nic::start_transmission() {
  if (tx_queue_.empty()) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  Frame frame = std::move(tx_queue_.front());
  tx_queue_.pop_front();
  const std::size_t octets = frame->wire_size();
  const SimDuration serialize = transmission_delay(octets, speed_);
  sim_.schedule_after(
      serialize, [this, frame = std::move(frame), octets]() mutable {
        counters_.count_out(octets);
        total_out_octets_ += octets;
        if (link_ != nullptr) link_->carry(*this, std::move(frame));
        start_transmission();  // drain the queue
      });
}

void Nic::deliver(const Frame& frame) {
  const std::size_t octets = frame->wire_size();
  const bool addressed_to_us =
      promiscuous_ || frame->dst == mac_ || frame->dst.is_broadcast();
  if (!addressed_to_us) {
    // Non-promiscuous hardware filter: the OS (and so the SNMP counter)
    // never sees this frame. This models hub-attached hosts whose own
    // counters under-report segment usage, forcing the paper's summation.
    filtered_octets_ += octets;
    return;
  }
  counters_.count_in(octets);
  total_in_octets_ += octets;
  owner_.on_frame(*this, frame);
}

}  // namespace netqos::sim
