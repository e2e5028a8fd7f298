#include "netsim/nic.h"

#include <algorithm>

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
  if (link_ == nullptr || link_->backlog(*this) >= queue_limit_) {
    ++counters_.if_out_discards;
    return false;
  }
  const auto octets = static_cast<std::uint32_t>(frame->wire_size());
  busy_until_ = std::max(sim_.now(), busy_until_) +
                transmission_delay(octets, speed_);
  link_->send(*this, std::move(frame), octets, busy_until_);
  return true;
}

void Nic::deliver(const Frame& frame) {
  const std::size_t octets = frame->wire_size();
  counters_.count_in(octets);
  total_in_octets_ += octets;
  owner_.on_frame(*this, frame);
}

}  // namespace netqos::sim
