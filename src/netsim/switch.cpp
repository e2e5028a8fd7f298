#include "netsim/switch.h"

namespace netqos::sim {

void Switch::enable_management(Ipv4Address ip, MacAddress mac,
                               const ArpResolver& arp) {
  management_mac_ = mac;
  management_ = std::make_unique<UdpStack>(
      sim_, ip, mac, arp,
      [this](Frame frame) { return send_from_management(std::move(frame)); });
}

void Switch::on_frame(Nic& ingress, const Frame& frame) {
  Nic*& learned = fdb_[frame->src];  // learn
  if (learned != &ingress) {
    learned = &ingress;
    ++stats_.fdb_changes;
  }

  if (management_ != nullptr && frame->dst == management_mac_) {
    ++stats_.frames_to_management;
    management_->deliver(frame->ip);
    return;
  }

  if (frame->dst.is_broadcast()) {
    ++stats_.frames_flooded;
    flood(&ingress, frame);
    return;
  }

  auto it = fdb_.find(frame->dst);
  if (it == fdb_.end()) {
    ++stats_.frames_flooded;
    flood(&ingress, frame);
    return;
  }
  if (it->second == &ingress) {
    // Destination lives behind the same port (e.g. two hosts on one hub):
    // the hub already repeated it; forwarding back would duplicate.
    ++stats_.frames_dropped_same_port;
    return;
  }
  ++stats_.frames_forwarded;
  it->second->transmit(frame);
}

Nic* Switch::learned_port(MacAddress mac) {
  auto it = fdb_.find(mac);
  return it == fdb_.end() ? nullptr : it->second;
}

bool Switch::send_from_management(Frame frame) {
  auto it = fdb_.find(frame->dst);
  if (it != fdb_.end()) return it->second->transmit(std::move(frame));
  flood(nullptr, frame);
  return true;
}

void Switch::flood(const Nic* except, const Frame& frame) {
  for (auto& nic : nics_) {
    if (nic.get() != except) nic->transmit(frame);
  }
}

}  // namespace netqos::sim
