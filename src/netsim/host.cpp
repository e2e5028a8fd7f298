#include "netsim/host.h"

#include <stdexcept>

namespace netqos::sim {

Host::Host(Simulator& sim, std::string name, const ArpResolver& arp)
    : Node(sim, std::move(name)), arp_(arp) {}

Nic& Host::add_host_interface(std::string name, BitsPerSecond speed,
                              MacAddress mac, Ipv4Address ip) {
  Nic& nic =
      add_interface(std::move(name), speed, mac, /*promiscuous=*/false);
  nic_ips_[&nic] = ip;
  if (udp_ == nullptr) {
    primary_ip_ = ip;
    // Egress policy: a LAN host sends on its first interface; multi-homed
    // hosts in the paper's model (Fig. 1, node B) still have one stack.
    udp_ = std::make_unique<UdpStack>(
        sim_, ip, mac, arp_,
        [&nic](Frame frame) { return nic.transmit(std::move(frame)); });
  }
  return nic;
}

UdpStack& Host::udp() {
  if (udp_ == nullptr) {
    throw std::logic_error("host '" + name_ + "' has no interfaces");
  }
  return *udp_;
}

const UdpStack& Host::udp() const {
  return const_cast<Host*>(this)->udp();
}

void Host::on_frame(Nic& ingress, const Frame& frame) {
  // Accept packets addressed to any local IP arriving on any interface
  // (weak host model).
  const auto it = nic_ips_.find(&ingress);
  const bool local =
      (it != nic_ips_.end() && frame->ip.dst == it->second) ||
      frame->ip.dst == primary_ip_;
  if (!local || frame->ip.protocol != 17 || udp_ == nullptr) return;
  udp_->deliver(frame->ip);
}

Ipv4Address Host::interface_ip(const Nic& nic) const {
  auto it = nic_ips_.find(&nic);
  return it == nic_ips_.end() ? Ipv4Address() : it->second;
}

}  // namespace netqos::sim
