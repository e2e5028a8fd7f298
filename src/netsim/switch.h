// MAC-learning Ethernet switch with an optional management plane.
//
// Forwarding: unicast to a learned MAC goes out that port only (paper
// §3.3: "a switch does not forward packets for one host to other hosts");
// unknown destinations and broadcasts flood every port except ingress.
// With management enabled the switch answers UDP (SNMP) traffic addressed
// to its management IP, like the paper's SNMP-capable testbed switch.
#pragma once

#include <memory>
#include <unordered_map>

#include "netsim/node.h"
#include "netsim/udp.h"

namespace netqos::sim {

struct SwitchStats {
  std::uint64_t frames_forwarded = 0;
  std::uint64_t frames_flooded = 0;
  std::uint64_t frames_to_management = 0;
  std::uint64_t frames_dropped_same_port = 0;
  /// Forwarding-database changes: a new MAC learned, or a known MAC seen
  /// on a different port. A repeat frame from the same port is not one.
  std::uint64_t fdb_changes = 0;
};

class Switch : public Node {
 public:
  Switch(Simulator& sim, std::string name) : Node(sim, std::move(name)) {}

  /// Adds a switched port (promiscuous: counts all traffic it carries).
  Nic& add_port(std::string name, BitsPerSecond speed, MacAddress mac) {
    return add_interface(std::move(name), speed, mac, /*promiscuous=*/true);
  }

  /// Gives the switch an in-band management IP/MAC so an SNMP agent can
  /// run on it. Frames to `mac` terminate here instead of forwarding.
  void enable_management(Ipv4Address ip, MacAddress mac,
                         const ArpResolver& arp);

  /// Management UDP stack, or nullptr when management is not enabled.
  UdpStack* management() { return management_.get(); }

  void on_frame(Nic& ingress, const Frame& frame) override;

  /// The port a MAC was learned on, or nullptr.
  Nic* learned_port(MacAddress mac);
  const std::unordered_map<MacAddress, Nic*>& fdb() const { return fdb_; }

  const SwitchStats& stats() const { return stats_; }

 private:
  /// Sends a management-plane frame using the forwarding table.
  bool send_from_management(Frame frame);
  void flood(const Nic* except, const Frame& frame);

  std::unordered_map<MacAddress, Nic*> fdb_;  ///< forwarding database
  std::unique_ptr<UdpStack> management_;
  MacAddress management_mac_;
  SwitchStats stats_;
};

}  // namespace netqos::sim
