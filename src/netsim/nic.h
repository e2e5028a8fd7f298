// Network interface with MIB-II style counters and a serializing
// transmit queue.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "common/sim_time.h"
#include "common/units.h"
#include "netsim/packet.h"

namespace netqos::sim {

class Link;
class Node;
class Simulator;

/// The subset of MIB-II ifEntry the paper polls (Table 1), maintained with
/// genuine Counter32 semantics: 32-bit values that wrap modulo 2^32.
struct InterfaceCounters {
  std::uint32_t if_in_octets = 0;
  std::uint32_t if_in_ucast_pkts = 0;
  std::uint32_t if_out_octets = 0;
  std::uint32_t if_out_ucast_pkts = 0;
  std::uint32_t if_in_discards = 0;
  std::uint32_t if_out_discards = 0;

  void count_in(std::size_t octets) {
    if_in_octets += static_cast<std::uint32_t>(octets);  // wraps by design
    ++if_in_ucast_pkts;
  }
  void count_out(std::size_t octets) {
    if_out_octets += static_cast<std::uint32_t>(octets);
    ++if_out_ucast_pkts;
  }
};

/// One interface (paper: "Network Interface"). A NIC serializes frames at
/// its configured speed onto the attached link, and counts traffic. Host
/// NICs are non-promiscuous: frames for other MACs (as repeated by a hub)
/// are dropped *uncounted*, which is exactly why the paper's hub rule must
/// sum traffic across all hub members. Switch/hub ports are promiscuous.
class Nic {
 public:
  Nic(Simulator& sim, Node& owner, std::string name, BitsPerSecond speed,
      MacAddress mac, bool promiscuous);

  const std::string& name() const { return name_; }
  BitsPerSecond speed() const { return speed_; }
  MacAddress mac() const { return mac_; }
  Node& owner() { return owner_; }
  const Node& owner() const { return owner_; }
  bool promiscuous() const { return promiscuous_; }

  void attach(Link* link) { link_ = link; }
  Link* link() { return link_; }
  const Link* link() const { return link_; }
  bool connected() const { return link_ != nullptr; }

  /// Queues a frame for transmission. Returns false (and counts an
  /// ifOutDiscard) if the NIC is unconnected or its queue is full.
  bool transmit(Frame frame);

  /// Called by the link when a frame arrives after propagation.
  void deliver(const Frame& frame);

  const InterfaceCounters& counters() const { return counters_; }
  /// Octets observed on the wire but filtered by MAC (diagnostic only —
  /// a real non-promiscuous NIC never surfaces these to the OS).
  std::uint64_t filtered_octets() const { return filtered_octets_; }
  /// Total octets ever sent, unwrapped (diagnostic only).
  std::uint64_t total_out_octets() const { return total_out_octets_; }
  std::uint64_t total_in_octets() const { return total_in_octets_; }

  /// Transmit queue limit in frames (drop-tail beyond it).
  void set_queue_limit(std::size_t frames) { queue_limit_ = frames; }

 private:
  void start_transmission();

  Simulator& sim_;
  Node& owner_;
  std::string name_;
  BitsPerSecond speed_;
  MacAddress mac_;
  bool promiscuous_;
  Link* link_ = nullptr;

  std::deque<Frame> tx_queue_;
  bool transmitting_ = false;
  std::size_t queue_limit_ = 1024;

  InterfaceCounters counters_;
  std::uint64_t filtered_octets_ = 0;
  std::uint64_t total_out_octets_ = 0;
  std::uint64_t total_in_octets_ = 0;
};

}  // namespace netqos::sim
