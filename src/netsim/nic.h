// Network interface with MIB-II style counters and a serializing
// transmitter.
#pragma once

#include <cstdint>
#include <string>

#include "common/sim_time.h"
#include "common/units.h"
#include "netsim/link.h"
#include "netsim/packet.h"

namespace netqos::sim {

class Node;

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
///
/// When the counters change:
///  - out octets and packets when a frame's last bit is serialized (its
///    finish), whether or not the link then carries it;
///  - in octets and packets, and the frame reaches the owner, one
///    propagation delay after the finish, if the link carried it;
///  - filtered octets at the finish, for a copy the link carried that
///    accepts() refuses;
///  - out discards at once, when transmit() refuses a frame.
/// The link applies finishes lazily (see link.h), so every read below
/// folds the link first and sees the counters as of now.
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

  /// Queues a frame for transmission: it finishes serializing one frame
  /// time after the NIC is done with the frames before it, or after now
  /// if the NIC is idle. Returns false (and counts an ifOutDiscard) if the
  /// NIC is unconnected or its queue is full.
  bool transmit(Frame frame);

  /// The MAC filter: whether this NIC takes `frame` off the wire. A
  /// promiscuous NIC takes every frame, any other only frames to its own
  /// MAC or to broadcast.
  bool accepts(const EthernetFrame& frame) const {
    return promiscuous_ || frame.dst == mac_ || frame.dst.is_broadcast();
  }

  /// Counts an accepted frame in and hands it to the owner. Called by the
  /// link when the frame arrives.
  void deliver(const Frame& frame);

  const InterfaceCounters& counters() const {
    fold_link();
    return counters_;
  }
  /// Octets observed on the wire but filtered by MAC (diagnostic only —
  /// a real non-promiscuous NIC never surfaces these to the OS).
  std::uint64_t filtered_octets() const {
    fold_link();
    return filtered_octets_;
  }
  /// Total octets ever sent, unwrapped (diagnostic only).
  std::uint64_t total_out_octets() const {
    fold_link();
    return total_out_octets_;
  }
  std::uint64_t total_in_octets() const {
    fold_link();
    return total_in_octets_;
  }

  /// Transmit queue limit in frames (drop-tail beyond it), not counting
  /// the frame being serialized.
  void set_queue_limit(std::size_t frames) { queue_limit_ = frames; }

 private:
  friend class Link;  // applies each frame's finish to the counters

  void fold_link() const {
    if (link_ != nullptr) link_->fold();
  }

  Simulator& sim_;
  Node& owner_;
  std::string name_;
  BitsPerSecond speed_;
  MacAddress mac_;
  bool promiscuous_;
  Link* link_ = nullptr;

  SimTime busy_until_ = 0;  ///< finish of the last frame accepted
  std::size_t queue_limit_ = 1024;

  InterfaceCounters counters_;
  std::uint64_t filtered_octets_ = 0;
  std::uint64_t total_out_octets_ = 0;
  std::uint64_t total_in_octets_ = 0;
};

}  // namespace netqos::sim
