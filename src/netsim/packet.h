// Frame/packet model for the simulated LAN.
//
// Frames carry real header sizes (Ethernet 14+4, IPv4 20, UDP 8) because
// the paper's ~2% measurement overhead comes from exactly these headers
// being counted by MIB-II octet counters while the load generator reports
// payload bytes. Bulk payloads are represented by a `padding` byte count
// so a 1472-byte datagram does not allocate 1472 bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/buffer_pool.h"
#include "common/byte_buffer.h"
#include "netsim/address.h"

namespace netqos::sim {

inline constexpr std::size_t kEthernetHeaderBytes = 14;
inline constexpr std::size_t kEthernetFcsBytes = 4;
inline constexpr std::size_t kEthernetOverheadBytes =
    kEthernetHeaderBytes + kEthernetFcsBytes;
inline constexpr std::size_t kMinEthernetFrameBytes = 64;
inline constexpr std::size_t kIpv4HeaderBytes = 20;
inline constexpr std::size_t kUdpHeaderBytes = 8;
/// Maximum IP datagram on Ethernet (the paper's "1,500-byte MTU size").
inline constexpr std::size_t kIpMtuBytes = 1500;
/// Maximum UDP payload per datagram at that MTU.
inline constexpr std::size_t kMaxUdpPayloadBytes =
    kIpMtuBytes - kIpv4HeaderBytes - kUdpHeaderBytes;  // 1472

/// Well-known UDP ports used in the paper and its extensions.
inline constexpr std::uint16_t kEchoPort = 7;     // RFC 862
inline constexpr std::uint16_t kDiscardPort = 9;  // RFC 863 (paper §4.2)
inline constexpr std::uint16_t kSnmpPort = 161;      // RFC 1157
inline constexpr std::uint16_t kSnmpTrapPort = 162;  // RFC 1157
/// Monitor query service (src/query): the wire API over the history
/// store. Unprivileged and project-assigned, like CoMo's query port.
inline constexpr std::uint16_t kQueryPort = 9161;
/// Active-probing sink (src/probe): destination hosts timestamp probe
/// packets here and echo arrival reports back to the sending estimator.
inline constexpr std::uint16_t kProbePort = 9162;

struct UdpDatagram {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Bytes payload;            ///< materialized bytes (e.g. SNMP messages)
  std::size_t padding = 0;  ///< synthetic bulk bytes, never materialized

  std::size_t payload_size() const { return payload.size() + padding; }
  std::size_t wire_size() const { return kUdpHeaderBytes + payload_size(); }
};

struct Ipv4Packet {
  Ipv4Address src;
  Ipv4Address dst;
  std::uint8_t protocol = 17;  ///< UDP
  UdpDatagram udp;

  std::size_t wire_size() const { return kIpv4HeaderBytes + udp.wire_size(); }
};

struct EthernetFrame {
  MacAddress src;
  MacAddress dst;
  Ipv4Packet ip;

  /// Octets on the wire as counted by ifInOctets/ifOutOctets ("including
  /// framing characters", RFC 1213), with the 64-byte minimum applied.
  std::size_t wire_size() const {
    const std::size_t raw = kEthernetOverheadBytes + ip.wire_size();
    return raw < kMinEthernetFrameBytes ? kMinEthernetFrameBytes : raw;
  }
};

/// Frames are immutable once sent; hub broadcast shares one instance.
///
/// A Frame is an 8-byte handle to one heap node holding the frame, the
/// pool its payload returns to (null for make_frame), and a reference
/// count. The count is a plain integer, not an atomic: the simulator is
/// single-threaded and nothing in src/ starts a thread, so a frame and
/// all its handles stay on one thread. That saves what a shared_ptr
/// costs on every hop: a separate control block and a lock-prefixed
/// update per copy and per drop. A hop moves the handle into the link's
/// FIFO of frames in flight, where it waits for the frame's arrival; the
/// link drops it at the finish of a copy the far NIC filters. A hub or
/// switch copies one per port it sends the frame out of.
class Frame {
 public:
  Frame() noexcept = default;
  Frame(const Frame& other) noexcept : node_(other.node_) {
    if (node_ != nullptr) ++node_->refs;
  }
  Frame(Frame&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
  Frame& operator=(Frame other) noexcept {
    std::swap(node_, other.node_);
    return *this;
  }
  ~Frame() {
    if (node_ != nullptr && --node_->refs == 0) destroy(node_);
  }

  const EthernetFrame& operator*() const { return node_->frame; }
  const EthernetFrame* operator->() const { return &node_->frame; }
  explicit operator bool() const { return node_ != nullptr; }

 private:
  struct Node {
    EthernetFrame frame;
    BufferPool* pool;  ///< receives the payload on the last drop, if set
    std::uint32_t refs;
  };

  friend Frame make_frame(EthernetFrame frame);
  friend Frame make_pooled_frame(EthernetFrame frame, BufferPool* pool);

  explicit Frame(Node* node) noexcept : node_(node) {}

  static void destroy(Node* node) noexcept {
    if (node->pool != nullptr) {
      node->pool->release(std::move(node->frame.ip.udp.payload));
    }
    delete node;
  }

  Node* node_ = nullptr;
};

inline Frame make_frame(EthernetFrame frame) {
  return Frame(new Frame::Node{std::move(frame), nullptr, 1});
}

/// Like make_frame, but the payload buffer returns to `pool` when the
/// last reference drops — closing the recycle loop for poll traffic.
/// `pool` must outlive every frame (the simulator owns both).
inline Frame make_pooled_frame(EthernetFrame frame, BufferPool* pool) {
  return Frame(new Frame::Node{std::move(frame), pool, 1});
}

}  // namespace netqos::sim
