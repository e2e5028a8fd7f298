// Frame tracing — tcpdump for the simulated LAN.
//
// A FrameTracer taps one or more links and records every frame they
// carry in a bounded ring buffer, optionally filtered. Records carry
// enough of the headers to reconstruct conversations (who SNMP-polled
// whom, which load stream crossed which segment) without retaining
// payloads. A record's time is when the frame finished serializing onto
// the link; records are kept in time order.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "netsim/link.h"
#include "netsim/packet.h"

namespace netqos::sim {

struct TraceRecord {
  SimTime time = 0;
  std::string link;        ///< label given at attach time
  std::string from;        ///< transmitting node.interface
  MacAddress src_mac;
  MacAddress dst_mac;
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::size_t wire_bytes = 0;
};

class FrameTracer {
 public:
  /// Keep at most `capacity` records; older ones are evicted. The links
  /// report each frame's time, so the simulator is not consulted.
  explicit FrameTracer(Simulator& /*sim*/, std::size_t capacity = 4096)
      : capacity_(capacity) {}

  /// Records frames carried by `link` under the given label. The tracer
  /// must outlive the link's traffic (or the link itself), and the link
  /// must outlive every read of the tracer.
  void attach(Link& link, std::string label);

  /// Only records for which the filter returns true are kept. An empty
  /// filter keeps everything. A convenience port filter is provided.
  using Filter = std::function<bool(const TraceRecord&)>;
  void set_filter(Filter filter) { filter_ = std::move(filter); }
  static Filter port_filter(std::uint16_t port);

  /// The reads below fold the attached links first (see link.h), so they
  /// cover every frame that has finished by now.
  const std::deque<TraceRecord>& records() const {
    fold_links();
    return records_;
  }
  std::uint64_t total_seen() const {
    fold_links();
    return total_seen_;
  }
  std::uint64_t evicted() const {
    fold_links();
    return evicted_;
  }
  void clear() {
    fold_links();
    records_.clear();
  }

  /// "12.0034s [S1-uplink] S1.hme0: 10.0.0.11:49152 > 10.0.0.21:9 (1518B)"
  static std::string format(const TraceRecord& record);

 private:
  void record(const std::string& label, SimTime when, const Nic& from,
              const Frame& frame);
  void fold_links() const {
    for (Link* link : links_) link->fold();
  }

  std::size_t capacity_;
  std::vector<Link*> links_;
  Filter filter_;
  std::deque<TraceRecord> records_;
  std::uint64_t total_seen_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace netqos::sim
