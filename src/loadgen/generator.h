// UDP network load generator (paper §4.2).
//
// "It sends data streams to a designated host at a given speed. The data
// are sent as UDP packets to the DISCARD port (UDP port number 9)." The
// generator paces fixed-payload datagrams so that *payload* bytes match
// the profile rate; headers ride on top, which is why the paper's
// measured traffic runs ~2-4% above the generated figure.
#pragma once

#include <cstdint>

#include "common/sim_time.h"
#include "loadgen/profile.h"
#include "netsim/host.h"
#include "netsim/simulator.h"

namespace netqos::load {

struct GeneratorConfig {
  /// Payload bytes per datagram (default: largest that fits the MTU).
  std::size_t payload_bytes = sim::kMaxUdpPayloadBytes;
};

class LoadGenerator {
 public:
  /// Throws std::invalid_argument for a payload outside 1..1472 bytes, or
  /// a profile rate it cannot pace: datagrams less than 1 ns apart, or
  /// further apart than the clock can hold.
  LoadGenerator(sim::Simulator& sim, sim::Host& source,
                sim::Ipv4Address destination, RateProfile profile,
                GeneratorConfig config = {});

  /// Begins following the profile from the simulator's current time base
  /// (profile times are absolute simulation times).
  void start();
  void stop();

  const RateProfile& profile() const { return profile_; }
  std::uint64_t datagrams_sent() const { return datagrams_sent_; }
  std::uint64_t payload_bytes_sent() const { return payload_bytes_sent_; }
  std::uint64_t send_failures() const { return send_failures_; }

 private:
  void tick();
  void arm_next();

  sim::Simulator& sim_;
  sim::Host& source_;
  sim::Ipv4Address destination_;
  RateProfile profile_;
  GeneratorConfig config_;
  std::uint16_t src_port_ = 0;

  bool running_ = false;
  sim::EventId next_event_ = 0;
  std::uint64_t datagrams_sent_ = 0;
  std::uint64_t payload_bytes_sent_ = 0;
  std::uint64_t send_failures_ = 0;
};

}  // namespace netqos::load
