// SNMP agent ("demon" in the paper's terminology).
//
// Listens on UDP/161 of a host or switch-management UDP stack, checks the
// community string, evaluates GET / GETNEXT / GETBULK against a MibTree,
// and replies after a small processing delay. The delay has a seeded
// random component plus rare multi-millisecond hiccups — the "slight
// delay in SNMP polling" the paper blames for measurement spikes.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/sim_time.h"
#include "netsim/simulator.h"
#include "netsim/udp.h"
#include "snmp/mib.h"
#include "snmp/pdu.h"

namespace netqos::snmp {

struct AgentConfig {
  std::string community = "public";
  SimDuration base_processing_delay = 200 * kMicrosecond;
  SimDuration mean_jitter = 300 * kMicrosecond;
  /// Probability that a request hits a scheduling hiccup of extra delay.
  double hiccup_probability = 0.02;
  SimDuration hiccup_delay = 30 * kMillisecond;
  /// GETBULK stops adding repetitions once the response holds this many
  /// varbinds (its non-repeaters are always answered). GET and GETNEXT
  /// are answered in full whatever their size; no request gets tooBig.
  std::size_t max_response_varbinds = 128;
  std::uint64_t seed = 0xa9e47;
};

struct AgentStats {
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t auth_failures = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t hiccups = 0;
  std::uint64_t traps_sent = 0;
};

class SnmpAgent {
 public:
  /// Binds UDP/161 on `stack`. Throws std::logic_error if already bound.
  SnmpAgent(sim::Simulator& sim, sim::UdpStack& stack, AgentConfig config);

  MibTree& mib() { return mib_; }
  const MibTree& mib() const { return mib_; }
  const AgentStats& stats() const { return stats_; }
  const AgentConfig& config() const { return config_; }

  /// Configures where SNMPv2 notifications go (a manager's UDP/162).
  void set_trap_sink(sim::Ipv4Address manager,
                     std::uint16_t port = sim::kSnmpTrapPort);

  /// Simulates an SNMP daemon crash/restart: while false, requests are
  /// received (and counted) but never answered, so managers see timeouts
  /// while the host itself keeps forwarding traffic normally.
  void set_responding(bool responding) { responding_ = responding; }
  bool responding() const { return responding_; }

  /// Emits an SNMPv2-Trap. The standard sysUpTime.0 and snmpTrapOID.0
  /// varbinds are prepended (RFC 1905 §4.2.6); `varbinds` follow. Returns
  /// false when no sink is configured or the send fails. Traps are
  /// unacknowledged — delivery is best-effort, like the real protocol.
  bool send_trap(const Oid& trap_oid, std::vector<VarBind> varbinds = {});

  /// Emits a classic SNMPv1 Trap-PDU (RFC 1157 §4.1.6) with this agent's
  /// address and current sysUpTime filled in.
  bool send_trap_v1(const Oid& enterprise, GenericTrap generic_trap,
                    std::int32_t specific_trap,
                    std::vector<VarBind> varbinds = {});

 private:
  void handle(const sim::Ipv4Packet& packet);
  Pdu process(Pdu request, SnmpVersion version);
  Pdu process_get(Pdu request, SnmpVersion version);
  Pdu process_get_next(Pdu request, SnmpVersion version);
  Pdu process_get_bulk(const Pdu& request);

  sim::Simulator& sim_;
  sim::UdpStack& stack_;
  AgentConfig config_;
  MibTree mib_;
  Xoshiro256 rng_;
  AgentStats stats_;
  bool responding_ = true;
  sim::Ipv4Address trap_sink_;
  std::uint16_t trap_port_ = sim::kSnmpTrapPort;
};

}  // namespace netqos::snmp
