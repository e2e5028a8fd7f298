#include "snmp/agent.h"

#include <stdexcept>

#include "common/log.h"
#include "snmp/ber.h"
#include "snmp/ber_view.h"

namespace netqos::snmp {

SnmpAgent::SnmpAgent(sim::Simulator& sim, sim::UdpStack& stack,
                     AgentConfig config)
    : sim_(sim), stack_(stack), config_(std::move(config)),
      rng_(config_.seed) {
  const bool ok = stack_.bind(
      sim::kSnmpPort, [this](const sim::Ipv4Packet& p) { handle(p); });
  if (!ok) {
    throw std::logic_error("SNMP port already bound");
  }
}

void SnmpAgent::set_trap_sink(sim::Ipv4Address manager, std::uint16_t port) {
  trap_sink_ = manager;
  trap_port_ = port;
}

bool SnmpAgent::send_trap(const Oid& trap_oid,
                          std::vector<VarBind> varbinds) {
  if (trap_sink_.is_unspecified()) return false;

  Message message;
  message.version = SnmpVersion::kV2c;
  message.community = config_.community;
  message.pdu.type = PduType::kSnmpV2Trap;
  message.pdu.request_id = static_cast<std::int32_t>(rng_.next());

  // RFC 1905: first sysUpTime.0, then snmpTrapOID.0, then the payload.
  SnmpValue uptime = TimeTicks{0};
  if (auto value = mib_.get(mib2::kSysUpTime.child(0))) {
    uptime = std::move(*value);
  }
  message.pdu.varbinds.push_back({mib2::kSysUpTime.child(0), uptime});
  message.pdu.varbinds.push_back(
      {mib2::kSnmpTrapOid.child(0), SnmpValue(trap_oid)});
  for (auto& vb : varbinds) message.pdu.varbinds.push_back(std::move(vb));

  if (!stack_.send(trap_sink_, trap_port_, sim::kSnmpPort,
                   encode_message(message))) {
    return false;
  }
  ++stats_.traps_sent;
  return true;
}

bool SnmpAgent::send_trap_v1(const Oid& enterprise, GenericTrap generic_trap,
                             std::int32_t specific_trap,
                             std::vector<VarBind> varbinds) {
  if (trap_sink_.is_unspecified()) return false;

  Message message;
  message.version = SnmpVersion::kV1;
  message.community = config_.community;
  TrapV1Pdu trap;
  trap.enterprise = enterprise;
  trap.agent_addr = stack_.ip().value();
  trap.generic_trap = generic_trap;
  trap.specific_trap = specific_trap;
  if (auto value = mib_.get(mib2::kSysUpTime.child(0))) {
    if (const auto* ticks = std::get_if<TimeTicks>(&*value)) {
      trap.time_stamp_ticks = ticks->value;
    }
  }
  trap.varbinds = std::move(varbinds);
  message.trap_v1 = std::move(trap);

  if (!stack_.send(trap_sink_, trap_port_, sim::kSnmpPort,
                   encode_message(message))) {
    return false;
  }
  ++stats_.traps_sent;
  return true;
}

void SnmpAgent::handle(const sim::Ipv4Packet& packet) {
  ++stats_.requests;
  if (!responding_) return;  // daemon down: silent drop, manager times out

  // The envelope is read in place, so a wrong community is dropped
  // before any varbind is materialized.
  Message response;
  Pdu request;
  try {
    const MessageHeadView head = decode_message_head(packet.udp.payload);
    if (head.community != config_.community) {
      // RFC 1157: silently drop on community mismatch (no trap support).
      ++stats_.auth_failures;
      return;
    }
    response.version = head.version;
    request.type = static_cast<PduType>(head.pdu_tag);
    request.request_id = head.request_id;
    request.error_status = head.error_status;
    request.error_index = head.error_index;
    request.varbinds = decode_varbinds(head.varbinds);
  } catch (const BerError& e) {
    ++stats_.decode_errors;
    NETQOS_DEBUG() << "agent decode error: " << e.what();
    return;
  } catch (const BufferUnderflow& e) {
    // Truncated request — drop like malformed BER.
    ++stats_.decode_errors;
    NETQOS_DEBUG() << "agent decode error: " << e.what();
    return;
  }
  response.community = config_.community;
  response.pdu = process(std::move(request), response.version);

  SimDuration delay =
      config_.base_processing_delay +
      from_seconds(rng_.exponential(to_seconds(config_.mean_jitter)));
  if (rng_.uniform() < config_.hiccup_probability) {
    delay += config_.hiccup_delay;
    ++stats_.hiccups;
  }

  const sim::Ipv4Address reply_to = packet.src;
  const std::uint16_t reply_port = packet.udp.src_port;
  Bytes wire = encode_message(response, sim_.buffer_pool().acquire());
  sim_.schedule_after(delay, [this, reply_to, reply_port,
                              wire = std::move(wire)]() mutable {
    if (stack_.send(reply_to, reply_port, sim::kSnmpPort, std::move(wire))) {
      ++stats_.responses;
    }
  });
}

Pdu SnmpAgent::process(Pdu request, SnmpVersion version) {
  switch (request.type) {
    case PduType::kGetRequest:
      return process_get(std::move(request), version);
    case PduType::kGetNextRequest:
      return process_get_next(std::move(request), version);
    case PduType::kGetBulkRequest:
      if (version == SnmpVersion::kV2c) {
        return process_get_bulk(request);
      }
      [[fallthrough]];
    default: {
      Pdu response = std::move(request);
      response.type = PduType::kGetResponse;
      response.error_status = ErrorStatus::kGenErr;
      response.error_index = 0;
      return response;
    }
  }
}

Pdu SnmpAgent::process_get(Pdu request, SnmpVersion version) {
  Pdu response;
  response.type = PduType::kGetResponse;
  response.request_id = request.request_id;
  response.varbinds = std::move(request.varbinds);

  for (std::size_t i = 0; i < response.varbinds.size(); ++i) {
    auto value = mib_.get(response.varbinds[i].oid);
    if (value.has_value()) {
      response.varbinds[i].value = std::move(*value);
    } else if (version == SnmpVersion::kV2c) {
      response.varbinds[i].value = VarBindException::kNoSuchInstance;
    } else {
      response.error_status = ErrorStatus::kNoSuchName;
      response.error_index = static_cast<std::int32_t>(i + 1);
      return response;
    }
  }
  return response;
}

Pdu SnmpAgent::process_get_next(Pdu request, SnmpVersion version) {
  Pdu response;
  response.type = PduType::kGetResponse;
  response.request_id = request.request_id;
  response.varbinds = std::move(request.varbinds);

  for (std::size_t i = 0; i < response.varbinds.size(); ++i) {
    VarBind& vb = response.varbinds[i];
    const MibTree::Cursor next = mib_.seek_after(vb.oid);
    // RFC 1905 §4.2.2: the successor must be lexicographically greater
    // than the request OID. The cursor guarantees this by map ordering,
    // but a guard keeps a future MIB backend from ever emitting the
    // endless-walk responses the manager defends against.
    if (!next.at_end() && next.oid() > vb.oid) {
      vb.oid = next.oid();
      vb.value = next.value();
    } else if (version == SnmpVersion::kV2c) {
      vb.value = VarBindException::kEndOfMibView;
    } else {
      response.error_status = ErrorStatus::kNoSuchName;
      response.error_index = static_cast<std::int32_t>(i + 1);
      return response;
    }
  }
  return response;
}

Pdu SnmpAgent::process_get_bulk(const Pdu& request) {
  Pdu response;
  response.type = PduType::kGetResponse;
  response.request_id = request.request_id;

  const std::size_t non_repeaters =
      std::min(request.varbinds.size(),
               static_cast<std::size_t>(
                   std::max<std::int32_t>(0, request.non_repeaters())));
  const auto max_reps = static_cast<std::size_t>(
      std::max<std::int32_t>(0, request.max_repetitions()));
  const std::size_t cap = config_.max_response_varbinds;
  const std::size_t repetitions =
      (request.varbinds.size() - non_repeaters) * max_reps;
  // Non-repeaters are always answered; repetitions stop at the cap.
  response.varbinds.reserve(
      std::max(non_repeaters, std::min(cap, non_repeaters + repetitions)));

  // Non-repeaters: one GETNEXT each.
  for (std::size_t i = 0; i < non_repeaters; ++i) {
    const MibTree::Cursor next = mib_.seek_after(request.varbinds[i].oid);
    if (next.at_end()) {
      response.varbinds.push_back(
          {request.varbinds[i].oid, VarBindException::kEndOfMibView});
    } else {
      response.varbinds.push_back({next.oid(), next.value()});
    }
  }

  // Repeaters: one seek per varbind, then up to max-repetitions steps.
  for (std::size_t i = non_repeaters; i < request.varbinds.size(); ++i) {
    const Oid* previous = &request.varbinds[i].oid;
    MibTree::Cursor next = mib_.seek_after(*previous);
    for (std::size_t rep = 0; rep < max_reps; ++rep, next.advance()) {
      if (response.varbinds.size() >= cap) return response;
      // Same monotonicity guard as GETNEXT: a non-increasing successor
      // would repeat rows up to max-repetitions; end the view instead.
      if (next.at_end() || next.oid() <= *previous) {
        response.varbinds.push_back(
            {*previous, VarBindException::kEndOfMibView});
        break;
      }
      previous = &next.oid();
      response.varbinds.push_back({next.oid(), next.value()});
    }
  }
  return response;
}

}  // namespace netqos::snmp
