#include "snmp/pdu.h"

#include "snmp/ber.h"

namespace netqos::snmp {

const char* error_status_name(ErrorStatus status) {
  switch (status) {
    case ErrorStatus::kNoError: return "noError";
    case ErrorStatus::kTooBig: return "tooBig";
    case ErrorStatus::kNoSuchName: return "noSuchName";
    case ErrorStatus::kBadValue: return "badValue";
    case ErrorStatus::kReadOnly: return "readOnly";
    case ErrorStatus::kGenErr: return "genErr";
  }
  return "?";
}

namespace {

// Encoding is single-pass: sizes of the nested TLVs are computed first,
// then every header is written with its final length, innermost content
// last. The byte stream is identical to a back-patching encoder's; the
// win is one exact-size reserve and zero scratch buffers per message.

std::size_t varbind_content_size(const VarBind& vb) {
  return ber::oid_size(vb.oid) + ber::value_size(vb.value);
}

std::size_t varbind_list_content_size(const std::vector<VarBind>& varbinds) {
  std::size_t size = 0;
  for (const auto& vb : varbinds) {
    const std::size_t content = varbind_content_size(vb);
    size += ber::header_size(content) + content;
  }
  return size;
}

void write_varbind_list(ByteWriter& out, const std::vector<VarBind>& varbinds,
                        std::size_t list_content_size) {
  ber::write_header(out, ber::kTagSequence, list_content_size);
  for (const auto& vb : varbinds) {
    ber::write_header(out, ber::kTagSequence, varbind_content_size(vb));
    ber::write_oid(out, vb.oid);
    ber::write_value(out, vb.value);
  }
}

std::size_t pdu_content_size(const Pdu& pdu, std::size_t vbl_content) {
  return ber::integer_size(pdu.request_id) +
         ber::integer_size(static_cast<std::int64_t>(pdu.error_status)) +
         ber::integer_size(pdu.error_index) + ber::header_size(vbl_content) +
         vbl_content;
}

std::size_t trap_v1_content_size(const TrapV1Pdu& trap,
                                 std::size_t vbl_content) {
  return ber::oid_size(trap.enterprise) + ber::header_size(4) + 4 +
         ber::integer_size(static_cast<std::int64_t>(trap.generic_trap)) +
         ber::integer_size(trap.specific_trap) +
         ber::unsigned_size(trap.time_stamp_ticks) +
         ber::header_size(vbl_content) + vbl_content;
}

TrapV1Pdu decode_trap_v1(ByteReader& in) {
  TrapV1Pdu trap;
  trap.enterprise = ber::read_oid(in);
  std::size_t addr_len = ber::expect_header(in, ber::kTagIpAddress);
  if (addr_len != 4) throw BerError("agent-addr must be 4 octets");
  trap.agent_addr = in.get_u32();
  trap.generic_trap = static_cast<GenericTrap>(ber::read_integer32(in));
  trap.specific_trap = ber::read_integer32(in);
  const std::size_t ticks_len = ber::expect_header(in, ber::kTagTimeTicks);
  trap.time_stamp_ticks = ber::read_unsigned32_content(in, ticks_len);

  const std::size_t vbl_len = ber::expect_header(in, ber::kTagSequence);
  const std::size_t end = in.position() + vbl_len;
  while (in.position() < end) {
    ber::expect_header(in, ber::kTagSequence);
    VarBind vb;
    vb.oid = ber::read_oid(in);
    vb.value = ber::read_value(in);
    trap.varbinds.push_back(std::move(vb));
  }
  return trap;
}

bool is_pdu_tag(std::uint8_t tag) {
  switch (static_cast<PduType>(tag)) {
    case PduType::kGetRequest:
    case PduType::kGetNextRequest:
    case PduType::kGetResponse:
    case PduType::kSetRequest:
    case PduType::kGetBulkRequest:
    case PduType::kSnmpV2Trap:
      return true;
    case PduType::kTrapV1:
      return false;  // handled separately: its body is not a regular PDU
  }
  return false;
}

Pdu decode_pdu(ByteReader& in) {
  std::size_t pdu_len = 0;
  const std::uint8_t tag = ber::read_header(in, pdu_len);
  if (!is_pdu_tag(tag)) {
    throw BerError("unknown PDU tag " + std::to_string(tag));
  }
  Pdu pdu;
  pdu.type = static_cast<PduType>(tag);
  pdu.request_id = ber::read_integer32(in);
  pdu.error_status = static_cast<ErrorStatus>(ber::read_integer32(in));
  pdu.error_index = ber::read_integer32(in);

  const std::size_t vbl_len = ber::expect_header(in, ber::kTagSequence);
  const std::size_t end = in.position() + vbl_len;
  while (in.position() < end) {
    ber::expect_header(in, ber::kTagSequence);  // one varbind
    VarBind vb;
    vb.oid = ber::read_oid(in);
    vb.value = ber::read_value(in);
    pdu.varbinds.push_back(std::move(vb));
  }
  return pdu;
}

}  // namespace

Bytes encode_message(const Message& message, Bytes reuse) {
  const bool is_trap = message.trap_v1.has_value();
  const std::vector<VarBind>& varbinds =
      is_trap ? message.trap_v1->varbinds : message.pdu.varbinds;
  const std::size_t vbl_content = varbind_list_content_size(varbinds);
  const std::uint8_t body_tag =
      is_trap ? static_cast<std::uint8_t>(PduType::kTrapV1)
              : static_cast<std::uint8_t>(message.pdu.type);
  const std::size_t body_content =
      is_trap ? trap_v1_content_size(*message.trap_v1, vbl_content)
              : pdu_content_size(message.pdu, vbl_content);
  const std::size_t message_content =
      ber::integer_size(static_cast<std::int64_t>(message.version)) +
      ber::octet_string_size(message.community) +
      ber::header_size(body_content) + body_content;

  ByteWriter out(std::move(reuse));
  out.reserve(ber::header_size(message_content) + message_content);
  ber::write_header(out, ber::kTagSequence, message_content);
  ber::write_integer(out, static_cast<std::int64_t>(message.version));
  ber::write_octet_string(out, message.community);
  ber::write_header(out, body_tag, body_content);
  if (is_trap) {
    const TrapV1Pdu& trap = *message.trap_v1;
    ber::write_oid(out, trap.enterprise);
    ber::write_header(out, ber::kTagIpAddress, 4);
    out.put_u32(trap.agent_addr);
    ber::write_integer(out, static_cast<std::int64_t>(trap.generic_trap));
    ber::write_integer(out, trap.specific_trap);
    ber::write_unsigned(out, ber::kTagTimeTicks, trap.time_stamp_ticks);
  } else {
    ber::write_integer(out, message.pdu.request_id);
    ber::write_integer(out,
                       static_cast<std::int64_t>(message.pdu.error_status));
    ber::write_integer(out, message.pdu.error_index);
  }
  write_varbind_list(out, varbinds, vbl_content);
  return std::move(out).take();
}

Message decode_message(const Bytes& wire) {
  ByteReader in(wire);
  ber::expect_header(in, ber::kTagSequence);
  Message message;
  message.version = static_cast<SnmpVersion>(ber::read_integer32(in));
  if (message.version != SnmpVersion::kV1 &&
      message.version != SnmpVersion::kV2c) {
    throw BerError("unsupported SNMP version");
  }
  message.community = ber::read_octet_string(in);
  if (in.peek_u8() == static_cast<std::uint8_t>(PduType::kTrapV1)) {
    std::size_t length = 0;
    ber::read_header(in, length);
    message.trap_v1 = decode_trap_v1(in);
    message.pdu.type = PduType::kTrapV1;
  } else {
    message.pdu = decode_pdu(in);
  }
  return message;
}

}  // namespace netqos::snmp
