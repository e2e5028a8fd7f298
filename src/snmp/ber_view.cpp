#include "snmp/ber_view.h"

namespace netqos::snmp {
namespace {

/// Walks the base-128 arcs of an encoded OID, invoking `fn(arc)` for
/// each logical arc (the packed first subidentifier yields two). `fn`
/// returns false to stop early; iterate_arcs then returns false too.
template <typename Fn>
bool iterate_arcs(std::span<const std::uint8_t> content, Fn&& fn) {
  if (content.empty()) throw BerError("empty OID");
  std::size_t pos = 0;
  bool first = true;
  while (pos < content.size()) {
    std::uint32_t arc = 0;
    std::uint8_t byte = 0;
    std::size_t septets = 0;
    do {
      if (pos >= content.size()) throw BerError("truncated OID arc");
      byte = content[pos++];
      if (++septets > 5) throw BerError("OID arc exceeds 32 bits");
      arc = (arc << 7) | (byte & 0x7f);
    } while (byte & 0x80);
    if (first) {
      first = false;
      if (!fn(arc < 80 ? arc / 40 : 2)) return false;
      if (!fn(arc < 80 ? arc % 40 : arc - 80)) return false;
    } else {
      if (!fn(arc)) return false;
    }
  }
  return true;
}

bool is_message_pdu_tag(std::uint8_t tag) {
  switch (static_cast<PduType>(tag)) {
    case PduType::kGetRequest:
    case PduType::kGetNextRequest:
    case PduType::kGetResponse:
    case PduType::kSetRequest:
    case PduType::kTrapV1:
    case PduType::kGetBulkRequest:
    case PduType::kSnmpV2Trap:
      return true;
  }
  return false;
}

std::int32_t read_integer32(BerReader& in) {
  const std::span<const std::uint8_t> content =
      in.expect_tlv(ber::kTagInteger);
  ByteReader reader(content);
  return ber::read_integer32_content(reader, content.size());
}

}  // namespace

Tlv BerReader::read_tlv() {
  Tlv tlv;
  std::size_t length = 0;
  tlv.tag = ber::read_header(in_, length);
  tlv.content = in_.get_bytes(length);
  return tlv;
}

std::span<const std::uint8_t> BerReader::expect_tlv(std::uint8_t tag) {
  const Tlv tlv = read_tlv();
  if (tlv.tag != tag) {
    throw BerError("expected tag " + std::to_string(tag) + ", got " +
                   std::to_string(tlv.tag));
  }
  return tlv.content;
}

bool OidView::starts_with(const Oid& prefix) const {
  const auto& arcs = prefix.arcs();
  std::size_t i = 0;
  iterate_arcs(content, [&](std::uint32_t arc) {
    if (i >= arcs.size()) return false;  // prefix exhausted: match
    if (arc != arcs[i]) return false;    // mismatch: i stays short
    ++i;
    return true;
  });
  return i >= arcs.size();
}

std::uint32_t OidView::last_arc() const {
  std::uint32_t last = 0;
  iterate_arcs(content, [&](std::uint32_t arc) {
    last = arc;
    return true;
  });
  return last;
}

std::size_t OidView::arc_count() const {
  std::size_t count = 0;
  iterate_arcs(content, [&](std::uint32_t) {
    ++count;
    return true;
  });
  return count;
}

int OidView::compare(const Oid& other) const {
  const auto& arcs = other.arcs();
  std::size_t i = 0;
  int verdict = 0;
  iterate_arcs(content, [&](std::uint32_t arc) {
    if (i >= arcs.size()) {
      verdict = 1;  // view is longer: greater
      return false;
    }
    if (arc != arcs[i]) {
      verdict = arc < arcs[i] ? -1 : 1;
      return false;
    }
    ++i;
    return true;
  });
  if (verdict != 0) return verdict;
  return i < arcs.size() ? -1 : 0;  // view is a strict prefix: less
}

Oid OidView::to_oid() const {
  std::vector<std::uint32_t> arcs;
  arcs.reserve(content.size() + 1);  // one arc per byte, two in the first
  iterate_arcs(content, [&](std::uint32_t arc) {
    arcs.push_back(arc);
    return true;
  });
  return Oid(std::move(arcs));
}

std::uint64_t ValueView::to_unsigned() const {
  switch (tag) {
    case ber::kTagCounter32:
    case ber::kTagGauge32:
    case ber::kTagTimeTicks:
    case ber::kTagCounter64:
      break;
    default:
      throw BerError("not an unsigned type, tag " + std::to_string(tag));
  }
  ByteReader reader(content);
  return ber::read_unsigned_content(reader, content.size());
}

std::int64_t ValueView::to_integer() const {
  if (tag != ber::kTagInteger) {
    throw BerError("not an INTEGER, tag " + std::to_string(tag));
  }
  ByteReader reader(content);
  return ber::read_integer_content(reader, content.size());
}

std::string_view ValueView::to_text() const {
  if (tag != ber::kTagOctetString) {
    throw BerError("not an OCTET STRING, tag " + std::to_string(tag));
  }
  return {reinterpret_cast<const char*>(content.data()), content.size()};
}

SnmpValue ValueView::to_value() const {
  ByteReader reader(content);
  switch (tag) {
    case ber::kTagNull:
      return Null{};
    case ber::kTagInteger:
      return ber::read_integer_content(reader, content.size());
    case ber::kTagOctetString:
      return reader.get_string(content.size());
    case ber::kTagOid:
      return ber::read_oid_content(reader, content.size());
    case ber::kTagIpAddress: {
      if (content.size() != 4) throw BerError("IpAddress must be 4 octets");
      return IpAddressValue{reader.get_u32()};
    }
    case ber::kTagCounter32:
      return Counter32{ber::read_unsigned32_content(reader, content.size())};
    case ber::kTagGauge32:
      return Gauge32{ber::read_unsigned32_content(reader, content.size())};
    case ber::kTagTimeTicks:
      return TimeTicks{ber::read_unsigned32_content(reader, content.size())};
    case ber::kTagCounter64:
      return Counter64{ber::read_unsigned_content(reader, content.size())};
    case 0x80:
    case 0x81:
    case 0x82:
      return static_cast<VarBindException>(tag);
    default:
      throw BerError("unsupported value tag " + std::to_string(tag));
  }
}

MessageHeadView decode_message_head(std::span<const std::uint8_t> wire) {
  BerReader in(wire);
  BerReader message(in.expect_tlv(ber::kTagSequence));

  MessageHeadView head;
  head.version = static_cast<SnmpVersion>(read_integer32(message));
  if (head.version != SnmpVersion::kV1 &&
      head.version != SnmpVersion::kV2c) {
    throw BerError("unsupported SNMP version");
  }
  const std::span<const std::uint8_t> community =
      message.expect_tlv(ber::kTagOctetString);
  head.community = {reinterpret_cast<const char*>(community.data()),
                    community.size()};

  const Tlv body = message.read_tlv();
  if (!is_message_pdu_tag(body.tag)) {
    throw BerError("unknown PDU tag " + std::to_string(body.tag));
  }
  head.pdu_tag = body.tag;
  if (head.pdu_tag == static_cast<std::uint8_t>(PduType::kTrapV1)) {
    return head;  // trap bodies are parsed by the materializing decoder
  }

  BerReader pdu(body.content);
  head.request_id = read_integer32(pdu);
  head.error_status = static_cast<ErrorStatus>(read_integer32(pdu));
  head.error_index = read_integer32(pdu);
  head.varbinds = BerReader(pdu.expect_tlv(ber::kTagSequence));
  return head;
}

bool next_varbind(BerReader& varbinds, VarBindView& out) {
  if (varbinds.empty()) return false;
  BerReader varbind(varbinds.expect_tlv(ber::kTagSequence));
  out.oid.content = varbind.expect_tlv(ber::kTagOid);
  const Tlv value = varbind.read_tlv();
  out.value.tag = value.tag;
  out.value.content = value.content;
  if (!varbind.empty()) throw BerError("trailing bytes in varbind");
  return true;
}

std::vector<VarBind> decode_varbinds(BerReader varbinds) {
  BerReader counter = varbinds;
  std::size_t count = 0;
  while (!counter.empty()) {
    counter.expect_tlv(ber::kTagSequence);
    ++count;
  }
  std::vector<VarBind> result;
  result.reserve(count);
  VarBindView view;
  while (next_varbind(varbinds, view)) {
    result.push_back(VarBind{view.oid.to_oid(), view.value.to_value()});
  }
  return result;
}

}  // namespace netqos::snmp
