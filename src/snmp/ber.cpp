#include "snmp/ber.h"

#include <limits>

namespace netqos::snmp::ber {
namespace {

/// Bytes needed for a minimal two's-complement encoding of `value`.
std::size_t signed_length(std::int64_t value) {
  std::size_t n = sizeof(value);
  // Drop leading bytes that are pure sign extension.
  while (n > 1) {
    const auto top = static_cast<std::uint8_t>(value >> ((n - 1) * 8));
    const auto next_msb =
        static_cast<std::uint8_t>(value >> ((n - 2) * 8)) & 0x80;
    if ((top == 0x00 && next_msb == 0) || (top == 0xff && next_msb != 0)) {
      --n;
    } else {
      break;
    }
  }
  return n;
}

/// Bytes for an unsigned encoding (leading 0x00 if the MSB is set).
std::size_t unsigned_length(std::uint64_t value) {
  std::size_t n = 1;
  while (n < 8 && value >> (n * 8) != 0) ++n;  // a shift by 64 is UB
  if ((value >> ((n - 1) * 8)) & 0x80) ++n;  // avoid sign-bit ambiguity
  return n;
}

std::size_t oid_content_length(const Oid& oid) {
  const auto& arcs = oid.arcs();
  if (arcs.size() < 2) {
    throw BerError("OID must have at least two arcs: " + oid.to_string());
  }
  auto base128_len = [](std::uint32_t v) {
    std::size_t n = 1;
    while (v >>= 7) ++n;
    return n;
  };
  std::size_t len = base128_len(arcs[0] * 40 + arcs[1]);
  for (std::size_t i = 2; i < arcs.size(); ++i) len += base128_len(arcs[i]);
  return len;
}

void write_base128(ByteWriter& out, std::uint32_t v) {
  std::uint8_t stack[5];
  std::size_t n = 0;
  do {
    stack[n++] = static_cast<std::uint8_t>(v & 0x7f);
    v >>= 7;
  } while (v != 0);
  while (n-- > 1) out.put_u8(stack[n] | 0x80);
  out.put_u8(stack[0]);
}

}  // namespace

void write_header(ByteWriter& out, std::uint8_t tag, std::size_t length) {
  out.put_u8(tag);
  if (length < 0x80) {
    out.put_u8(static_cast<std::uint8_t>(length));
    return;
  }
  // Long form: 0x80 | number-of-length-octets, then big-endian length.
  std::uint8_t stack[sizeof(std::size_t)];
  std::size_t n = 0;
  std::size_t rest = length;
  while (rest != 0) {
    stack[n++] = static_cast<std::uint8_t>(rest & 0xff);
    rest >>= 8;
  }
  out.put_u8(static_cast<std::uint8_t>(0x80 | n));
  while (n-- > 0) out.put_u8(stack[n]);
}

void write_integer(ByteWriter& out, std::int64_t value) {
  const std::size_t n = signed_length(value);
  write_header(out, kTagInteger, n);
  for (std::size_t i = n; i-- > 0;) {
    out.put_u8(static_cast<std::uint8_t>(value >> (i * 8)));
  }
}

void write_unsigned(ByteWriter& out, std::uint8_t tag, std::uint64_t value) {
  std::size_t n = unsigned_length(value);
  write_header(out, tag, n);
  if (n == 9) {
    // 64-bit value with the sign bit set: explicit leading zero octet
    // (shifting by 64 below would be undefined).
    out.put_u8(0x00);
    n = 8;
  }
  for (std::size_t i = n; i-- > 0;) {
    out.put_u8(static_cast<std::uint8_t>(value >> (i * 8)));
  }
}

void write_octet_string(ByteWriter& out, const std::string& value) {
  write_header(out, kTagOctetString, value.size());
  out.put_string(value);
}

void write_null(ByteWriter& out) { write_header(out, kTagNull, 0); }

void write_oid(ByteWriter& out, const Oid& oid) {
  write_header(out, kTagOid, oid_content_length(oid));
  const auto& arcs = oid.arcs();
  write_base128(out, arcs[0] * 40 + arcs[1]);
  for (std::size_t i = 2; i < arcs.size(); ++i) write_base128(out, arcs[i]);
}

void write_value(ByteWriter& out, const SnmpValue& value) {
  struct Visitor {
    ByteWriter& out;
    void operator()(Null) const { write_null(out); }
    void operator()(std::int64_t v) const { write_integer(out, v); }
    void operator()(const std::string& v) const {
      write_octet_string(out, v);
    }
    void operator()(const Oid& v) const { write_oid(out, v); }
    void operator()(IpAddressValue v) const {
      write_header(out, kTagIpAddress, 4);
      out.put_u32(v.value);
    }
    void operator()(Counter32 v) const {
      write_unsigned(out, kTagCounter32, v.value);
    }
    void operator()(Gauge32 v) const {
      write_unsigned(out, kTagGauge32, v.value);
    }
    void operator()(TimeTicks v) const {
      write_unsigned(out, kTagTimeTicks, v.value);
    }
    void operator()(Counter64 v) const {
      write_unsigned(out, kTagCounter64, v.value);
    }
    void operator()(VarBindException e) const {
      write_header(out, static_cast<std::uint8_t>(e), 0);
    }
  };
  std::visit(Visitor{out}, value);
}

void write_wrapped(ByteWriter& out, std::uint8_t tag, const Bytes& content) {
  write_header(out, tag, content.size());
  out.put_bytes(content);
}

std::size_t header_size(std::size_t content_length) {
  if (content_length < 0x80) return 2;
  std::size_t n = 0;
  while (content_length != 0) {
    ++n;
    content_length >>= 8;
  }
  return 2 + n;
}

std::size_t integer_size(std::int64_t value) {
  const std::size_t n = signed_length(value);
  return header_size(n) + n;
}

std::size_t unsigned_size(std::uint64_t value) {
  const std::size_t n = unsigned_length(value);
  return header_size(n) + n;
}

std::size_t octet_string_size(const std::string& value) {
  return header_size(value.size()) + value.size();
}

std::size_t oid_size(const Oid& oid) {
  const std::size_t n = oid_content_length(oid);
  return header_size(n) + n;
}

std::size_t value_size(const SnmpValue& value) {
  struct Visitor {
    std::size_t operator()(Null) const { return 2; }
    std::size_t operator()(std::int64_t v) const { return integer_size(v); }
    std::size_t operator()(const std::string& v) const {
      return octet_string_size(v);
    }
    std::size_t operator()(const Oid& v) const { return oid_size(v); }
    std::size_t operator()(IpAddressValue) const { return header_size(4) + 4; }
    std::size_t operator()(Counter32 v) const { return unsigned_size(v.value); }
    std::size_t operator()(Gauge32 v) const { return unsigned_size(v.value); }
    std::size_t operator()(TimeTicks v) const {
      return unsigned_size(v.value);
    }
    std::size_t operator()(Counter64 v) const {
      return unsigned_size(v.value);
    }
    std::size_t operator()(VarBindException) const { return 2; }
  };
  return std::visit(Visitor{}, value);
}

std::uint8_t read_header(ByteReader& in, std::size_t& length) {
  const std::uint8_t tag = in.get_u8();
  const std::uint8_t first = in.get_u8();
  if (first < 0x80) {
    length = first;
  } else {
    const std::size_t n = first & 0x7f;
    if (n == 0 || n > sizeof(std::size_t)) {
      throw BerError("unsupported length form");
    }
    length = 0;
    for (std::size_t i = 0; i < n; ++i) length = (length << 8) | in.get_u8();
  }
  if (length > in.remaining()) {
    throw BerError("declared length exceeds buffer");
  }
  return tag;
}

std::size_t expect_header(ByteReader& in, std::uint8_t tag) {
  std::size_t length = 0;
  const std::uint8_t got = read_header(in, length);
  if (got != tag) {
    throw BerError("expected tag " + std::to_string(tag) + ", got " +
                   std::to_string(got));
  }
  return length;
}

std::int64_t read_integer_content(ByteReader& in, std::size_t length) {
  if (length == 0 || length > 8) {
    throw BerError("bad INTEGER length " + std::to_string(length));
  }
  std::int64_t value = (in.peek_u8() & 0x80) ? -1 : 0;  // sign-extend
  for (std::size_t i = 0; i < length; ++i) {
    value = (value << 8) | in.get_u8();
  }
  return value;
}

std::uint64_t read_unsigned_content(ByteReader& in, std::size_t length) {
  if (length == 0 || length > 9) {
    throw BerError("bad unsigned length " + std::to_string(length));
  }
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < length; ++i) {
    const std::uint8_t byte = in.get_u8();
    if (i == 0 && length == 9 && byte != 0) {
      throw BerError("unsigned value exceeds 64 bits");
    }
    value = (value << 8) | byte;
  }
  return value;
}

std::int32_t read_integer32_content(ByteReader& in, std::size_t length) {
  const std::int64_t value = read_integer_content(in, length);
  if (value < std::numeric_limits<std::int32_t>::min() ||
      value > std::numeric_limits<std::int32_t>::max()) {
    throw BerError("INTEGER exceeds 32 bits");
  }
  return static_cast<std::int32_t>(value);
}

std::uint32_t read_unsigned32_content(ByteReader& in, std::size_t length) {
  const std::uint64_t value = read_unsigned_content(in, length);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    throw BerError("32-bit unsigned value exceeds 32 bits");
  }
  return static_cast<std::uint32_t>(value);
}

Oid read_oid_content(ByteReader& in, std::size_t length) {
  if (length == 0) throw BerError("empty OID");
  const std::size_t end = in.position() + length;
  std::vector<std::uint32_t> arcs;
  bool first = true;
  while (in.position() < end) {
    std::uint32_t arc = 0;
    std::uint8_t byte;
    std::size_t septets = 0;
    do {
      if (in.position() >= end) throw BerError("truncated OID arc");
      byte = in.get_u8();
      if (++septets > 5) throw BerError("OID arc exceeds 32 bits");
      arc = (arc << 7) | (byte & 0x7f);
    } while (byte & 0x80);
    if (first) {
      // First subidentifier packs the first two arcs as X*40 + Y.
      arcs.push_back(arc < 80 ? arc / 40 : 2);
      arcs.push_back(arc < 80 ? arc % 40 : arc - 80);
      first = false;
    } else {
      arcs.push_back(arc);
    }
  }
  return Oid(std::move(arcs));
}

SnmpValue read_value(ByteReader& in) {
  std::size_t length = 0;
  const std::uint8_t tag = read_header(in, length);
  switch (tag) {
    case kTagNull:
      in.get_bytes(length);
      return Null{};
    case kTagInteger:
      return read_integer_content(in, length);
    case kTagOctetString:
      return in.get_string(length);
    case kTagOid:
      return read_oid_content(in, length);
    case kTagIpAddress: {
      if (length != 4) throw BerError("IpAddress must be 4 octets");
      return IpAddressValue{in.get_u32()};
    }
    case kTagCounter32:
      return Counter32{read_unsigned32_content(in, length)};
    case kTagGauge32:
      return Gauge32{read_unsigned32_content(in, length)};
    case kTagTimeTicks:
      return TimeTicks{read_unsigned32_content(in, length)};
    case kTagCounter64:
      return Counter64{read_unsigned_content(in, length)};
    case 0x80:
    case 0x81:
    case 0x82:
      in.get_bytes(length);
      return static_cast<VarBindException>(tag);
    default:
      throw BerError("unsupported value tag " + std::to_string(tag));
  }
}

std::int32_t read_integer32(ByteReader& in) {
  const std::size_t length = expect_header(in, kTagInteger);
  return read_integer32_content(in, length);
}

std::string read_octet_string(ByteReader& in) {
  const std::size_t length = expect_header(in, kTagOctetString);
  return in.get_string(length);
}

Oid read_oid(ByteReader& in) {
  const std::size_t length = expect_header(in, kTagOid);
  return read_oid_content(in, length);
}

}  // namespace netqos::snmp::ber
