// BER (Basic Encoding Rules) subset for SNMP.
//
// SNMP messages are ASN.1 structures serialized with BER (RFC 1157 §4,
// RFC 1906). This codec implements the definite-length encodings SNMP
// needs: universal INTEGER / OCTET STRING / NULL / OBJECT IDENTIFIER /
// SEQUENCE, the SMI application types (IpAddress, Counter32, Gauge32,
// TimeTicks, Counter64), context-tagged PDUs, and the v2c varbind
// exceptions.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "common/byte_buffer.h"
#include "snmp/oid.h"
#include "snmp/value.h"

namespace netqos::snmp {

/// Thrown when decoding meets malformed or unsupported BER.
class BerError : public std::runtime_error {
 public:
  explicit BerError(const std::string& what)
      : std::runtime_error("BER: " + what) {}
};

namespace ber {

// Tag octets.
inline constexpr std::uint8_t kTagInteger = 0x02;
inline constexpr std::uint8_t kTagOctetString = 0x04;
inline constexpr std::uint8_t kTagNull = 0x05;
inline constexpr std::uint8_t kTagOid = 0x06;
inline constexpr std::uint8_t kTagSequence = 0x30;
inline constexpr std::uint8_t kTagIpAddress = 0x40;
inline constexpr std::uint8_t kTagCounter32 = 0x41;
inline constexpr std::uint8_t kTagGauge32 = 0x42;
inline constexpr std::uint8_t kTagTimeTicks = 0x43;
inline constexpr std::uint8_t kTagCounter64 = 0x46;
// Context-specific constructed tags select the PDU type.
inline constexpr std::uint8_t kTagGetRequest = 0xa0;
inline constexpr std::uint8_t kTagGetNextRequest = 0xa1;
inline constexpr std::uint8_t kTagGetResponse = 0xa2;
inline constexpr std::uint8_t kTagSetRequest = 0xa3;
inline constexpr std::uint8_t kTagGetBulkRequest = 0xa5;

/// Writes a tag + definite length header.
void write_header(ByteWriter& out, std::uint8_t tag, std::size_t length);

/// Writes tag+length+content for each primitive type.
void write_integer(ByteWriter& out, std::int64_t value);
void write_unsigned(ByteWriter& out, std::uint8_t tag, std::uint64_t value);
void write_octet_string(ByteWriter& out, const std::string& value);
void write_null(ByteWriter& out);
void write_oid(ByteWriter& out, const Oid& oid);
void write_value(ByteWriter& out, const SnmpValue& value);

/// Wraps already-encoded content in a constructed TLV.
void write_wrapped(ByteWriter& out, std::uint8_t tag, const Bytes& content);

/// Encoded sizes, for computing nested lengths ahead of a single-pass
/// encode (no scratch buffers). Each *_size returns the full TLV size
/// (tag + length octets + content) the matching write_* would emit.
std::size_t header_size(std::size_t content_length);
std::size_t integer_size(std::int64_t value);
std::size_t unsigned_size(std::uint64_t value);
std::size_t octet_string_size(const std::string& value);
std::size_t oid_size(const Oid& oid);
std::size_t value_size(const SnmpValue& value);

/// Reads a TLV header; returns the tag and sets `length`.
std::uint8_t read_header(ByteReader& in, std::size_t& length);
/// Reads a header and demands a specific tag.
std::size_t expect_header(ByteReader& in, std::uint8_t tag);

std::int64_t read_integer_content(ByteReader& in, std::size_t length);
std::uint64_t read_unsigned_content(ByteReader& in, std::size_t length);
/// INTEGER content that must fit Integer32; throws BerError otherwise.
std::int32_t read_integer32_content(ByteReader& in, std::size_t length);
/// Counter32/Gauge32/TimeTicks content; throws BerError past 2^32 - 1
/// rather than truncating.
std::uint32_t read_unsigned32_content(ByteReader& in, std::size_t length);
Oid read_oid_content(ByteReader& in, std::size_t length);

/// Reads one complete value TLV of any supported type.
SnmpValue read_value(ByteReader& in);

/// Reads an INTEGER TLV that must fit Integer32, as every INTEGER in an
/// SNMP message envelope does (version, request-id, error-status,
/// error-index, the v1 trap codes).
std::int32_t read_integer32(ByteReader& in);
/// Reads an OCTET STRING TLV.
std::string read_octet_string(ByteReader& in);
/// Reads an OBJECT IDENTIFIER TLV.
Oid read_oid(ByteReader& in);

}  // namespace ber
}  // namespace netqos::snmp
