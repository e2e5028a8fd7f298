// Zero-copy BER views: decode_message_head / next_varbind must agree
// with the materializing decoder on every wire image the encoder can
// produce, and reject malformed input with the same exception pair.
#include "snmp/ber_view.h"

#include <gtest/gtest.h>

#include <limits>

#include "snmp/pdu.h"

namespace netqos::snmp {
namespace {

Message poll_response() {
  Message m;
  m.version = SnmpVersion::kV2c;
  m.community = "public";
  m.pdu.type = PduType::kGetResponse;
  m.pdu.request_id = 0x1234;
  m.pdu.varbinds.push_back(
      {mib2::kSysUpTime.child(0), TimeTicks{123456}});
  m.pdu.varbinds.push_back(
      {mib2::if_column(mib2::kIfInOctetsColumn, 3), Counter32{987654}});
  m.pdu.varbinds.push_back(
      {mib2::ifx_column(mib2::kIfHCInOctetsColumn, 3),
       Counter64{0x1'0000'0001ULL}});
  m.pdu.varbinds.push_back(
      {mib2::if_column(mib2::kIfDescrColumn, 3), std::string("eth0")});
  m.pdu.varbinds.push_back(
      {mib2::if_column(mib2::kIfOutOctetsColumn, 99),
       VarBindException::kEndOfMibView});
  return m;
}

TEST(BerView, HeadMatchesMaterializingDecoder) {
  const Bytes wire = encode_message(poll_response());
  const Message full = decode_message(wire);
  const MessageHeadView head = decode_message_head(wire);

  EXPECT_EQ(head.version, full.version);
  EXPECT_EQ(head.community, full.community);
  EXPECT_EQ(head.pdu_tag, static_cast<std::uint8_t>(full.pdu.type));
  EXPECT_EQ(head.request_id, full.pdu.request_id);
  EXPECT_EQ(head.error_status, full.pdu.error_status);
  EXPECT_EQ(head.error_index, full.pdu.error_index);
}

TEST(BerView, VarbindIterationMatchesMaterializingDecoder) {
  const Message original = poll_response();
  const Bytes wire = encode_message(original);
  MessageHeadView head = decode_message_head(wire);

  std::size_t i = 0;
  VarBindView vb;
  while (next_varbind(head.varbinds, vb)) {
    ASSERT_LT(i, original.pdu.varbinds.size());
    EXPECT_EQ(vb.oid.to_oid(), original.pdu.varbinds[i].oid);
    EXPECT_EQ(vb.value.to_value(), original.pdu.varbinds[i].value);
    ++i;
  }
  EXPECT_EQ(i, original.pdu.varbinds.size());
}

TEST(BerView, DecodeVarbindsMaterializesWholeList) {
  const Message original = poll_response();
  const Bytes wire = encode_message(original);
  const MessageHeadView head = decode_message_head(wire);
  EXPECT_EQ(decode_varbinds(head.varbinds), original.pdu.varbinds);
}

TEST(BerView, OidViewPrefixRowAndCompare) {
  const Oid cell = mib2::if_column(mib2::kIfInOctetsColumn, 7);
  Message m = poll_response();
  m.pdu.varbinds = {{cell, Counter32{1}}};
  const Bytes wire = encode_message(m);  // the views below borrow it
  MessageHeadView head = decode_message_head(wire);
  VarBindView vb;
  ASSERT_TRUE(next_varbind(head.varbinds, vb));

  EXPECT_TRUE(vb.oid.starts_with(
      mib2::kIfEntry.child(mib2::kIfInOctetsColumn)));
  EXPECT_FALSE(vb.oid.starts_with(
      mib2::kIfEntry.child(mib2::kIfOutOctetsColumn)));
  EXPECT_EQ(vb.oid.last_arc(), 7u);
  EXPECT_EQ(vb.oid.arc_count(), cell.size());
  EXPECT_EQ(vb.oid.compare(cell), 0);
  EXPECT_LT(vb.oid.compare(mib2::if_column(mib2::kIfInOctetsColumn, 8)), 0);
  EXPECT_GT(vb.oid.compare(mib2::if_column(mib2::kIfInOctetsColumn, 6)), 0);
}

TEST(BerView, ValueViewTypedAccessors) {
  Message m = poll_response();
  const Bytes wire = encode_message(m);  // the views below borrow it
  MessageHeadView head = decode_message_head(wire);
  VarBindView vb;
  ASSERT_TRUE(next_varbind(head.varbinds, vb));  // TimeTicks
  EXPECT_EQ(vb.value.to_unsigned(), 123456u);
  ASSERT_TRUE(next_varbind(head.varbinds, vb));  // Counter32
  EXPECT_EQ(vb.value.to_unsigned(), 987654u);
  ASSERT_TRUE(next_varbind(head.varbinds, vb));  // Counter64
  EXPECT_EQ(vb.value.to_unsigned(), 0x1'0000'0001ULL);
  ASSERT_TRUE(next_varbind(head.varbinds, vb));  // OCTET STRING
  EXPECT_EQ(vb.value.to_text(), "eth0");
  EXPECT_THROW(vb.value.to_unsigned(), BerError);
  ASSERT_TRUE(next_varbind(head.varbinds, vb));  // endOfMibView
  EXPECT_TRUE(vb.value.is_exception());
  EXPECT_TRUE(vb.value.is_end_of_mib_view());
}

TEST(BerView, TruncatedWireThrowsUnderflow) {
  Bytes wire = encode_message(poll_response());
  bool threw = false;
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const std::span<const std::uint8_t> clipped(wire.data(), cut);
    try {
      MessageHeadView head = decode_message_head(clipped);
      VarBindView vb;
      while (next_varbind(head.varbinds, vb)) {
        vb.value.to_value();
      }
    } catch (const BerError&) {
      threw = true;
    } catch (const BufferUnderflow&) {
      threw = true;
    }
  }
  // Every proper prefix must fail through the sanctioned exception pair
  // (nothing else escaped, or this test would have aborted).
  EXPECT_TRUE(threw);
}

TEST(BerView, GarbageThrowsBerError) {
  const Bytes junk = {0x42, 0xff, 0x00, 0x13, 0x37};
  EXPECT_THROW(decode_message_head(junk), BerError);
}

TEST(BerView, ViewsDoNotCopyTheWire) {
  const Bytes wire = encode_message(poll_response());
  MessageHeadView head = decode_message_head(wire);
  VarBindView vb;
  ASSERT_TRUE(next_varbind(head.varbinds, vb));
  // The views' spans alias the original datagram bytes.
  EXPECT_GE(vb.oid.content.data(), wire.data());
  EXPECT_LT(vb.oid.content.data(), wire.data() + wire.size());
  EXPECT_GE(vb.value.content.data(), wire.data());
}

// Counter32, Gauge32 and TimeTicks carry at most 32 bits. Content that
// encodes more is malformed, not a value to truncate: both decoders
// reject it alike.
TEST(BerView, ThirtyTwoBitValuesPastTheirRangeRejected) {
  const auto view_of = [](const Bytes& wire) {
    return ValueView{wire[0], std::span<const std::uint8_t>(wire).subspan(2)};
  };
  // 2^32 - 1 needs five octets: a leading zero keeps it unsigned.
  const Bytes largest{0x41, 0x05, 0x00, 0xff, 0xff, 0xff, 0xff};
  ByteReader reader(largest);
  EXPECT_EQ(ber::read_value(reader), SnmpValue(Counter32{0xffffffffu}));
  EXPECT_EQ(view_of(largest).to_value(), SnmpValue(Counter32{0xffffffffu}));

  const Bytes too_large[] = {
      {0x41, 0x05, 0x01, 0x00, 0x00, 0x00, 0x00},  // Counter32 2^32
      {0x41, 0x05, 0x01, 0x00, 0x00, 0x00, 0x05},  // Counter32 2^32 + 5
      {0x42, 0x05, 0x01, 0x00, 0x00, 0x00, 0x00},  // Gauge32 2^32
      {0x43, 0x09, 0x00, 0xff, 0xff, 0xff, 0xff,   // TimeTicks 2^64 - 1
       0xff, 0xff, 0xff, 0xff}};
  for (const Bytes& wire : too_large) {
    ByteReader in(wire);
    EXPECT_THROW(ber::read_value(in), BerError) << int{wire[0]};
    EXPECT_THROW(view_of(wire).to_value(), BerError) << int{wire[0]};
  }
}

/// A v2c GetResponse with no varbinds whose three header INTEGERs are
/// encoded as given, in range or not.
Bytes response_envelope(std::int64_t request_id, std::int64_t error_status,
                        std::int64_t error_index) {
  ByteWriter pdu;
  ber::write_integer(pdu, request_id);
  ber::write_integer(pdu, error_status);
  ber::write_integer(pdu, error_index);
  ber::write_wrapped(pdu, ber::kTagSequence, {});
  ByteWriter message;
  ber::write_integer(message, static_cast<std::int64_t>(SnmpVersion::kV2c));
  ber::write_octet_string(message, "public");
  ber::write_wrapped(message, ber::kTagGetResponse, pdu.bytes());
  ByteWriter wire;
  ber::write_wrapped(wire, ber::kTagSequence, message.bytes());
  return std::move(wire).take();
}

// request-id, error-status and error-index are Integer32: a request-id
// of 2^32 + 7 is malformed, not a reply to request 7.
TEST(BerView, HeaderIntegersPastInteger32Rejected) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  for (const std::int64_t id : {kMin, kMax}) {
    const Bytes wire = response_envelope(id, 0, 0);
    EXPECT_EQ(decode_message(wire).pdu.request_id, id);
    EXPECT_EQ(decode_message_head(wire).request_id, id);
  }
  const Bytes malformed[] = {
      response_envelope((std::int64_t{1} << 32) + 7, 0, 0),
      response_envelope(kMax + 1, 0, 0),
      response_envelope(kMin - 1, 0, 0),
      response_envelope(7, kMax + 1, 0),
      response_envelope(7, 0, kMax + 1)};
  for (const Bytes& wire : malformed) {
    EXPECT_THROW(decode_message(wire), BerError);
    EXPECT_THROW(decode_message_head(wire), BerError);
  }
}

}  // namespace
}  // namespace netqos::snmp
