#include "snmp/pdu.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "snmp/ber.h"

namespace netqos::snmp {
namespace {

Message round_trip(const Message& message) {
  return decode_message(encode_message(message));
}

TEST(PduCodec, GetRequestRoundTrip) {
  Message msg;
  msg.version = SnmpVersion::kV2c;
  msg.community = "public";
  msg.pdu.type = PduType::kGetRequest;
  msg.pdu.request_id = 1234;
  msg.pdu.varbinds.push_back({mib2::kSysUpTime.child(0), Null{}});

  const Message back = round_trip(msg);
  EXPECT_EQ(back.version, SnmpVersion::kV2c);
  EXPECT_EQ(back.community, "public");
  EXPECT_EQ(back.pdu.type, PduType::kGetRequest);
  EXPECT_EQ(back.pdu.request_id, 1234);
  ASSERT_EQ(back.pdu.varbinds.size(), 1u);
  EXPECT_EQ(back.pdu.varbinds[0].oid, mib2::kSysUpTime.child(0));
  EXPECT_EQ(back.pdu.varbinds[0].value, SnmpValue(Null{}));
}

TEST(PduCodec, ResponseWithMixedValues) {
  Message msg;
  msg.pdu.type = PduType::kGetResponse;
  msg.pdu.request_id = -5;  // negative ids survive
  msg.pdu.varbinds = {
      {Oid({1, 3, 6, 1}), SnmpValue(Counter32{999})},
      {Oid({1, 3, 6, 2}), SnmpValue(std::string("eth0"))},
      {Oid({1, 3, 6, 3}), SnmpValue(TimeTicks{100})},
      {Oid({1, 3, 6, 4}), SnmpValue(Gauge32{100'000'000})},
      {Oid({1, 3, 6, 5}), SnmpValue(std::int64_t{-42})},
      {Oid({1, 3, 6, 6}), SnmpValue(VarBindException::kNoSuchInstance)},
  };
  const Message back = round_trip(msg);
  EXPECT_EQ(back.pdu.request_id, -5);
  ASSERT_EQ(back.pdu.varbinds.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(back.pdu.varbinds[i], msg.pdu.varbinds[i]) << "varbind " << i;
  }
}

TEST(PduCodec, ErrorStatusSurvives) {
  Message msg;
  msg.pdu.type = PduType::kGetResponse;
  msg.pdu.error_status = ErrorStatus::kNoSuchName;
  msg.pdu.error_index = 2;
  const Message back = round_trip(msg);
  EXPECT_EQ(back.pdu.error_status, ErrorStatus::kNoSuchName);
  EXPECT_EQ(back.pdu.error_index, 2);
}

TEST(PduCodec, GetBulkFieldsReuseErrorSlots) {
  Message msg;
  msg.version = SnmpVersion::kV2c;
  msg.pdu.type = PduType::kGetBulkRequest;
  msg.pdu.error_status = static_cast<ErrorStatus>(1);  // non-repeaters
  msg.pdu.error_index = 20;                            // max-repetitions
  const Message back = round_trip(msg);
  EXPECT_EQ(back.pdu.non_repeaters(), 1);
  EXPECT_EQ(back.pdu.max_repetitions(), 20);
}

TEST(PduCodec, EmptyVarbindListAllowed) {
  Message msg;
  msg.pdu.type = PduType::kGetRequest;
  const Message back = round_trip(msg);
  EXPECT_TRUE(back.pdu.varbinds.empty());
}

TEST(PduCodec, V1VersionPreserved) {
  Message msg;
  msg.version = SnmpVersion::kV1;
  EXPECT_EQ(round_trip(msg).version, SnmpVersion::kV1);
}

TEST(PduCodec, CommunityStringPreserved) {
  Message msg;
  msg.community = "s3cret-community";
  EXPECT_EQ(round_trip(msg).community, "s3cret-community");
}

TEST(PduCodec, RejectsGarbage) {
  EXPECT_THROW(decode_message({0xff, 0x00, 0x01}), BerError);
  EXPECT_THROW(decode_message({}), BufferUnderflow);
}

TEST(PduCodec, RejectsUnsupportedVersion) {
  Message msg;
  msg.version = static_cast<SnmpVersion>(3);
  EXPECT_THROW(decode_message(encode_message(msg)), BerError);
}

TEST(PduCodec, RejectsNonPduTag) {
  // A message whose "PDU" is a bare integer.
  ByteWriter inner;
  ber::write_integer(inner, 1);                 // version
  ber::write_octet_string(inner, "public");     // community
  ber::write_integer(inner, 7);                 // bogus: not a PDU
  ByteWriter out;
  ber::write_wrapped(out, ber::kTagSequence, inner.bytes());
  EXPECT_THROW(decode_message(std::move(out).take()), BerError);
}

TEST(PduCodec, ErrorStatusNames) {
  EXPECT_STREQ(error_status_name(ErrorStatus::kNoError), "noError");
  EXPECT_STREQ(error_status_name(ErrorStatus::kTooBig), "tooBig");
  EXPECT_STREQ(error_status_name(ErrorStatus::kGenErr), "genErr");
}

/// Property: arbitrary randomized messages survive the codec.
class PduFuzzRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PduFuzzRoundTrip, RandomMessages) {
  netqos::Xoshiro256 rng(GetParam());
  const PduType types[] = {PduType::kGetRequest, PduType::kGetNextRequest,
                           PduType::kGetResponse, PduType::kSetRequest,
                           PduType::kGetBulkRequest};
  for (int iter = 0; iter < 100; ++iter) {
    Message msg;
    msg.version = rng.uniform() < 0.5 ? SnmpVersion::kV1 : SnmpVersion::kV2c;
    msg.community = std::string(rng.uniform_int(0, 20), 'c');
    msg.pdu.type = types[rng.uniform_int(0, 4)];
    msg.pdu.request_id = static_cast<std::int32_t>(rng.next());
    msg.pdu.error_status =
        static_cast<ErrorStatus>(rng.uniform_int(0, 5));
    msg.pdu.error_index = static_cast<std::int32_t>(rng.uniform_int(0, 100));
    const std::size_t nvb = rng.uniform_int(0, 8);
    for (std::size_t i = 0; i < nvb; ++i) {
      VarBind vb;
      vb.oid = Oid({1, 3, static_cast<std::uint32_t>(rng.uniform_int(0, 99)),
                    static_cast<std::uint32_t>(rng.next())});
      switch (rng.uniform_int(0, 4)) {
        case 0: vb.value = Null{}; break;
        case 1: vb.value = static_cast<std::int64_t>(rng.next()); break;
        case 2: vb.value = Counter32{static_cast<std::uint32_t>(rng.next())};
                break;
        case 3: vb.value = std::string(rng.uniform_int(0, 50), 's'); break;
        case 4: vb.value = TimeTicks{static_cast<std::uint32_t>(rng.next())};
                break;
      }
      msg.pdu.varbinds.push_back(std::move(vb));
    }
    const Message back = round_trip(msg);
    EXPECT_EQ(back.version, msg.version);
    EXPECT_EQ(back.community, msg.community);
    EXPECT_EQ(back.pdu.type, msg.pdu.type);
    EXPECT_EQ(back.pdu.request_id, msg.pdu.request_id);
    ASSERT_EQ(back.pdu.varbinds.size(), msg.pdu.varbinds.size());
    for (std::size_t i = 0; i < msg.pdu.varbinds.size(); ++i) {
      EXPECT_EQ(back.pdu.varbinds[i], msg.pdu.varbinds[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PduFuzzRoundTrip,
                         ::testing::Values(3u, 99u, 0xabcdefu));

}  // namespace
}  // namespace netqos::snmp
