#include "snmp/ber.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace netqos::snmp {
namespace {

Bytes encode_value(const SnmpValue& value) {
  ByteWriter w;
  ber::write_value(w, value);
  return std::move(w).take();
}

SnmpValue decode_value(const Bytes& wire) {
  ByteReader r(wire);
  return ber::read_value(r);
}

TEST(Ber, IntegerKnownEncodings) {
  // RFC-style minimal two's-complement encodings.
  struct Case {
    std::int64_t value;
    Bytes wire;
  };
  const Case cases[] = {
      {0, {0x02, 0x01, 0x00}},
      {1, {0x02, 0x01, 0x01}},
      {127, {0x02, 0x01, 0x7f}},
      {128, {0x02, 0x02, 0x00, 0x80}},  // needs a leading zero
      {256, {0x02, 0x02, 0x01, 0x00}},
      {-1, {0x02, 0x01, 0xff}},
      {-128, {0x02, 0x01, 0x80}},
      {-129, {0x02, 0x02, 0xff, 0x7f}},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(encode_value(SnmpValue(c.value)), c.wire)
        << "value " << c.value;
    EXPECT_EQ(decode_value(c.wire), SnmpValue(c.value));
  }
}

TEST(Ber, NullEncoding) {
  EXPECT_EQ(encode_value(Null{}), (Bytes{0x05, 0x00}));
  EXPECT_EQ(decode_value({0x05, 0x00}), SnmpValue(Null{}));
}

TEST(Ber, OctetStringEncoding) {
  const Bytes wire{0x04, 0x05, 'h', 'e', 'l', 'l', 'o'};
  EXPECT_EQ(encode_value(std::string("hello")), wire);
  EXPECT_EQ(decode_value(wire), SnmpValue(std::string("hello")));
}

TEST(Ber, LongFormLength) {
  // A 200-byte string needs the 0x81 long length form.
  const std::string big(200, 'x');
  const Bytes wire = encode_value(big);
  EXPECT_EQ(wire[0], 0x04);
  EXPECT_EQ(wire[1], 0x81);
  EXPECT_EQ(wire[2], 200);
  EXPECT_EQ(decode_value(wire), SnmpValue(big));
}

TEST(Ber, VeryLongFormLength) {
  const std::string big(60'000, 'y');
  const Bytes wire = encode_value(big);
  EXPECT_EQ(wire[1], 0x82);  // two length octets
  EXPECT_EQ(decode_value(wire), SnmpValue(big));

  const std::string bigger(70'000, 'z');  // > 65535: three length octets
  const Bytes wire3 = encode_value(bigger);
  EXPECT_EQ(wire3[1], 0x83);
  EXPECT_EQ(decode_value(wire3), SnmpValue(bigger));
}

TEST(Ber, OidKnownEncoding) {
  // 1.3.6.1.2.1 -> 2b 06 01 02 01 (first two arcs pack to 43 = 0x2b).
  const Bytes wire{0x06, 0x05, 0x2b, 0x06, 0x01, 0x02, 0x01};
  EXPECT_EQ(encode_value(Oid({1, 3, 6, 1, 2, 1})), wire);
  EXPECT_EQ(decode_value(wire), SnmpValue(Oid({1, 3, 6, 1, 2, 1})));
}

TEST(Ber, OidMultiByteArc) {
  // Arc 840 = 0x348 -> base-128: 0x86 0x48.
  const Oid oid({1, 2, 840});
  const Bytes wire = encode_value(oid);
  const Bytes expected{0x06, 0x03, 0x2a, 0x86, 0x48};
  EXPECT_EQ(wire, expected);
  EXPECT_EQ(decode_value(wire), SnmpValue(oid));
}

TEST(Ber, OidWithLargeFirstPair) {
  // 2.100 packs as 2*40+100 = 180 (> 127, multi-byte).
  const Oid oid({2, 100, 3});
  EXPECT_EQ(decode_value(encode_value(oid)), SnmpValue(oid));
}

TEST(Ber, SingleArcOidRejected) {
  ByteWriter w;
  EXPECT_THROW(ber::write_oid(w, Oid({1})), BerError);
}

TEST(Ber, Counter32Encoding) {
  const Bytes wire = encode_value(Counter32{0xdeadbeef});
  EXPECT_EQ(wire[0], 0x41);
  EXPECT_EQ(decode_value(wire), SnmpValue(Counter32{0xdeadbeef}));
}

TEST(Ber, Counter32HighBitNeedsLeadingZero) {
  const Bytes wire = encode_value(Counter32{0x80000000u});
  EXPECT_EQ(wire[1], 5);     // length 5: leading 0x00
  EXPECT_EQ(wire[2], 0x00);
  EXPECT_EQ(decode_value(wire), SnmpValue(Counter32{0x80000000u}));
}

TEST(Ber, TimeTicksAndGauge) {
  EXPECT_EQ(decode_value(encode_value(TimeTicks{123456})),
            SnmpValue(TimeTicks{123456}));
  EXPECT_EQ(decode_value(encode_value(Gauge32{100'000'000})),
            SnmpValue(Gauge32{100'000'000}));
}

TEST(Ber, Counter64RoundTrip) {
  // Values that need all eight content bytes, or a ninth for the sign:
  // the encoder's length loop must stop at eight without shifting by 64.
  const struct {
    std::uint64_t value;
    std::uint8_t content_length;
  } cases[] = {{(std::uint64_t{1} << 56) - 1, 8},
               {std::uint64_t{1} << 56, 8},
               {std::uint64_t{1} << 63, 9},
               {0xffffffffffffffffULL, 9}};
  for (const auto& c : cases) {
    const Bytes wire = encode_value(Counter64{c.value});
    EXPECT_EQ(wire[1], c.content_length) << c.value;
    EXPECT_EQ(decode_value(wire), SnmpValue(Counter64{c.value})) << c.value;
  }
}

TEST(Ber, IpAddressEncoding) {
  const Bytes wire = encode_value(IpAddressValue{0x0a000001});
  EXPECT_EQ(wire[0], 0x40);
  EXPECT_EQ(wire[1], 4);
  EXPECT_EQ(decode_value(wire), SnmpValue(IpAddressValue{0x0a000001}));
}

TEST(Ber, ExceptionMarkers) {
  for (auto e : {VarBindException::kNoSuchObject,
                 VarBindException::kNoSuchInstance,
                 VarBindException::kEndOfMibView}) {
    const Bytes wire = encode_value(e);
    EXPECT_EQ(wire.size(), 2u);
    EXPECT_EQ(decode_value(wire), SnmpValue(e));
  }
}

TEST(Ber, DecodeRejectsUnknownTag) {
  EXPECT_THROW(decode_value({0x1f, 0x00}), BerError);
}

TEST(Ber, DecodeRejectsTruncatedLength) {
  EXPECT_THROW(decode_value({0x02, 0x05, 0x01}), BerError);
}

TEST(Ber, DecodeRejectsOversizeInteger) {
  Bytes wire{0x02, 0x09};
  for (int i = 0; i < 9; ++i) wire.push_back(0x01);
  EXPECT_THROW(decode_value(wire), BerError);
}

TEST(Ber, DecodeRejectsBadIpAddressLength) {
  EXPECT_THROW(decode_value({0x40, 0x03, 1, 2, 3}), BerError);
}

TEST(Ber, DecodeRejectsTruncatedOidArc) {
  // Continuation bit set on the last byte.
  EXPECT_THROW(decode_value({0x06, 0x02, 0x2b, 0x86}), BerError);
}

TEST(Ber, ExpectHeaderMismatchThrows) {
  const Bytes wire{0x02, 0x01, 0x05};
  ByteReader r(wire);
  EXPECT_THROW(ber::expect_header(r, ber::kTagOctetString), BerError);
}

// ---- property-style randomized round trips -----------------------------

class BerIntegerRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BerIntegerRoundTrip, SignedRandomValues) {
  netqos::Xoshiro256 rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    // Bias towards interesting magnitudes: shift by a random amount.
    const int shift = static_cast<int>(rng.uniform_int(0, 62));
    const auto value =
        static_cast<std::int64_t>(rng.next()) >> shift;
    EXPECT_EQ(decode_value(encode_value(value)), SnmpValue(value));
  }
}

TEST_P(BerIntegerRoundTrip, UnsignedCounters) {
  netqos::Xoshiro256 rng(GetParam() ^ 0x5a5a);
  for (int i = 0; i < 500; ++i) {
    const auto v32 = static_cast<std::uint32_t>(rng.next());
    EXPECT_EQ(decode_value(encode_value(Counter32{v32})),
              SnmpValue(Counter32{v32}));
    const std::uint64_t v64 = rng.next();
    EXPECT_EQ(decode_value(encode_value(Counter64{v64})),
              SnmpValue(Counter64{v64}));
  }
}

TEST_P(BerIntegerRoundTrip, RandomOids) {
  netqos::Xoshiro256 rng(GetParam() ^ 0xc3c3);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint32_t> arcs{
        static_cast<std::uint32_t>(rng.uniform_int(0, 2)),
        static_cast<std::uint32_t>(rng.uniform_int(0, 39))};
    const std::size_t extra = rng.uniform_int(0, 12);
    for (std::size_t k = 0; k < extra; ++k) {
      arcs.push_back(static_cast<std::uint32_t>(rng.next()));
    }
    const Oid oid(std::move(arcs));
    EXPECT_EQ(decode_value(encode_value(oid)), SnmpValue(oid));
  }
}

TEST_P(BerIntegerRoundTrip, RandomStrings) {
  netqos::Xoshiro256 rng(GetParam() ^ 0x9999);
  for (int i = 0; i < 100; ++i) {
    std::string s;
    const std::size_t length = rng.uniform_int(0, 300);
    for (std::size_t k = 0; k < length; ++k) {
      s += static_cast<char>(rng.uniform_int(0, 255));
    }
    EXPECT_EQ(decode_value(encode_value(s)), SnmpValue(s));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BerIntegerRoundTrip,
                         ::testing::Values(1u, 42u, 0xdeadu, 7777u));

}  // namespace
}  // namespace netqos::snmp
