#include "netsim/address.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <unordered_set>

#include "common/rng.h"

namespace netqos::sim {
namespace {

TEST(MacAddress, FromIdIsLocallyAdministeredUnicast) {
  const MacAddress mac = MacAddress::from_id(0x01020304);
  EXPECT_EQ(mac.octets()[0], 0x02);  // U/L bit set, multicast bit clear
  EXPECT_EQ(mac.octets()[2], 0x01);
  EXPECT_EQ(mac.octets()[5], 0x04);
}

TEST(MacAddress, FromIdIsInjectiveOnSmallIds) {
  std::unordered_set<MacAddress> seen;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(MacAddress::from_id(i)).second);
  }
}

TEST(MacAddress, BroadcastDetected) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_FALSE(MacAddress::from_id(1).is_broadcast());
}

TEST(MacAddress, ToStringFormat) {
  const MacAddress mac({0xde, 0xad, 0xbe, 0xef, 0x00, 0x01});
  EXPECT_EQ(mac.to_string(), "de:ad:be:ef:00:01");
}

TEST(MacAddress, Comparable) {
  EXPECT_EQ(MacAddress::from_id(5), MacAddress::from_id(5));
  EXPECT_NE(MacAddress::from_id(5), MacAddress::from_id(6));
  EXPECT_LT(MacAddress::from_id(5), MacAddress::from_id(6));
  // Addresses order as their octet arrays do, lexicographically. Octets
  // come from a small alphabet so that pairs often share a prefix.
  Xoshiro256 rng(7);
  auto random_octets = [&rng] {
    std::array<std::uint8_t, 6> octets{};
    for (auto& octet : octets) {
      octet = static_cast<std::uint8_t>(0x7f + rng.uniform_int(0, 2));
    }
    return octets;
  };
  for (int i = 0; i < 2000; ++i) {
    const auto x = random_octets();
    const auto y = random_octets();
    const MacAddress a(x);
    const MacAddress b(y);
    ASSERT_EQ(a.octets(), x);  // round trip
    ASSERT_EQ(a <=> b, x <=> y) << a.to_string() << " vs " << b.to_string();
    ASSERT_EQ(a == b, x == y);
  }
}

TEST(Ipv4Address, ParseValid) {
  const Ipv4Address a = Ipv4Address::parse("10.0.0.1");
  EXPECT_EQ(a.value(), 0x0a000001u);
  EXPECT_EQ(a.to_string(), "10.0.0.1");
}

TEST(Ipv4Address, ParseBoundaries) {
  EXPECT_EQ(Ipv4Address::parse("0.0.0.0").value(), 0u);
  EXPECT_EQ(Ipv4Address::parse("255.255.255.255").value(), 0xffffffffu);
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_THROW(Ipv4Address::parse(""), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("10.0.0"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("10.0.0.256"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("10.0.0.1.2"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("a.b.c.d"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("10.0.0.1x"), std::invalid_argument);
}

TEST(Ipv4Address, ConstructorFromOctets) {
  const Ipv4Address a(192, 168, 1, 10);
  EXPECT_EQ(a.to_string(), "192.168.1.10");
}

TEST(Ipv4Address, UnspecifiedDetected) {
  EXPECT_TRUE(Ipv4Address().is_unspecified());
  EXPECT_FALSE(Ipv4Address::parse("10.0.0.1").is_unspecified());
}

TEST(Ipv4Address, Hashable) {
  std::unordered_set<Ipv4Address> set;
  set.insert(Ipv4Address::parse("10.0.0.1"));
  set.insert(Ipv4Address::parse("10.0.0.1"));
  set.insert(Ipv4Address::parse("10.0.0.2"));
  EXPECT_EQ(set.size(), 2u);
}

}  // namespace
}  // namespace netqos::sim
