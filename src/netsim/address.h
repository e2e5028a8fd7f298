// Layer-2 and layer-3 addresses for the simulated LAN.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace netqos::sim {

/// 48-bit Ethernet MAC address, kept as one word: the six octets packed
/// big-endian into the low 48 bits of a uint64_t. Comparing the words
/// orders addresses as their octets compare, and equality, is_broadcast
/// and the hash are one-word operations.
class MacAddress {
 public:
  constexpr MacAddress() = default;
  explicit constexpr MacAddress(std::array<std::uint8_t, 6> octets) {
    for (const std::uint8_t octet : octets) value_ = value_ << 8 | octet;
  }

  /// Locally administered unicast MAC derived from a small integer id.
  static constexpr MacAddress from_id(std::uint32_t id) {
    return MacAddress(std::uint64_t{0x02} << 40 | id);
  }

  static constexpr MacAddress broadcast() { return MacAddress(kAllOnes); }

  constexpr bool is_broadcast() const { return value_ == kAllOnes; }

  /// The six octets, in wire order.
  constexpr std::array<std::uint8_t, 6> octets() const {
    std::array<std::uint8_t, 6> out{};
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>(value_ >> (8 * (5 - i)));
    }
    return out;
  }
  /// The packed 48-bit value (octets()[0] in bits 40-47).
  constexpr std::uint64_t value() const { return value_; }
  std::string to_string() const;

  constexpr auto operator<=>(const MacAddress&) const = default;

 private:
  static constexpr std::uint64_t kAllOnes = 0xffff'ffff'ffff;

  explicit constexpr MacAddress(std::uint64_t value) : value_(value) {}

  std::uint64_t value_ = 0;
};

/// IPv4 address as a host-order 32-bit value.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  explicit constexpr Ipv4Address(std::uint32_t value) : value_(value) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | d) {}

  /// Parses "a.b.c.d"; throws std::invalid_argument on malformed input.
  static Ipv4Address parse(const std::string& dotted);

  constexpr std::uint32_t value() const { return value_; }
  constexpr bool is_unspecified() const { return value_ == 0; }
  std::string to_string() const;

  constexpr auto operator<=>(const Ipv4Address&) const = default;

 private:
  std::uint32_t value_ = 0;
};

}  // namespace netqos::sim

template <>
struct std::hash<netqos::sim::MacAddress> {
  std::size_t operator()(const netqos::sim::MacAddress& m) const noexcept {
    return std::hash<std::uint64_t>{}(m.value());
  }
};

template <>
struct std::hash<netqos::sim::Ipv4Address> {
  std::size_t operator()(const netqos::sim::Ipv4Address& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};
