#include "netsim/address.h"

#include <cstdio>
#include <stdexcept>

namespace netqos::sim {

std::string MacAddress::to_string() const {
  const auto o = octets();
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", o[0], o[1],
                o[2], o[3], o[4], o[5]);
  return buf;
}

Ipv4Address Ipv4Address::parse(const std::string& dotted) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  char trailing = 0;
  const int matched = std::sscanf(dotted.c_str(), "%u.%u.%u.%u%c", &a, &b, &c,
                                  &d, &trailing);
  if (matched != 4 || a > 255 || b > 255 || c > 255 || d > 255) {
    throw std::invalid_argument("malformed IPv4 address: '" + dotted + "'");
  }
  return Ipv4Address(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
                     static_cast<std::uint8_t>(c),
                     static_cast<std::uint8_t>(d));
}

std::string Ipv4Address::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value_ >> 24) & 0xff,
                (value_ >> 16) & 0xff, (value_ >> 8) & 0xff, value_ & 0xff);
  return buf;
}

}  // namespace netqos::sim
