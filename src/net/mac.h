// 48-bit Ethernet MAC addresses.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "net/ipv4.h"

namespace rmc::net {

class MacAddr {
 public:
  constexpr MacAddr() = default;
  constexpr explicit MacAddr(std::uint64_t bits) : bits_(bits & 0xFFFF'FFFF'FFFFULL) {}

  static constexpr MacAddr broadcast() { return MacAddr(0xFFFF'FFFF'FFFFULL); }

  // Locally-administered unicast address for simulated host `n`.
  static constexpr MacAddr host(std::uint32_t n) {
    return MacAddr(0x0200'0000'0000ULL | n);
  }
  // Whether this is some host(n), and that n.
  constexpr bool is_host() const { return (bits_ >> 32) == 0x0200; }
  constexpr std::uint32_t host_number() const { return static_cast<std::uint32_t>(bits_); }

  // RFC 1112 §6.4 mapping of an IPv4 multicast group onto an Ethernet
  // multicast MAC: 01:00:5e + low 23 bits of the group address.
  static MacAddr from_multicast_group(Ipv4Addr group);

  constexpr std::uint64_t bits() const { return bits_; }
  constexpr bool is_group() const { return (bits_ >> 40) & 1; }  // multicast/broadcast bit
  constexpr bool is_broadcast() const { return bits_ == broadcast().bits(); }
  std::string str() const;

  auto operator<=>(const MacAddr&) const = default;

 private:
  std::uint64_t bits_ = 0;
};

}  // namespace rmc::net

template <>
struct std::hash<rmc::net::MacAddr> {
  std::size_t operator()(const rmc::net::MacAddr& m) const noexcept {
    return std::hash<std::uint64_t>{}(m.bits());
  }
};
