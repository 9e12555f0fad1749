// CIDR prefixes. The detector aggregates looped packets by /24 destination
// prefix (the longest prefix honored by tier-1 ISPs, per the paper), and the
// routing substrate advertises and withdraws prefixes.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "net/ipv4.h"

namespace rloop::net {

struct Prefix {
  Ipv4Addr addr;         // always stored masked to `len` bits
  std::uint8_t len = 0;  // 0..32

  constexpr Prefix() = default;

  // Masks `a` down to `length` bits. Throws std::invalid_argument if
  // length > 32.
  static Prefix of(Ipv4Addr a, std::uint8_t length);
  // The /24 containing `a`; the detector's aggregation unit.
  static Prefix slash24(Ipv4Addr a) { return of(a, 24); }

  bool contains(Ipv4Addr a) const;
  // True when `other` is equal to or nested inside this prefix.
  bool covers(const Prefix& other) const;

  std::uint32_t netmask() const;

  // One integer per prefix: (addr << 8) | len, 40 significant bits (32 of
  // address, 8 of length). Ordering packed keys orders prefixes by address,
  // then length. The hash below, the shard key of the parallel pipeline and
  // the sort key of core::NonLoopedIndex all use it; that index's radix sort
  // covers exactly these 40 bits.
  static constexpr std::uint64_t pack(std::uint32_t addr, std::uint8_t len) {
    return (static_cast<std::uint64_t>(addr) << 8) | len;
  }
  constexpr std::uint64_t packed() const { return pack(addr.value, len); }

  auto operator<=>(const Prefix&) const = default;

  std::string to_string() const;
  // Parses "a.b.c.d/len"; nullopt on malformed input. The address part is
  // masked, so "10.1.2.3/24" parses to 10.1.2.0/24.
  static std::optional<Prefix> parse(const std::string& text);
};

}  // namespace rloop::net

template <>
struct std::hash<rloop::net::Prefix> {
  std::size_t operator()(const rloop::net::Prefix& p) const noexcept {
    return std::hash<std::uint64_t>{}(p.packed());
  }
};
