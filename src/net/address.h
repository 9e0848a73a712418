// Network-visible address of an endpoint: (node, port).
#pragma once

#include <functional>
#include <string>

#include "common/id.h"
#include "serde/traits.h"

namespace proxy::net {

struct Address {
  NodeId node;
  PortId port;

  PROXY_SERDE_FIELDS(node, port)

  friend bool operator==(const Address& a, const Address& b) noexcept {
    return a.node == b.node && a.port == b.port;
  }
  friend bool operator!=(const Address& a, const Address& b) noexcept {
    return !(a == b);
  }
  friend bool operator<(const Address& a, const Address& b) noexcept {
    if (a.node != b.node) return a.node < b.node;
    return a.port < b.port;
  }

  [[nodiscard]] std::string ToString() const {
    // Appends rather than `"n" + std::to_string(...)`: GCC 12 at -O2/-O3
    // reports a false -Wrestrict overlap inside that operator+.
    std::string out = "n";
    out += std::to_string(node.value());
    out += ":p";
    out += std::to_string(port.value());
    return out;
  }
};

}  // namespace proxy::net

namespace std {
template <>
struct hash<proxy::net::Address> {
  size_t operator()(const proxy::net::Address& a) const noexcept {
    return (static_cast<size_t>(a.node.value()) << 32) ^ a.port.value();
  }
};
}  // namespace std
