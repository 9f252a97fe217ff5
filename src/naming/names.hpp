// names.hpp — the three names of the architecture.
//
// AppName: what applications are found by. It never appears in a PDU
// header and never leaves the management plane — the paper's core point.
// DifName: which IPC facility you are asking.
// Address: an IPC process's synonym *inside one DIF*; (region, node) so a
// DIF may assign topological addresses and aggregate routes per region.
// Addresses mean nothing outside their DIF and two DIFs may reuse them.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace rina::naming {

struct AppName {
  std::string process;
  std::string instance;

  AppName() = default;
  explicit AppName(std::string proc, std::string inst = {})
      : process(std::move(proc)), instance(std::move(inst)) {}

  [[nodiscard]] std::string to_string() const {
    return instance.empty() ? process : process + "/" + instance;
  }

  bool operator==(const AppName& o) const {
    return process == o.process && instance == o.instance;
  }
  bool operator!=(const AppName& o) const { return !(*this == o); }
  bool operator<(const AppName& o) const {
    return process != o.process ? process < o.process : instance < o.instance;
  }
};

struct DifName {
  std::string value;

  [[nodiscard]] const std::string& str() const { return value; }
  bool operator==(const DifName& o) const { return value == o.value; }
  bool operator!=(const DifName& o) const { return value != o.value; }
  bool operator<(const DifName& o) const { return value < o.value; }
};

struct Address {
  std::uint16_t region = 0;
  std::uint16_t node = 0;

  [[nodiscard]] bool is_null() const { return region == 0 && node == 0; }
  [[nodiscard]] std::uint32_t key() const {
    return (static_cast<std::uint32_t>(region) << 16) | node;
  }
  static Address from_key(std::uint32_t k) {
    return Address{static_cast<std::uint16_t>(k >> 16),
                   static_cast<std::uint16_t>(k & 0xFFFF)};
  }
  /// The whole-region wildcard used by aggregated FIB entries.
  [[nodiscard]] Address region_wildcard() const { return Address{region, 0}; }

  [[nodiscard]] std::string to_string() const {
    return std::to_string(region) + "." + std::to_string(node);
  }

  bool operator==(const Address& o) const { return key() == o.key(); }
  bool operator!=(const Address& o) const { return key() != o.key(); }
  bool operator<(const Address& o) const { return key() < o.key(); }
};

/// A read-only run of addresses inside an array someone else owns: an
/// LSDB record's neighbors, a route's next hops. It stays valid until
/// that owner next writes the array.
struct AddressSpan {
  const Address* first = nullptr;
  const Address* last = nullptr;

  AddressSpan() = default;
  AddressSpan(const Address* f, const Address* l) : first(f), last(l) {}
  // Implicit, so a function taking a span takes a vector as it is.
  AddressSpan(const std::vector<Address>& v)
      : first(v.data()), last(v.data() + v.size()) {}

  [[nodiscard]] const Address* begin() const { return first; }
  [[nodiscard]] const Address* end() const { return last; }
  [[nodiscard]] std::size_t size() const { return static_cast<std::size_t>(last - first); }
};

}  // namespace rina::naming

template <>
struct std::hash<rina::naming::Address> {
  std::size_t operator()(const rina::naming::Address& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.key());
  }
};
