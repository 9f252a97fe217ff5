// directory.hpp — the DIF's name-to-address mapping.
//
// Applications register by AppName; flow allocation resolves the name to
// the address of the member IPC process the application sits on. This is
// the only place names meet addresses, and it lives entirely inside the
// DIF: nothing here is visible to applications or to other DIFs.
//
// One record per name, in an ordered map (snapshots iterate it in a
// deterministic order): the name's Stamp and its binding. A stamp is the
// publisher's version, ties broken by the publisher's address. apply() is
// the one way a binding or a removal gets in, and only when its stamp is
// newer, so re-floods, stale resyncs and late updates never regress a
// name, and a removal outlives the binding as a tombstone: a record with
// a stamp and no binding.
//
// remove_at() scans the records: only a neighbor's Bye calls it, too
// rarely to keep a second, address-keyed copy of every name.
#pragma once

#include <map>
#include <optional>

#include "naming/names.hpp"

namespace rina::naming {

class Directory {
 public:
  struct Stamp {
    std::uint64_t version = 0;  // 0 = never published
    Address origin;

    [[nodiscard]] bool newer_than(const Stamp& o) const {
      return version != o.version ? version > o.version : origin.key() > o.origin.key();
    }
  };

  struct Record {
    Stamp stamp;
    std::optional<Address> at;  // nullopt: a tombstone, or its member left
    bool operator==(const Record& o) const {
      return stamp.version == o.stamp.version && stamp.origin == o.stamp.origin &&
             at == o.at;
    }
  };

  /// Versioned update: bind `app` to `at` (nullopt = remove) if `s` is
  /// newer than the name's stamp, and report in `*replaced` (if given)
  /// the binding it overwrote. False = stale or duplicate, no change.
  bool apply(const AppName& app, std::optional<Address> at, Stamp s,
             std::optional<Address>* replaced = nullptr) {
    Record& r = records_[app];
    if (!s.newer_than(r.stamp)) return false;
    if (replaced != nullptr) *replaced = r.at;
    r = Record{s, at};
    return true;
  }

  [[nodiscard]] Stamp stamp_of(const AppName& app) const {
    auto it = records_.find(app);
    return it == records_.end() ? Stamp{} : it->second.stamp;
  }

  [[nodiscard]] std::optional<Address> lookup(const AppName& app) const {
    auto it = records_.find(app);
    return it == records_.end() ? std::nullopt : it->second.at;
  }

  /// Unbind every name bound at `at` (a departed member). The records
  /// keep their stamps, so a resync of the same binding is stale.
  void remove_at(Address at) {
    for (auto& [app, r] : records_)
      if (r.at == at) r.at.reset();
  }

  /// Bound names; tombstones and departed bindings do not count.
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& [app, r] : records_) n += r.at.has_value() ? 1 : 0;
    return n;
  }

  /// Every stamped name, tombstones included.
  [[nodiscard]] const std::map<AppName, Record>& entries() const { return records_; }

 private:
  std::map<AppName, Record> records_;
};

}  // namespace rina::naming
