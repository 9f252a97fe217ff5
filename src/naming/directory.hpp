// directory.hpp — the DIF's name-to-address mapping.
//
// Applications register by AppName; flow allocation resolves the name to
// the address of the member IPC process the application sits on. This is
// the only place names meet addresses, and it lives entirely inside the
// DIF: nothing here is visible to applications or to other DIFs.
//
// Entries stay in an ordered map (snapshots iterate it in a deterministic
// order); an address-keyed reverse index makes departure cleanup —
// remove_at(addr) on every member death/mobility event — cost
// O(registrations at that address) instead of a full scan.
//
// Every name also keeps one Stamp: the publisher's version, ties broken
// by the publisher's address. apply() is the one way a binding or a
// removal gets in, and only when its stamp is newer, so re-floods, stale
// resyncs and late updates never regress a name, and a removal outlives
// the binding as a version-only tombstone.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

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

  /// Versioned update: bind `app` to `at` (nullopt = remove) if `s` is
  /// newer than the name's stamp. False = stale or duplicate, no change.
  bool apply(const AppName& app, std::optional<Address> at, Stamp s) {
    Stamp& cur = stamps_[app];
    if (!s.newer_than(cur)) return false;
    cur = s;
    if (at) add(app, *at);
    else remove(app);
    return true;
  }

  [[nodiscard]] Stamp stamp_of(const AppName& app) const {
    auto it = stamps_.find(app);
    return it == stamps_.end() ? Stamp{} : it->second;
  }

  /// Every stamped name, tombstones included (lookup() tells which).
  [[nodiscard]] const std::map<AppName, Stamp>& stamps() const { return stamps_; }

  /// Drop every registration pointing at `at` (a departed member). The
  /// names keep their stamps, so a resync of the same binding is stale.
  void remove_at(Address at) {
    auto rit = reverse_.find(at.key());
    if (rit == reverse_.end()) return;
    for (const AppName& app : rit->second) entries_.erase(app);
    reverse_.erase(rit);
  }

  [[nodiscard]] std::optional<Address> lookup(const AppName& app) const {
    auto it = entries_.find(app);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::map<AppName, Address>& entries() const {
    return entries_;
  }

 private:
  void add(const AppName& app, Address at) {
    auto [it, inserted] = entries_.emplace(app, at);
    if (!inserted) {
      if (it->second == at) return;
      reverse_erase(it->second, app);
      it->second = at;
    }
    reverse_[at.key()].push_back(app);
  }

  void remove(const AppName& app) {
    auto it = entries_.find(app);
    if (it == entries_.end()) return;
    reverse_erase(it->second, app);
    entries_.erase(it);
  }

  void reverse_erase(Address at, const AppName& app) {
    auto rit = reverse_.find(at.key());
    if (rit == reverse_.end()) return;
    auto& v = rit->second;
    v.erase(std::remove(v.begin(), v.end(), app), v.end());
    if (v.empty()) reverse_.erase(rit);
  }

  std::map<AppName, Address> entries_;
  std::map<AppName, Stamp> stamps_;
  std::unordered_map<std::uint32_t, std::vector<AppName>> reverse_;
};

}  // namespace rina::naming
