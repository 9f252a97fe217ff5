// dir_cache.hpp — TTL cache of remotely-resolved name→address bindings.
//
// In a hierarchical DIF the full directory lives only at the resolver
// anchors; everyone else resolves on demand (query up, RIEP read) and
// remembers the answer here. Entries age out after a TTL and are evicted
// explicitly when an unregister/mobility invalidation flood names them —
// so a cached binding is never served after the network said it moved.
//
// Determinism: storage is an ordered map and eviction (at capacity)
// removes the entry expiring soonest, smallest name breaking ties. No
// wall clock anywhere — the caller passes sim time in.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "naming/names.hpp"
#include "sim/time.hpp"

namespace rina::naming {

class DirCache {
 public:
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t expirations = 0;
    std::uint64_t evictions = 0;
  };

  DirCache() = default;
  DirCache(SimTime ttl, std::size_t capacity) : ttl_(ttl), capacity_(capacity) {}

  /// Resolve `app` at sim time `now`. Expired entries count as misses
  /// (and are erased); a hit refreshes nothing — TTL runs from insert.
  std::optional<Address> lookup(const AppName& app, SimTime now) {
    auto it = entries_.find(app);
    if (it == entries_.end()) {
      ++counters_.misses;
      return std::nullopt;
    }
    if (now >= it->second.expires) {
      entries_.erase(it);
      ++counters_.expirations;
      ++counters_.misses;
      return std::nullopt;
    }
    ++counters_.hits;
    return it->second.at;
  }

  void insert(const AppName& app, Address at, SimTime now) {
    if (capacity_ == 0) return;
    auto it = entries_.find(app);
    if (it != entries_.end()) {
      it->second = {at, now + ttl_};
      return;
    }
    if (entries_.size() >= capacity_) evict_one();
    entries_.emplace(app, Entry{at, now + ttl_});
  }

  /// Drop `app` only if it is cached *at* `at` — an invalidation for a
  /// stale binding must not kill a newer one already re-learned.
  bool invalidate_if_at(const AppName& app, Address at) {
    auto it = entries_.find(app);
    if (it == entries_.end() || it->second.at != at) return false;
    entries_.erase(it);
    ++counters_.invalidations;
    return true;
  }

  /// Drop every binding pointing at `at` (member departed). Returns the
  /// number invalidated.
  std::size_t invalidate_at(Address at) {
    std::size_t n = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.at == at) {
        it = entries_.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    counters_.invalidations += n;
    return n;
  }

  void clear() { entries_.clear(); }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

 private:
  struct Entry {
    Address at;
    SimTime expires;
  };

  void evict_one() {
    auto victim = entries_.begin();
    for (auto it = std::next(victim); it != entries_.end(); ++it)
      if (it->second.expires < victim->second.expires) victim = it;
    entries_.erase(victim);
    ++counters_.evictions;
  }

  SimTime ttl_ = SimTime::from_ms(2000);
  std::size_t capacity_ = 4096;
  std::map<AppName, Entry> entries_;
  Counters counters_;
};

}  // namespace rina::naming
