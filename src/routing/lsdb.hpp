// lsdb.hpp — a member's link-state database, packed into two arrays.
//
// Every member of a flat DIF holds a record of every member, so across
// the DIF the LSDB is O(N²), and its cost per record is what one more
// member costs each of the others. Here a record is 24 bytes in one array
// sorted by origin, found by binary search, and its neighbor list sits in
// a slot of one shared pool: no record owns a map node or a heap vector.
// A slot keeps its length when its list shrinks, so a link that flaps
// (the list shrinks, then regrows) rewrites the record in place.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "naming/names.hpp"

namespace rina::routing {

class Lsdb {
 public:
  /// One record as read back. `neighbors` views the pool: it stays valid
  /// until the next put().
  struct Entry {
    naming::Address origin;
    std::uint64_t seq = 0;
    naming::AddressSpan neighbors;
  };

  /// Walks the records in origin order.
  struct Iterator {
    const Lsdb* db;
    std::size_t i;
    Entry operator*() const { return db->at(i); }
    Iterator& operator++() {
      ++i;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return i != o.i; }
  };

  [[nodiscard]] Iterator begin() const { return {this, 0}; }
  [[nodiscard]] Iterator end() const { return {this, recs_.size()}; }
  [[nodiscard]] std::size_t size() const { return recs_.size(); }
  /// Pool entries, live and abandoned; put() keeps this at most twice the
  /// total length of the records' slots.
  [[nodiscard]] std::size_t pool_size() const { return pool_.size(); }

  /// Record i as stored: its origin's key and its neighbors, for a loop
  /// over every record that reads no seq and builds no Entry.
  struct Raw {
    std::uint32_t origin;  // Address::key()
    naming::AddressSpan neighbors;
  };
  [[nodiscard]] Raw raw(std::size_t i) const {
    const Record& r = recs_[i];
    const naming::Address* p = pool_.data() + r.off;
    return Raw{r.origin, {p, p + r.count}};
  }

  [[nodiscard]] std::optional<Entry> find(naming::Address origin) const {
    const std::size_t i = index_of(origin.key());
    if (i == recs_.size() || recs_[i].origin != origin.key()) return std::nullopt;
    return at(i);
  }

  /// Install `origin`'s record. `neighbors` must not view this LSDB. The
  /// list overwrites the record's slot when it fits; else it takes a new
  /// slot at the pool's end, and once the abandoned slots outnumber the
  /// live ones the pool is compacted.
  void put(naming::Address origin, std::uint64_t seq, naming::AddressSpan neighbors) {
    const std::uint32_t key = origin.key();
    const std::size_t i = index_of(key);
    if (i == recs_.size() || recs_[i].origin != key)
      recs_.insert(recs_.begin() + static_cast<std::ptrdiff_t>(i), Record{0, key, 0, 0, 0});
    Record& r = recs_[i];
    const auto n = static_cast<std::uint32_t>(neighbors.size());
    if (n > r.cap) {
      live_ += n - r.cap;
      r.off = static_cast<std::uint32_t>(pool_.size());
      r.cap = n;
      pool_.insert(pool_.end(), neighbors.begin(), neighbors.end());
    } else {
      std::copy(neighbors.begin(), neighbors.end(), pool_.begin() + r.off);
    }
    r.seq = seq;
    r.count = n;
    if (pool_.size() - live_ > live_) compact();
  }

 private:
  struct Record {
    std::uint64_t seq;
    std::uint32_t origin;  // Address::key()
    std::uint32_t off;     // the slot: pool_[off, off + cap)
    std::uint32_t count;   // neighbors at the slot's front
    std::uint32_t cap;
  };
  static_assert(sizeof(Record) == 24, "one record is 24 bytes");

  /// Where `key`'s record is, or would be inserted.
  [[nodiscard]] std::size_t index_of(std::uint32_t key) const {
    auto it = std::lower_bound(recs_.begin(), recs_.end(), key,
                               [](const Record& r, std::uint32_t k) { return r.origin < k; });
    return static_cast<std::size_t>(it - recs_.begin());
  }

  [[nodiscard]] Entry at(std::size_t i) const {
    const Record& r = recs_[i];
    const naming::Address* p = pool_.data() + r.off;
    return Entry{naming::Address::from_key(r.origin), r.seq, {p, p + r.count}};
  }

  /// Re-lay the live slots end to end in origin order, each at its full
  /// length, so a list that shrank can still regrow in place.
  void compact() {
    std::vector<naming::Address> pool;
    pool.reserve(live_);
    for (Record& r : recs_) {
      const naming::Address* slot = pool_.data() + r.off;
      r.off = static_cast<std::uint32_t>(pool.size());
      pool.insert(pool.end(), slot, slot + r.cap);
    }
    pool_.swap(pool);
  }

  std::vector<Record> recs_;           // sorted by origin
  std::vector<naming::Address> pool_;  // every record's slot
  std::size_t live_ = 0;               // total slot length
};

}  // namespace rina::routing
