// store.hpp — an in-network content store with ARC replacement.
//
// The store is a cache of named objects keyed by (application name,
// object id). It backs two very different deployments from one
// implementation: a relay IPCP's RMT policy (rmt_content_store_objects in
// the DIF config) and the baseline's explicit CDN middlebox — the point of
// the comparison is that the *same* cache either lives inside the DIF as
// policy or gets bolted on outside as another box.
//
// Replacement is ARC (Megiddo & Modha): two live LRU lists — T1 holds
// objects seen once (recency), T2 objects seen at least twice
// (frequency) — shadowed by equal-length ghost lists B1/B2 that remember
// only keys of recent evictions. A hit in a ghost list is evidence the
// cache evicted something it should have kept, so it grows the target
// size `p` of the side that missed: B1 hits grow T1's share, B2 hits
// shrink it. The cache thereby tunes itself between LRU-like and
// LFU-like behavior per workload, with no knob to mis-set — which is
// what an RMT policy wants, since nobody hand-tunes a relay.
//
// Entries can carry a TTL (0 = immortal); expiry is lazy, detected at
// lookup. All transitions are counted (cs_hits, cs_misses, cs_inserts,
// cs_evictions, cs_ghost_hits, cs_ttl_expired) so DIF-wide counter sums
// expose cache behavior to the benches.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "common/stats.hpp"
#include "sim/time.hpp"

namespace rina::content {

/// What a cached object is named by: the destination application's name
/// (the content namespace) plus an object id inside it.
struct ObjectKey {
  std::string name;
  std::uint64_t id = 0;

  bool operator<(const ObjectKey& o) const {
    if (name != o.name) return name < o.name;
    return id < o.id;
  }
  bool operator==(const ObjectKey& o) const {
    return name == o.name && id == o.id;
  }
};

class ContentStore {
 public:
  /// `capacity` bounds the number of *live* objects (T1+T2); the ghost
  /// lists remember up to `capacity` more keys each, value-free.
  /// `ttl.ns == 0` disables expiry.
  explicit ContentStore(std::size_t capacity, SimTime ttl = SimTime{})
      : capacity_(capacity), ttl_(ttl) {}

  /// Look up an object. A hit returns a pointer valid until the next
  /// mutating call and promotes the entry to T2's MRU position (a second
  /// touch is the frequency signal ARC feeds on). Expired entries are
  /// removed on sight and count as misses. Ghost residency is a miss
  /// too — ghosts hold no bytes; their moment comes at insert().
  const Bytes* lookup(const ObjectKey& key, SimTime now) {
    auto it = index_.find(key);
    if (it == index_.end() || it->second.list == ListId::b1 ||
        it->second.list == ListId::b2) {
      stats_.inc("cs_misses");
      return nullptr;
    }
    Rec& rec = it->second;
    if (expired(rec, now)) {
      stats_.inc("cs_ttl_expired");
      stats_.inc("cs_misses");
      erase(it);
      return nullptr;
    }
    move_to(key, rec, ListId::t2);
    stats_.inc("cs_hits");
    return &rec.value;
  }

  /// Insert (or refresh) an object. New keys land in T1; keys remembered
  /// by a ghost list re-enter directly into T2 and adapt the target —
  /// this is the "we evicted something we wanted" learning step.
  void insert(const ObjectKey& key, BytesView object, SimTime now) {
    if (capacity_ == 0) return;
    auto it = index_.find(key);
    if (it != index_.end()) {
      Rec& rec = it->second;
      switch (rec.list) {
        case ListId::t1:
        case ListId::t2:
          // Already live: refresh bytes and clock, treat as a touch.
          rec.value = object.to_bytes();
          rec.stored = now;
          move_to(key, rec, ListId::t2);
          return;
        case ListId::b1:
          // Recency side evicted too eagerly: grow T1's target.
          target_ += std::max<std::size_t>(1, b2_.size() / std::max<std::size_t>(1, b1_.size()));
          if (target_ > capacity_) target_ = capacity_;
          stats_.inc("cs_ghost_hits");
          if (live_full()) replace(false);
          revive(it, object, now);
          return;
        case ListId::b2:
          // Frequency side evicted too eagerly: shrink T1's target.
          {
            std::size_t delta = std::max<std::size_t>(
                1, b1_.size() / std::max<std::size_t>(1, b2_.size()));
            target_ = delta > target_ ? 0 : target_ - delta;
          }
          stats_.inc("cs_ghost_hits");
          if (live_full()) replace(true);
          revive(it, object, now);
          return;
      }
    }
    // Brand new key: ARC case IV — bound the total footprint (live +
    // ghosts) to 2c before admitting into T1.
    std::size_t l1 = t1_.size() + b1_.size();
    if (l1 == capacity_) {
      if (!b1_.empty()) {
        drop_ghost(b1_);
        if (live_full()) replace(false);
      } else {
        evict_from(t1_, b1_, /*remember=*/false);  // T1 full, no ghosts yet
      }
    } else if (l1 + t2_.size() + b2_.size() >= capacity_) {
      if (l1 + t2_.size() + b2_.size() >= 2 * capacity_ && !b2_.empty())
        drop_ghost(b2_);
      if (live_full()) replace(false);
    }
    auto [nit, inserted] = index_.emplace(key, Rec{});
    (void)inserted;
    Rec& rec = nit->second;
    rec.value = object.to_bytes();
    rec.stored = now;
    rec.list = ListId::t1;
    t1_.push_front(key);
    rec.pos = t1_.begin();
    stats_.inc("cs_inserts");
  }

  [[nodiscard]] std::size_t size() const { return t1_.size() + t2_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Adaptive target size for T1 (ARC's p). Starts at 0; a
  /// recency-favoring workload drives it up, a frequency-favoring one
  /// drives it back down.
  [[nodiscard]] std::size_t target_t1() const { return target_; }
  [[nodiscard]] std::size_t t1_size() const { return t1_.size(); }
  [[nodiscard]] std::size_t t2_size() const { return t2_.size(); }
  [[nodiscard]] std::size_t b1_size() const { return b1_.size(); }
  [[nodiscard]] std::size_t b2_size() const { return b2_.size(); }

  [[nodiscard]] bool contains_live(const ObjectKey& key) const {
    auto it = index_.find(key);
    return it != index_.end() &&
           (it->second.list == ListId::t1 || it->second.list == ListId::t2);
  }

  Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  enum class ListId : std::uint8_t { t1, t2, b1, b2 };

  struct Rec {
    ListId list = ListId::t1;
    std::list<ObjectKey>::iterator pos;
    Bytes value;     // empty while ghosted
    SimTime stored;  // insert/refresh time, for TTL
  };

  [[nodiscard]] bool expired(const Rec& rec, SimTime now) const {
    return ttl_.ns != 0 && now - rec.stored > ttl_;
  }

  /// TTL expiry can leave the live set short of capacity; REPLACE (a
  /// demotion into a ghost list) only makes sense when it is full.
  [[nodiscard]] bool live_full() const {
    return t1_.size() + t2_.size() >= capacity_;
  }

  std::list<ObjectKey>& list_of(ListId id) {
    switch (id) {
      case ListId::t1: return t1_;
      case ListId::t2: return t2_;
      case ListId::b1: return b1_;
      case ListId::b2: return b2_;
    }
    return t1_;  // unreachable
  }

  void move_to(const ObjectKey& key, Rec& rec, ListId dst) {
    list_of(rec.list).erase(rec.pos);
    rec.list = dst;
    list_of(dst).push_front(key);
    rec.pos = list_of(dst).begin();
  }

  /// ARC's REPLACE: make room for one live entry by demoting the LRU of
  /// whichever live list exceeds its share into its ghost list.
  void replace(bool key_was_in_b2) {
    if (!t1_.empty() &&
        (t1_.size() > target_ || (key_was_in_b2 && t1_.size() == target_))) {
      evict_from(t1_, b1_, /*remember=*/true);
    } else if (!t2_.empty()) {
      evict_from(t2_, b2_, /*remember=*/true);
    } else if (!t1_.empty()) {
      evict_from(t1_, b1_, /*remember=*/true);
    }
  }

  /// Demote `live`'s LRU entry: the bytes are gone either way; with
  /// `remember` the key stays as a ghost, otherwise it is forgotten.
  void evict_from(std::list<ObjectKey>& live, std::list<ObjectKey>& ghost,
                  bool remember) {
    ObjectKey victim = live.back();
    auto it = index_.find(victim);
    live.pop_back();
    stats_.inc("cs_evictions");
    if (!remember) {
      index_.erase(it);
      return;
    }
    Rec& rec = it->second;
    rec.value = Bytes{};
    rec.list = (&ghost == &b1_) ? ListId::b1 : ListId::b2;
    ghost.push_front(victim);
    rec.pos = ghost.begin();
  }

  /// Forget a ghost list's LRU key entirely.
  void drop_ghost(std::list<ObjectKey>& ghost) {
    if (ghost.empty()) return;
    index_.erase(index_.find(ghost.back()));
    ghost.pop_back();
  }

  /// A ghost comes back to life in T2 with fresh bytes.
  void revive(std::map<ObjectKey, Rec>::iterator it, BytesView object,
              SimTime now) {
    Rec& rec = it->second;
    rec.value = object.to_bytes();
    rec.stored = now;
    move_to(it->first, rec, ListId::t2);
    stats_.inc("cs_inserts");
  }

  void erase(std::map<ObjectKey, Rec>::iterator it) {
    list_of(it->second.list).erase(it->second.pos);
    index_.erase(it);
  }

  std::size_t capacity_;
  SimTime ttl_;
  std::size_t target_ = 0;  // ARC's p: T1's adaptive share of capacity
  std::list<ObjectKey> t1_, t2_, b1_, b2_;
  std::map<ObjectKey, Rec> index_;
  Stats stats_;
};

}  // namespace rina::content
