// unit_spf.hpp — shortest paths over a unit-cost link-state database,
// with no allocation once its buffers are warm.
//
// Every LSU makes every member of a flat DIF re-derive all of its routes,
// so this is the control plane's hottest loop. Graph::dijkstra answers the
// same question with two std::maps, a std::map result and a heap vector
// per relaxation; UnitSpf uses flat arrays instead: dense vertex ids in
// address order, read off the LSDB's origin-sorted records rather than
// sorted per run, CSR out- and in-adjacency, and a breadth-first search
// one level at a time. Each vertex pulls its first hops from its
// in-neighbors one level closer, in address order, appending only hops it
// does not hold yet. Graph::dijkstra settles equal distances in address
// order and appends hops in exactly that order, so on unit costs both give
// the same distances and the same next-hop vectors, order included — and
// the order picks the first-up PoA. tests/test_fib.cpp holds the two to
// that.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "naming/names.hpp"
#include "routing/lsdb.hpp"

namespace rina::routing {

/// A path length. UnitSpf's are hop counts; Graph's may be any weight.
using Cost = std::uint32_t;

class UnitSpf {
 public:
  /// A destination's first hops: a view into the kernel's hop pool.
  using Hops = naming::AddressSpan;
  struct Route {
    naming::Address dest;
    Cost dist = 0;
    Hops hops;
  };

  /// The calling thread's kernel. Its buffers keep their capacity from run
  /// to run, as PacketArena's do, so a run over a graph no larger than an
  /// earlier one allocates nothing; one per thread keeps shards apart.
  static UnitSpf& scratch() {
    static thread_local UnitSpf s;
    return s;
  }

  /// A unit-cost link from the next solve()'s source to `to`: the source's
  /// live neighbors, which stand in for its own record.
  void add_link(naming::Address to) { live_.push_back(to.key()); }

  /// Shortest paths from `src` over the links added since the last solve
  /// plus every record in `lsdb`, each a link from its origin to each of
  /// its neighbors. A record of `src` itself is ignored: the live links
  /// given by add_link() are fresher. Returns every reachable destination
  /// but `src`, in address order. It stays valid until the next solve() on
  /// this kernel, and the caller may rewrite it in place.
  std::vector<Route>& solve(naming::Address src, const Lsdb& lsdb) {
    const std::uint32_t s = number(src.key(), lsdb);
    live_.clear();
    build_in_rows();
    run(s);
    return routes_;
  }

 private:
  static constexpr std::uint32_t kUnreached = ~std::uint32_t{0};

  struct Slot {
    std::uint32_t key;
    std::uint32_t id;  // kUnreached: empty
  };

  /// Vertex ids in address order, taken from the LSDB's origin order, and
  /// the out-rows laid out in that order. Record i is vertex i plus the
  /// record-less addresses that sort before it: neighbors whose LSU has
  /// not arrived, and the source if it has no record. Only the source's
  /// row comes from outside the LSDB, so no other record-less address has
  /// out-links. Each link end finds its id in a hash of the origins sized
  /// by this run's records; record-less ends get provisional ids past the
  /// records, and only those few are sorted and merged in. Returns the
  /// source's id.
  std::uint32_t number(std::uint32_t src, const Lsdb& lsdb) {
    recs_ = static_cast<std::uint32_t>(lsdb.size());
    std::size_t cap = 8;
    while (cap < 2 * (std::size_t{recs_} + 1)) cap *= 2;
    open_table(cap);
    std::uint32_t r = 0;
    for (const Lsdb::Entry& rec : lsdb) {
      const std::uint32_t key = rec.origin.key();
      slots_[probe(key)] = Slot{key, r++};
    }
    extras_.clear();
    const std::uint32_t s = id_of(src);

    out_.clear();
    bool src_row = false;
    auto add_src_row = [&] {
      for (std::uint32_t k : live_) out_.push_back(id_of(k));
      src_row = true;
    };
    for (const Lsdb::Entry& rec : lsdb) {
      const std::uint32_t o = rec.origin.key();
      if (!src_row && src <= o) add_src_row();
      if (o == src) continue;
      for (naming::Address n : rec.neighbors) out_.push_back(id_of(n.key()));
    }
    if (!src_row) add_src_row();

    // Merge the records and the sorted record-less addresses: final ids,
    // keys and row offsets. extras_ holds (key << 32 | provisional id).
    std::sort(extras_.begin(), extras_.end());
    const std::size_t v = recs_ + extras_.size();
    id_.resize(v);
    keys_.resize(v);
    out_off_.resize(v + 1);
    out_off_[0] = 0;
    Lsdb::Iterator rec = lsdb.begin();
    auto x = extras_.begin();
    for (std::uint32_t t = 0, i = 0; t < v; ++t) {
      std::uint32_t key = 0;
      std::size_t len = 0;
      if (i < recs_ && (x == extras_.end() || (*rec).origin.key() < *x >> 32)) {
        const Lsdb::Entry e = *rec;
        ++rec;
        key = e.origin.key();
        len = e.neighbors.size();
        id_[i++] = t;
      } else {
        key = static_cast<std::uint32_t>(*x >> 32);
        id_[static_cast<std::uint32_t>(*x)] = t;
        ++x;
      }
      if (key == src) len = live_.size();
      keys_[t] = key;
      out_off_[t + 1] = out_off_[t] + static_cast<std::uint32_t>(len);
    }
    if (!extras_.empty())
      for (std::uint32_t& t : out_) t = id_[t];
    return id_[s];
  }

  void open_table(std::size_t cap) {
    slots_.assign(cap, Slot{0, kUnreached});
    shift_ = 32;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
  }

  /// The slot holding `key`, or the empty slot where it would go.
  std::uint32_t probe(std::uint32_t key) const {
    const auto mask = static_cast<std::uint32_t>(slots_.size() - 1);
    std::uint32_t i = (key * 0x9E3779B1u) >> shift_;
    while (slots_[i].id != kUnreached && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  /// `key`'s vertex: its record's index, else a new provisional id.
  std::uint32_t id_of(std::uint32_t key) {
    const std::uint32_t i = probe(key);
    if (slots_[i].id != kUnreached) return slots_[i].id;
    const auto id = static_cast<std::uint32_t>(recs_ + extras_.size());
    extras_.push_back(std::uint64_t{key} << 32 | id);
    slots_[i] = Slot{key, id};
    if (2 * (std::size_t{id} + 1) > slots_.size()) {
      // Past half full: double, and re-place what the table held.
      spill_.assign(slots_.begin(), slots_.end());
      open_table(2 * spill_.size());
      for (const Slot& sl : spill_)
        if (sl.id != kUnreached) slots_[probe(sl.key)] = sl;
    }
    return id;
  }

  /// In-rows from the out-rows, walking sources in id order so every
  /// in-row comes out sorted by address — the order hops are pulled in.
  void build_in_rows() {
    const std::size_t v = keys_.size();
    in_off_.assign(v + 1, 0);
    for (std::uint32_t t : out_) ++in_off_[t + 1];
    for (std::size_t i = 0; i < v; ++i) in_off_[i + 1] += in_off_[i];
    in_.resize(out_.size());
    for (std::uint32_t u = 0; u < v; ++u)
      for (std::uint32_t e = out_off_[u]; e < out_off_[u + 1]; ++e)
        in_[in_off_[out_[e]]++] = u;
    for (std::size_t i = v; i > 0; --i) in_off_[i] = in_off_[i - 1];
    in_off_[0] = 0;
  }

  /// v's first hops, appended to the pool: v itself at level 1, else the
  /// union of its one-level-closer in-neighbors' hops in their order.
  void pull_hops(std::uint32_t v) {
    hop_begin_[v] = static_cast<std::uint32_t>(pool_.size());
    const std::uint32_t lv = level_[v];
    if (lv == 1) {
      pool_.push_back(v);
    } else {
      for (std::uint32_t e = in_off_[v]; e < in_off_[v + 1]; ++e) {
        const std::uint32_t u = in_[e];
        if (level_[u] != lv - 1) continue;
        for (std::uint32_t i = hop_begin_[u]; i < hop_end_[u]; ++i) {
          const std::uint32_t h = pool_[i];
          if (mark_[h] == v) continue;
          mark_[h] = v;
          pool_.push_back(h);
        }
      }
    }
    hop_end_[v] = static_cast<std::uint32_t>(pool_.size());
  }

  /// Level-by-level BFS from vertex s, then the routes in id order. A
  /// level's hop lists depend only on the level before it, so the order
  /// within a level does not matter.
  void run(std::uint32_t s) {
    const std::size_t v = keys_.size();
    level_.assign(v, kUnreached);
    hop_begin_.assign(v, 0);
    hop_end_.assign(v, 0);
    mark_.assign(v, kUnreached);
    pool_.clear();
    frontier_.clear();
    frontier_.push_back(s);
    level_[s] = 0;
    for (std::uint32_t lv = 1; !frontier_.empty(); ++lv) {
      next_.clear();
      for (std::uint32_t u : frontier_) {
        for (std::uint32_t e = out_off_[u]; e < out_off_[u + 1]; ++e) {
          const std::uint32_t t = out_[e];
          if (level_[t] != kUnreached) continue;
          level_[t] = lv;
          next_.push_back(t);
        }
      }
      for (std::uint32_t t : next_) pull_hops(t);
      frontier_.swap(next_);
    }

    hop_addrs_.resize(pool_.size());
    for (std::size_t i = 0; i < pool_.size(); ++i)
      hop_addrs_[i] = naming::Address::from_key(keys_[pool_[i]]);
    routes_.clear();
    const naming::Address* base = hop_addrs_.data();
    for (std::uint32_t t = 0; t < v; ++t) {
      if (t == s || level_[t] == kUnreached) continue;
      routes_.push_back(Route{naming::Address::from_key(keys_[t]), level_[t],
                              Hops{base + hop_begin_[t], base + hop_end_[t]}});
    }
  }

  std::vector<std::uint32_t> live_;             // the source's live neighbors' keys
  std::uint32_t recs_ = 0;                      // records in the LSDB being solved
  std::vector<Slot> slots_, spill_;             // address key -> provisional id
  unsigned shift_ = 32;                         // hash: top log2(slots_.size()) bits
  std::vector<std::uint64_t> extras_;           // record-less (key << 32 | provisional id)
  std::vector<std::uint32_t> id_;               // provisional id -> vertex id
  std::vector<std::uint32_t> keys_;             // vertex id -> address key
  std::vector<std::uint32_t> out_off_, out_;    // CSR out-adjacency
  std::vector<std::uint32_t> in_off_, in_;      // CSR in-adjacency, rows sorted
  std::vector<std::uint32_t> level_;            // BFS level = unit-cost distance
  std::vector<std::uint32_t> frontier_, next_;
  std::vector<std::uint32_t> hop_begin_, hop_end_;  // each vertex's hops in pool_
  std::vector<std::uint32_t> mark_;             // mark_[h] == v: h already in v's hops
  std::vector<std::uint32_t> pool_;             // first hops as vertex ids
  std::vector<naming::Address> hop_addrs_;      // pool_ as addresses
  std::vector<Route> routes_;
};

}  // namespace rina::routing
