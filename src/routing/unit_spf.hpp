// unit_spf.hpp — shortest paths over a unit-cost link-state database,
// with no allocation once its buffers are warm.
//
// Every LSU makes every member of a flat DIF re-derive all of its routes,
// so this is the control plane's hottest loop. Graph::dijkstra answers the
// same question with two std::maps, a std::map result and a heap vector
// per relaxation; UnitSpf uses flat arrays and splits the work in two.
//
// The graph is built once per set of records: dense vertex ids in address
// order over every origin and every neighbor with no record yet, CSR
// out-rows from every record (the source's own too), in-rows sorted by
// address, and a hash from address to id. It depends on the records alone,
// so the thread's kernel keeps it with an exact copy of the records it came
// from and rebuilds only when solve() is handed different ones: origins,
// neighbor counts and neighbor addresses, compared record by record. Seqs
// and the LSDB's pool layout are not compared, as no route depends on
// them. After a flap every member of a flat DIF solves the same records in
// turn, so one pays the build and the others reuse it.
//
// The run is one member's: a breadth-first search one level at a time,
// whose first level is the source's live links, not its record. That
// record is the last LSU the source sent, which lags a port that just
// went down or came up, and the source is never expanded past level 0, so
// its record shapes no route even though the graph holds it. Each deeper
// vertex pulls its first hops from its in-neighbors one level closer, in
// address order, appending only hops it does not hold yet. Graph::dijkstra
// settles equal distances in address order and appends hops in exactly
// that order, so on unit costs both give the same distances and the same
// next-hop vectors, order included — and the order picks the first-up
// PoA. tests/test_fib.cpp holds the two to that.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
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
  /// earlier one allocates nothing; one per thread keeps shards apart, and
  /// each keeps its own last graph.
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
    if (!holds(lsdb)) build(lsdb);
    run(src.key());
    live_.clear();
    return routes_;
  }

  /// Graphs built on this kernel so far: one per change of records.
  [[nodiscard]] std::uint64_t builds() const { return builds_; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// Are `lsdb`'s records the ones the graph was built from?
  [[nodiscard]] bool holds(const Lsdb& lsdb) const {
    if (builds_ == 0 || lsdb.size() != origin_.size()) return false;
    std::uint32_t off = 0;
    for (std::size_t i = 0; i < origin_.size(); ++i) {
      const Lsdb::Raw r = lsdb.raw(i);
      const auto n = static_cast<std::uint32_t>(r.neighbors.size());
      if (r.origin != origin_[i] || off + n != end_[i]) return false;
      if (n != 0 && std::memcmp(r.neighbors.begin(), nbrs_.data() + off,
                                n * sizeof(naming::Address)) != 0)
        return false;
      off += n;
    }
    return true;
  }

  /// Copy `lsdb`'s records, then number the vertices: record i is vertex i
  /// plus the record-less neighbors that sort before it. Each neighbor finds
  /// its id in the hash; a record-less one gets a provisional id past the
  /// records, and only those few are sorted and merged in.
  void build(const Lsdb& lsdb) {
    ++builds_;
    const auto recs = static_cast<std::uint32_t>(lsdb.size());
    origin_.resize(recs);
    end_.resize(recs);
    std::uint32_t total = 0;
    for (std::uint32_t i = 0; i < recs; ++i) {
      const Lsdb::Raw r = lsdb.raw(i);
      origin_[i] = r.origin;
      end_[i] = total += static_cast<std::uint32_t>(r.neighbors.size());
    }
    extras_.clear();
    std::size_t cap = 8;
    while (cap < 2 * (std::size_t{recs} + 1)) cap *= 2;
    index(cap);
    nbrs_.resize(total);
    out_.resize(total);
    for (std::uint32_t i = 0, e = 0; i < recs; ++i) {
      for (naming::Address n : lsdb.raw(i).neighbors) {
        nbrs_[e] = n;
        out_[e++] = id_of(n.key());
      }
    }

    std::sort(extras_.begin(), extras_.end());
    const std::size_t v = recs + extras_.size();
    id_.resize(v);
    addr_.resize(v);
    out_off_.resize(v + 1);
    out_off_[0] = 0;
    auto x = extras_.begin();
    for (std::uint32_t t = 0, i = 0, off = 0; t < v; ++t) {
      if (i < recs && (x == extras_.end() || origin_[i] < *x >> 32)) {
        addr_[t] = naming::Address::from_key(origin_[i]);
        off = end_[i];
        id_[i++] = t;
      } else {
        addr_[t] = naming::Address::from_key(static_cast<std::uint32_t>(*x >> 32));
        id_[static_cast<std::uint32_t>(*x)] = t;
        ++x;
      }
      out_off_[t + 1] = off;
    }
    if (!extras_.empty()) {
      for (std::uint32_t& t : out_) t = id_[t];
      for (std::uint64_t& h : hash_)
        if (h != kEmpty) h = (h & ~std::uint64_t{kNone}) | id_[static_cast<std::uint32_t>(h)];
    }
    build_in_rows();
    level_.resize(v);
    hop_begin_.resize(v);
    hop_end_.resize(v);
    mark_.resize(v);
    queue_.resize(v);
  }

  /// Open a hash of `cap` slots and place every key numbered so far.
  /// A slot holds (key << 32 | id), as extras_ does.
  void index(std::size_t cap) {
    hash_.assign(cap, kEmpty);
    shift_ = 32;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    for (std::uint32_t i = 0; i < origin_.size(); ++i)
      hash_[probe(origin_[i])] = std::uint64_t{origin_[i]} << 32 | i;
    for (std::uint64_t x : extras_) hash_[probe(static_cast<std::uint32_t>(x >> 32))] = x;
  }

  /// The slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(std::uint32_t key) const {
    const std::size_t mask = hash_.size() - 1;
    std::size_t i = (key * 0x9E3779B1u) >> shift_;
    while (hash_[i] != kEmpty && hash_[i] >> 32 != key) i = (i + 1) & mask;
    return i;
  }

  /// `key`'s vertex, or kNone.
  [[nodiscard]] std::uint32_t find(std::uint32_t key) const {
    const std::uint64_t h = hash_[probe(key)];
    return h == kEmpty ? kNone : static_cast<std::uint32_t>(h);
  }

  /// `key`'s vertex while numbering: its record's index, else a new
  /// provisional id. Past half full the hash doubles.
  std::uint32_t id_of(std::uint32_t key) {
    const std::size_t i = probe(key);
    if (hash_[i] != kEmpty) return static_cast<std::uint32_t>(hash_[i]);
    const auto id = static_cast<std::uint32_t>(origin_.size() + extras_.size());
    extras_.push_back(std::uint64_t{key} << 32 | id);
    hash_[i] = extras_.back();
    if (2 * (std::size_t{id} + 1) > hash_.size()) index(2 * hash_.size());
    return id;
  }

  /// In-rows from the out-rows, walking sources in id order so every
  /// in-row comes out sorted by address — the order hops are pulled in.
  void build_in_rows() {
    const std::size_t v = addr_.size();
    in_off_.assign(v + 1, 0);
    for (std::uint32_t t : out_) ++in_off_[t + 1];
    for (std::uint32_t i = 1, sum = 0; i <= v; ++i) in_off_[i] = sum += in_off_[i];
    in_.resize(out_.size());
    for (std::uint32_t u = 0, e = 0; u < v; ++u)
      for (const std::uint32_t end = out_off_[u + 1]; e < end; ++e) in_[in_off_[out_[e]]++] = u;
    for (std::size_t i = v; i > 0; --i) in_off_[i] = in_off_[i - 1];
    in_off_[0] = 0;
  }

  /// v's first hops at level `lv` >= 2: the union of its in-neighbors' hops
  /// at level lv - 1, in their order. While only one in-neighbor has
  /// contributed, v shares its span of the pool; a second one copies it.
  void pull_hops(std::uint32_t v, std::uint32_t lv) {
    std::uint32_t begin = kNone, end = 0;
    bool own = false;
    for (std::uint32_t e = in_off_[v]; e < in_off_[v + 1]; ++e) {
      const std::uint32_t u = in_[e];
      if (level_[u] != lv - 1) continue;
      if (begin == kNone) {
        begin = hop_begin_[u];
        end = hop_end_[u];
        continue;
      }
      if (!own) {
        const auto at = static_cast<std::uint32_t>(pool_.size());
        append_hops(begin, end, v);
        begin = at;
        own = true;
      }
      append_hops(hop_begin_[u], hop_end_[u], v);
      end = static_cast<std::uint32_t>(pool_.size());
    }
    hop_begin_[v] = begin;
    hop_end_[v] = end;
  }

  /// Appends to the pool the hops in pool_[b, e) that v does not hold yet.
  void append_hops(std::uint32_t b, std::uint32_t e, std::uint32_t v) {
    for (; b < e; ++b) {
      const std::uint32_t h = pool_[b];
      if (mark_[h] == v) continue;
      mark_[h] = v;
      pool_.push_back(h);
    }
  }

  /// Level-by-level BFS from `src`: level 0 is its vertex, or a virtual
  /// root when no record names it, and level 1 its live links. A live peer
  /// that no record names is a route and nothing more. Then the routes in
  /// address order. A level's hop lists depend only on the level before
  /// it, so the order within a level does not matter.
  void run(std::uint32_t src) {
    const std::size_t v = addr_.size();
    std::fill(level_.begin(), level_.end(), kNone);
    pool_.clear();
    lone_.clear();
    std::uint32_t* const queue = queue_.data();
    std::uint32_t reached = 0;
    const std::uint32_t s = find(src);
    if (s != kNone) level_[s] = 0;
    for (std::uint32_t key : live_) {
      if (key == src) continue;
      const std::uint32_t t = find(key);
      if (t == kNone) {
        lone_.push_back(key);
        continue;
      }
      if (level_[t] != kNone) continue;
      level_[t] = 1;
      mark_[t] = kNone;
      hop_begin_[t] = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(t);
      hop_end_[t] = hop_begin_[t] + 1;
      queue[reached++] = t;
    }
    // queue[done, level_end) is the level being expanded.
    for (std::uint32_t lv = 2, done = 0; done < reached; ++lv) {
      const std::uint32_t level_end = reached;
      for (; done < level_end; ++done) {
        const std::uint32_t u = queue[done];
        for (std::uint32_t e = out_off_[u]; e < out_off_[u + 1]; ++e) {
          const std::uint32_t t = out_[e];
          if (level_[t] != kNone) continue;
          level_[t] = lv;
          queue[reached++] = t;
        }
      }
      for (std::uint32_t i = level_end; i < reached; ++i) pull_hops(queue[i], lv);
    }
    std::sort(lone_.begin(), lone_.end());
    lone_.erase(std::unique(lone_.begin(), lone_.end()), lone_.end());

    // Written field by field into sized arrays: a Route built whole and
    // copied would be read back wider than its 16-bit address halves
    // were stored, and stall.
    const std::size_t pooled = pool_.size();
    hop_addrs_.resize(pooled + lone_.size());
    for (std::size_t i = 0; i < pooled; ++i) hop_addrs_[i] = addr_[pool_[i]];
    const naming::Address* base = hop_addrs_.data();
    routes_.resize(std::size_t{reached} + lone_.size());
    Route* out = routes_.data();
    std::size_t j = 0;
    auto add_lone = [&] {
      hop_addrs_[pooled + j] = naming::Address::from_key(lone_[j]);
      out->dest = hop_addrs_[pooled + j];
      out->dist = 1;
      out->hops = Hops{base + pooled + j, base + pooled + j + 1};
      ++out;
      ++j;
    };
    for (std::uint32_t t = 0; t < v; ++t) {
      const std::uint32_t lv = level_[t];
      if (lv == kNone || lv == 0) continue;
      while (j < lone_.size() && lone_[j] < addr_[t].key()) add_lone();
      out->dest = addr_[t];
      out->dist = lv;
      out->hops = Hops{base + hop_begin_[t], base + hop_end_[t]};
      ++out;
    }
    while (j < lone_.size()) add_lone();
  }

  std::vector<std::uint32_t> live_;  // the source's live neighbors' keys
  std::uint64_t builds_ = 0;

  // The records the graph was built from: origin keys, each record's
  // neighbors' end in nbrs_, and the neighbors.
  std::vector<std::uint32_t> origin_, end_;
  std::vector<naming::Address> nbrs_;

  // The graph, and the build's scratch.
  std::vector<std::uint64_t> hash_;            // address key -> vertex id
  unsigned shift_ = 32;                        // hash: top log2(hash_.size()) bits
  std::vector<std::uint64_t> extras_;          // record-less (key << 32 | provisional id)
  std::vector<std::uint32_t> id_;              // provisional id -> vertex id
  std::vector<naming::Address> addr_;          // vertex id -> address
  std::vector<std::uint32_t> out_off_, out_;   // CSR out-adjacency
  std::vector<std::uint32_t> in_off_, in_;     // CSR in-adjacency, rows sorted

  // One run's state.
  std::vector<std::uint32_t> level_;           // BFS level = unit-cost distance
  std::vector<std::uint32_t> queue_;           // reached vertices, level by level
  std::vector<std::uint32_t> hop_begin_, hop_end_;  // each vertex's hops in pool_
  std::vector<std::uint32_t> mark_;            // mark_[h] == v: h already in v's hops
  std::vector<std::uint32_t> pool_;            // first hops as vertex ids
  std::vector<std::uint32_t> lone_;            // live peers no record names
  std::vector<naming::Address> hop_addrs_;     // pool_ as addresses, then lone_
  std::vector<Route> routes_;
};

}  // namespace rina::routing
