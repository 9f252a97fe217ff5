// unit_spf.hpp — shortest paths over a unit-cost link-state database,
// with no allocation once its buffers are warm.
//
// Every LSU makes every member of a flat DIF re-derive all of its routes,
// so this is the control plane's hottest loop. Graph::dijkstra answers the
// same question with two std::maps, a std::map result and a heap vector
// per relaxation; UnitSpf uses flat arrays instead: dense vertex ids in
// address order, CSR out- and in-adjacency, and a breadth-first search one
// level at a time. Each vertex pulls its first hops from its in-neighbors
// one level closer, in address order, appending only hops it does not
// hold yet. Graph::dijkstra settles equal distances in address order and
// appends hops in exactly that order, so on unit costs both give the same
// distances and the same next-hop vectors, order included — and the order
// picks the first-up PoA. tests/test_fib.cpp holds the two to that.
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

  /// A unit-cost link for the next solve(): the source's live neighbors,
  /// or any link the database does not hold.
  void add_link(naming::Address from, naming::Address to) {
    ends_.push_back(from.key());
    ends_.push_back(to.key());
  }

  /// Shortest paths from `src` over the links added since the last solve
  /// plus every record in `lsdb`, each a link from its origin to each of
  /// its neighbors. A record of `src` itself is ignored: the live links
  /// given by add_link() are fresher. Returns every reachable destination
  /// but `src`, in address order. It stays valid until the next solve() on
  /// this kernel, and the caller may rewrite it in place.
  std::vector<Route>& solve(naming::Address src, const Lsdb& lsdb) {
    for (const Lsdb::Entry& rec : lsdb) {
      if (rec.origin == src) continue;
      for (naming::Address n : rec.neighbors) add_link(rec.origin, n);
    }
    run(src.key());
    ends_.clear();
    return routes_;
  }

 private:
  static constexpr std::uint32_t kUnreached = ~std::uint32_t{0};

  /// Counting sort of the links (ends_ already ids) into out-rows.
  void build_out_rows() {
    const std::size_t v = keys_.size();
    out_off_.assign(v + 1, 0);
    for (std::size_t i = 0; i < ends_.size(); i += 2) ++out_off_[ends_[i] + 1];
    for (std::size_t i = 0; i < v; ++i) out_off_[i + 1] += out_off_[i];
    out_.resize(ends_.size() / 2);
    // Fill by bumping each row's start, then shift the starts back.
    for (std::size_t i = 0; i < ends_.size(); i += 2)
      out_[out_off_[ends_[i]]++] = ends_[i + 1];
    for (std::size_t i = v; i > 0; --i) out_off_[i] = out_off_[i - 1];
    out_off_[0] = 0;
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

  void run(std::uint32_t src_key) {
    // Dense ids in address order: sort every end (the source's own last)
    // with its slot, number the distinct keys in one pass, and write each
    // end's id back into its slot.
    ends_.push_back(src_key);
    order_.clear();
    for (std::size_t i = 0; i < ends_.size(); ++i)
      order_.push_back(std::uint64_t{ends_[i]} << 32 | i);
    std::sort(order_.begin(), order_.end());
    keys_.clear();
    for (std::uint64_t o : order_) {
      const auto key = static_cast<std::uint32_t>(o >> 32);
      if (keys_.empty() || keys_.back() != key) keys_.push_back(key);
      ends_[static_cast<std::uint32_t>(o)] = static_cast<std::uint32_t>(keys_.size() - 1);
    }
    const std::uint32_t s = ends_.back();
    ends_.pop_back();
    const std::size_t v = keys_.size();

    build_out_rows();
    build_in_rows();

    // Level-by-level BFS. A level's hop lists depend only on the level
    // before it, so the order within a level does not matter.
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

  // Link i runs ends_[2i] -> ends_[2i+1]: address keys, then vertex ids.
  std::vector<std::uint32_t> ends_;
  std::vector<std::uint64_t> order_;            // (key, slot in ends_), sorted
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
