// graph.hpp — the routing view of one DIF: members as vertices, flow
// adjacencies as edges, Dijkstra with equal-cost next-hop sets.
//
// Routing in this architecture picks the next *node* (step 1 of the
// two-step forwarding model); choosing the path/PoA to that node is the
// forwarding table's job (step 2, relay/forwarding.hpp).
//
// Two SPF modes:
//   - dijkstra(src): full recompute, the classic. Ipcp's full re-route
//     runs UnitSpf (unit_spf.hpp) instead, which gives the same answer
//     on unit costs without the maps; dijkstra is its test oracle and
//     seeds incremental mode.
//   - spf_incremental(src, prev, changes): repair `prev` under a batch
//     of edge-cost changes. If no changed edge touches any current
//     shortest path the call is O(changes) and reports skipped=true;
//     otherwise only the affected subtrees (SP-DAG descendants of
//     worsened tight edges, plus targets of improving edges) are
//     re-relaxed from the clean frontier. Entries carry their SP-DAG
//     parents to make the descendant walk cheap. Incremental results
//     normalize next_hops/parents to sorted order (deterministic
//     regardless of repair order); full dijkstra keeps its historical
//     discovery order, so callers that mix modes must compare hop sets,
//     not vectors. Edge costs must be >= 1 in incremental mode (zero
//     -cost cycles would stall the hop-repair cascade; the guard skips
//     them).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "naming/names.hpp"

namespace rina::routing {

using Cost = std::uint32_t;
inline constexpr Cost kInfinity = std::numeric_limits<Cost>::max();

struct SpfResult {
  struct Entry {
    Cost dist = kInfinity;
    // First-hop neighbors of the source on every equal-cost shortest path.
    std::vector<naming::Address> next_hops;
    // Immediate predecessors on every equal-cost shortest path (the
    // SP-DAG in-neighbors). Incremental repair walks these.
    std::vector<naming::Address> parents;
  };
  std::map<naming::Address, Entry> entries;
};

/// One edge-cost transition for spf_incremental. kInfinity on either
/// side means the edge was absent / is being removed.
struct EdgeChange {
  naming::Address from;
  naming::Address to;
  Cost old_cost = kInfinity;
  Cost new_cost = kInfinity;
};

/// What an incremental run did — the caller updates its FIB from
/// `changed` + `removed` instead of rebuilding it.
struct SpfDelta {
  bool skipped = false;            // nothing touched a shortest path
  std::vector<naming::Address> changed;  // entries recomputed (dist/hops)
  std::vector<naming::Address> removed;  // destinations now unreachable
  std::size_t recomputed = 0;            // vertices touched by repair
};

class Graph {
 public:
  struct Edge {
    naming::Address to;
    Cost cost;
  };

  void add_edge(naming::Address from, naming::Address to, Cost cost) {
    upsert_min(adj_[from], to, cost);
    (void)adj_[to];  // make the vertex known even with no out-edges
    upsert_min(radj_[to], from, cost);
  }

  /// Exact upsert: the edge takes `cost` even if larger than before.
  void set_edge(naming::Address from, naming::Address to, Cost cost) {
    upsert_exact(adj_[from], to, cost);
    (void)adj_[to];
    upsert_exact(radj_[to], from, cost);
  }

  void remove_edge(naming::Address from, naming::Address to) {
    erase_edge(adj_, from, to);
    erase_edge(radj_, to, from);
  }

  [[nodiscard]] Cost edge_cost(naming::Address from, naming::Address to) const {
    auto it = adj_.find(from);
    if (it == adj_.end()) return kInfinity;
    for (const Edge& e : it->second)
      if (e.to == to) return e.cost;
    return kInfinity;
  }

  void clear() {
    adj_.clear();
    radj_.clear();
  }

  [[nodiscard]] std::size_t node_count() const { return adj_.size(); }

  [[nodiscard]] SpfResult dijkstra(naming::Address src) const {
    SpfResult out;
    auto& entries = out.entries;
    entries[src].dist = 0;

    using QItem = std::pair<Cost, naming::Address>;
    std::priority_queue<QItem, std::vector<QItem>, std::greater<>> q;
    q.emplace(0, src);
    std::map<naming::Address, bool> done;

    while (!q.empty()) {
      auto [d, u] = q.top();
      q.pop();
      if (done[u]) continue;
      done[u] = true;
      auto it = adj_.find(u);
      if (it == adj_.end()) continue;
      for (const Edge& e : it->second) {
        if (e.cost == kInfinity) continue;
        Cost nd = d + e.cost;
        auto& ent = entries[e.to];
        // First-hop propagation: the source's neighbors seed themselves.
        std::vector<naming::Address> via =
            u == src ? std::vector<naming::Address>{e.to} : entries[u].next_hops;
        if (nd < ent.dist) {
          ent.dist = nd;
          ent.next_hops = via;
          ent.parents = {u};
          q.emplace(nd, e.to);
        } else if (nd == ent.dist) {
          for (const auto& h : via)
            if (std::find(ent.next_hops.begin(), ent.next_hops.end(), h) ==
                ent.next_hops.end())
              ent.next_hops.push_back(h);
          if (std::find(ent.parents.begin(), ent.parents.end(), u) ==
              ent.parents.end())
            ent.parents.push_back(u);
        }
      }
    }
    entries.erase(src);
    return out;
  }

  /// Repair `prev` (a result for `src` consistent with this graph before
  /// `changes` were applied to it) into the result for the current
  /// graph. `changes` describe cost transitions already applied via
  /// set_edge/remove_edge, in order; an edge may appear more than once.
  /// See the header comment for guarantees.
  [[nodiscard]] SpfResult spf_incremental(naming::Address src,
                                          const SpfResult& prev,
                                          const std::vector<EdgeChange>& changes,
                                          SpfDelta& delta) const {
    auto addc = [](Cost a, Cost b) -> Cost {
      if (a == kInfinity || b == kInfinity) return kInfinity;
      std::uint64_t s = static_cast<std::uint64_t>(a) + b;
      return s >= kInfinity ? kInfinity : static_cast<Cost>(s);
    };
    auto prev_dist = [&](naming::Address a) -> Cost {
      if (a == src) return 0;
      auto it = prev.entries.find(a);
      return it == prev.entries.end() ? kInfinity : it->second.dist;
    };

    // 0. Net each edge's transitions: a batch may touch one edge twice (a
    // flap inside the caller's debounce), and only the cost `prev` saw
    // and the graph's current cost matter.
    std::map<std::pair<naming::Address, naming::Address>, EdgeChange> net;
    for (const auto& ch : changes) {
      EdgeChange& n = net.try_emplace({ch.from, ch.to}, ch).first->second;
      n.new_cost = edge_cost(ch.from, ch.to);
    }

    // 1. Which changes can matter? A worsened edge only if it was tight
    // (on a shortest path); an improved edge only if its new cost meets
    // or beats the target's distance (== still matters: new equal-cost
    // path changes the hop set).
    std::vector<const EdgeChange*> worse_hit, better_hit;
    for (const auto& [edge, ch] : net) {
      if (ch.to == src || ch.from == ch.to) continue;
      Cost du = prev_dist(ch.from);
      Cost dv = prev_dist(ch.to);
      if (ch.new_cost > ch.old_cost) {
        if (dv != kInfinity && addc(du, ch.old_cost) == dv)
          worse_hit.push_back(&ch);
      } else if (ch.new_cost < ch.old_cost) {
        Cost cand = addc(du, ch.new_cost);
        if (cand != kInfinity && cand <= dv) better_hit.push_back(&ch);
      }
    }
    if (worse_hit.empty() && better_hit.empty()) {
      delta.skipped = true;
      return prev;
    }

    // 2. Dirty set: targets of worsened tight edges and all their SP-DAG
    // descendants (conservative: any dirty parent dirties the child).
    std::set<naming::Address> dirty;
    std::map<naming::Address, std::vector<naming::Address>> children;
    for (const auto& [v, e] : prev.entries)
      for (const auto& p : e.parents) children[p].push_back(v);
    std::vector<naming::Address> stack;
    auto mark = [&](naming::Address v) {
      if (v != src && dirty.insert(v).second) stack.push_back(v);
    };
    for (const auto* ch : worse_hit) mark(ch->to);
    while (!stack.empty()) {
      naming::Address v = stack.back();
      stack.pop_back();
      auto it = children.find(v);
      if (it == children.end()) continue;
      for (const auto& c : it->second) mark(c);
    }

    SpfResult out = prev;
    for (const auto& v : dirty) out.entries.erase(v);
    auto cur_dist = [&](naming::Address a) -> Cost {
      if (a == src) return 0;
      auto it = out.entries.find(a);
      return it == out.entries.end() ? kInfinity : it->second.dist;
    };

    // 3. Phase A — distances. Seed every dirty vertex from its clean
    // in-neighbors and every improving edge from its (clean) source,
    // then run Dijkstra over the affected region only. Clean distances
    // are valid lower bounds: a clean vertex has no dirty parent, so
    // its old shortest path is intact.
    using QItem = std::pair<Cost, naming::Address>;
    std::priority_queue<QItem, std::vector<QItem>, std::greater<>> q;
    for (const auto& v : dirty) {
      auto rit = radj_.find(v);
      if (rit == radj_.end()) continue;
      for (const Edge& ie : rit->second) {  // ie.to = in-neighbor of v
        if (dirty.count(ie.to)) continue;
        Cost cand = addc(cur_dist(ie.to), ie.cost);
        if (cand != kInfinity) q.emplace(cand, v);
      }
    }
    for (const auto* ch : better_hit) {
      if (dirty.count(ch->from)) continue;
      Cost cand = addc(cur_dist(ch->from), ch->new_cost);
      if (cand != kInfinity) q.emplace(cand, ch->to);
    }

    std::set<naming::Address> settled, hops_dirty;
    while (!q.empty()) {
      auto [d, u] = q.top();
      q.pop();
      if (settled.count(u)) continue;
      Cost cu = cur_dist(u);
      if (d > cu) continue;
      if (d == cu && out.entries.count(u)) {
        // Equal-cost path appeared: distance stands, hops need repair.
        hops_dirty.insert(u);
        continue;
      }
      out.entries[u].dist = d;
      settled.insert(u);
      hops_dirty.insert(u);
      auto it = adj_.find(u);
      if (it == adj_.end()) continue;
      for (const Edge& e : it->second) {
        if (e.to == src) continue;
        Cost cand = addc(d, e.cost);
        if (cand == kInfinity) continue;
        Cost ct = cur_dist(e.to);
        if (cand < ct) q.emplace(cand, e.to);
        else if (cand == ct && out.entries.count(e.to)) hops_dirty.insert(e.to);
      }
    }

    // Dirty vertices never settled are unreachable now.
    for (const auto& v : dirty)
      if (!out.entries.count(v)) delta.removed.push_back(v);

    // 4. Phase B — parents + first-hop sets, in distance order so a
    // repaired vertex reads final hop sets from its (strictly closer)
    // tight in-neighbors. Hop changes cascade to tight children even
    // when distances didn't move.
    std::set<QItem> work;
    for (const auto& v : hops_dirty) {
      auto it = out.entries.find(v);
      if (it != out.entries.end()) work.emplace(it->second.dist, v);
    }
    std::set<naming::Address> done;
    while (!work.empty()) {
      auto [d, v] = *work.begin();
      work.erase(work.begin());
      if (!done.insert(v).second) continue;
      auto& ent = out.entries[v];
      std::vector<naming::Address> parents;
      std::vector<naming::Address> hops;
      auto rit = radj_.find(v);
      if (rit != radj_.end()) {
        std::vector<Edge> ins(rit->second);
        std::sort(ins.begin(), ins.end(),
                  [](const Edge& a, const Edge& b) { return a.to < b.to; });
        for (const Edge& ie : ins) {
          if (addc(cur_dist(ie.to), ie.cost) != d) continue;
          parents.push_back(ie.to);
          if (ie.to == src) {
            hops.push_back(v);
          } else {
            auto uit = out.entries.find(ie.to);
            if (uit != out.entries.end())
              hops.insert(hops.end(), uit->second.next_hops.begin(),
                          uit->second.next_hops.end());
          }
        }
      }
      std::sort(hops.begin(), hops.end());
      hops.erase(std::unique(hops.begin(), hops.end()), hops.end());
      std::vector<naming::Address> old_sorted = ent.next_hops;
      std::sort(old_sorted.begin(), old_sorted.end());
      bool hops_changed = hops != old_sorted;
      ent.parents = std::move(parents);
      if (!hops_changed) continue;
      ent.next_hops = std::move(hops);
      auto ait = adj_.find(v);
      if (ait == adj_.end()) continue;
      for (const Edge& e : ait->second) {
        if (e.to == src || done.count(e.to)) continue;
        auto cit = out.entries.find(e.to);
        if (cit == out.entries.end()) continue;
        // Strictly-greater guard also sidesteps zero-cost cycles.
        if (cit->second.dist > d && addc(d, e.cost) == cit->second.dist)
          work.emplace(cit->second.dist, e.to);
      }
    }

    delta.recomputed = done.size();
    delta.changed.assign(done.begin(), done.end());
    return out;
  }

  [[nodiscard]] const std::map<naming::Address, std::vector<Edge>>& adjacency()
      const {
    return adj_;
  }

 private:
  static void upsert_min(std::vector<Edge>& edges, naming::Address to, Cost cost) {
    for (auto& e : edges) {
      if (e.to == to) {
        e.cost = std::min(e.cost, cost);
        return;
      }
    }
    edges.push_back(Edge{to, cost});
  }

  static void upsert_exact(std::vector<Edge>& edges, naming::Address to,
                           Cost cost) {
    for (auto& e : edges) {
      if (e.to == to) {
        e.cost = cost;
        return;
      }
    }
    edges.push_back(Edge{to, cost});
  }

  static void erase_edge(std::map<naming::Address, std::vector<Edge>>& m,
                         naming::Address from, naming::Address to) {
    auto it = m.find(from);
    if (it == m.end()) return;
    auto& edges = it->second;
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [&](const Edge& e) { return e.to == to; }),
                edges.end());
  }

  std::map<naming::Address, std::vector<Edge>> adj_;
  // Reverse adjacency: radj_[v] lists (in-neighbor, cost) as Edge{to=u}.
  std::map<naming::Address, std::vector<Edge>> radj_;
};

}  // namespace rina::routing
