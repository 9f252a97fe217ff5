// graph.hpp — a weighted member graph and the classic Dijkstra with
// equal-cost next-hop sets: the reference the unit-cost kernel is held to.
//
// Routing in this architecture picks the next *node* (step 1 of the
// two-step forwarding model); choosing the path/PoA to that node is the
// forwarding table's job (step 2, relay/forwarding.hpp).
//
// Ipcp routes with UnitSpf (unit_spf.hpp), which gives dijkstra's answer
// on unit costs without the maps. Graph stays as its reference: the
// differential oracle in tests/test_fib.cpp, BM_Dijkstra in
// bench/bench_micro.cpp, and the repository benchmark's replay.
#pragma once

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <vector>

#include "naming/names.hpp"
#include "routing/unit_spf.hpp"

namespace rina::routing {

inline constexpr Cost kInfinity = std::numeric_limits<Cost>::max();

struct SpfResult {
  struct Entry {
    Cost dist = kInfinity;
    // First-hop neighbors of the source on every equal-cost shortest path.
    std::vector<naming::Address> next_hops;
  };
  std::map<naming::Address, Entry> entries;
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
          q.emplace(nd, e.to);
        } else if (nd == ent.dist) {
          for (const auto& h : via)
            if (std::find(ent.next_hops.begin(), ent.next_hops.end(), h) ==
                ent.next_hops.end())
              ent.next_hops.push_back(h);
        }
      }
    }
    entries.erase(src);
    return out;
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

  std::map<naming::Address, std::vector<Edge>> adj_;
};

}  // namespace rina::routing
