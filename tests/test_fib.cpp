// test_fib — Dijkstra with equal-cost sets, two-step forwarding lookups
// (late PoA binding, round-robin), region aggregation, the directory and
// its version stamps, and incremental SPF against full Dijkstra.
#include "naming/directory.hpp"
#include "relay/forwarding.hpp"
#include "routing/graph.hpp"

#include <set>
#include <utility>
#include <vector>

#include "test_util.hpp"

using namespace rina;
using naming::Address;

static void dijkstra_basic() {
  routing::Graph g;
  Address a{1, 1}, b{1, 2}, c{1, 3}, d{1, 4};
  g.add_edge(a, b, 1);
  g.add_edge(b, a, 1);
  g.add_edge(b, c, 1);
  g.add_edge(c, b, 1);
  g.add_edge(a, d, 1);
  g.add_edge(d, a, 1);
  g.add_edge(d, c, 1);
  g.add_edge(c, d, 1);
  CHECK(g.node_count() == 4);

  auto spf = g.dijkstra(a);
  CHECK(spf.entries.at(b).dist == 1);
  CHECK(spf.entries.at(b).next_hops == std::vector<Address>{b});
  // Two equal-cost paths to c: via b and via d.
  CHECK(spf.entries.at(c).dist == 2);
  std::set<Address> hops(spf.entries.at(c).next_hops.begin(),
                         spf.entries.at(c).next_hops.end());
  CHECK(hops == (std::set<Address>{b, d}));
}

static void dijkstra_prefers_shorter() {
  routing::Graph g;
  Address a{1, 1}, b{1, 2}, c{1, 3};
  g.add_edge(a, b, 10);
  g.add_edge(a, c, 1);
  g.add_edge(c, b, 1);
  auto spf = g.dijkstra(a);
  CHECK(spf.entries.at(b).dist == 2);
  CHECK(spf.entries.at(b).next_hops == std::vector<Address>{c});
}

static void two_step_lookup() {
  relay::ForwardingTable fib;
  Address dest{1, 50}, nh{1, 2};
  fib.set_next_hops(dest, {nh});
  fib.set_neighbor_ports(nh, {0, 1, 2});
  CHECK(fib.entry_count() == 1);

  auto all_up = [](relay::PortIndex) { return true; };
  CHECK(fib.lookup(dest, all_up).value() == 0u);

  // Step 2 is late-bound: kill PoA 0, the very next lookup moves.
  auto first_down = [](relay::PortIndex p) { return p != 0; };
  CHECK(fib.lookup(dest, first_down).value() == 1u);

  auto all_down = [](relay::PortIndex) { return false; };
  CHECK(!fib.lookup(dest, all_down).has_value());
  CHECK(!fib.lookup(Address{9, 9}, all_up).has_value());
}

static void round_robin_poa() {
  relay::ForwardingTable fib;
  Address dest{1, 50}, nh{1, 2};
  fib.set_next_hops(dest, {nh});
  fib.set_neighbor_ports(nh, {0, 1});
  fib.set_poa_policy(relay::PoaPolicy::round_robin);
  auto all_up = [](relay::PortIndex) { return true; };
  auto p1 = fib.lookup(dest, all_up).value();
  auto p2 = fib.lookup(dest, all_up).value();
  auto p3 = fib.lookup(dest, all_up).value();
  CHECK(p1 != p2);
  CHECK(p1 == p3);
}

static void region_aggregation() {
  relay::ForwardingTable fib;
  Address nh{1, 2};
  fib.set_neighbor_ports(nh, {4});
  // One wildcard entry covers the whole foreign region 7.
  fib.set_next_hops(Address{7, 0}, {nh});
  auto all_up = [](relay::PortIndex) { return true; };
  CHECK(fib.lookup(Address{7, 31}, all_up).value() == 4u);
  CHECK(fib.lookup(Address{7, 99}, all_up).value() == 4u);
  CHECK(!fib.lookup(Address{8, 1}, all_up).has_value());
  // An exact entry beats the wildcard.
  Address other{1, 3};
  fib.set_neighbor_ports(other, {9});
  fib.set_next_hops(Address{7, 31}, {other});
  CHECK(fib.lookup(Address{7, 31}, all_up).value() == 9u);
}

static void directory() {
  naming::Directory dir;
  naming::AppName app("web", "1"), app2("db");
  dir.add(app, Address{1, 5});
  dir.add(app2, Address{1, 6});
  CHECK(dir.lookup(app).value() == (Address{1, 5}));
  CHECK(!dir.lookup(naming::AppName("nope")).has_value());
  // Names resolve inside the DIF only; instance is part of the name.
  CHECK(!dir.lookup(naming::AppName("web", "2")).has_value());
  dir.remove_at(Address{1, 5});
  CHECK(!dir.lookup(app).has_value());
  CHECK(dir.lookup(app2).has_value());
  dir.remove(app2);
  CHECK(dir.size() == 0);

  // Versioned updates: newer stamps win, ties go to the higher origin,
  // and a removal stays behind as a tombstone that stale copies lose to.
  using Stamp = naming::Directory::Stamp;
  Address b{1, 7}, x{1, 8};
  CHECK(dir.apply(app, b, Stamp{1, b}));
  CHECK(!dir.apply(app, b, Stamp{1, b}));  // a re-flood
  CHECK(dir.apply(app, x, Stamp{1, x}));   // same version, higher origin
  CHECK(!dir.apply(app, b, Stamp{1, b}));
  CHECK(dir.lookup(app).value() == x);
  CHECK(dir.apply(app, std::nullopt, Stamp{2, x}));
  CHECK(!dir.lookup(app).has_value());
  CHECK(!dir.apply(app, x, Stamp{1, x}));  // the tombstone holds
  CHECK(dir.stamp_of(app).version == 2 && dir.stamps().size() == 1);
  CHECK(dir.apply(app, b, Stamp{3, b}));
  CHECK(dir.lookup(app).value() == b);
}

// --- incremental SPF ---

// dist must match exactly; next-hop/parent *sets* must match (repair
// order may differ from dijkstra's discovery order).
static bool same_result(const routing::SpfResult& a,
                        const routing::SpfResult& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (const auto& [dest, ea] : a.entries) {
    auto it = b.entries.find(dest);
    if (it == b.entries.end()) return false;
    const auto& eb = it->second;
    if (ea.dist != eb.dist) return false;
    std::set<Address> ha(ea.next_hops.begin(), ea.next_hops.end());
    std::set<Address> hb(eb.next_hops.begin(), eb.next_hops.end());
    if (ha != hb) return false;
  }
  return true;
}

static void add_biedge(routing::Graph& g, Address u, Address v,
                       routing::Cost c) {
  g.add_edge(u, v, c);
  g.add_edge(v, u, c);
}

static void spf_incremental_matches_dijkstra() {
  // Ring with a chord: a-b-c-d-e-a plus b-e.
  routing::Graph g;
  Address a{1, 1}, b{1, 2}, c{1, 3}, d{1, 4}, e{1, 5};
  add_biedge(g, a, b, 1);
  add_biedge(g, b, c, 1);
  add_biedge(g, c, d, 1);
  add_biedge(g, d, e, 1);
  add_biedge(g, e, a, 1);
  add_biedge(g, b, e, 1);
  routing::SpfResult prev = g.dijkstra(a);

  // Worsen a tight edge, improve another, and add a brand-new vertex —
  // one batch, compared against a fresh full run.
  std::vector<routing::EdgeChange> ch;
  g.set_edge(b, c, 5);
  g.set_edge(c, b, 5);
  ch.push_back({b, c, 1, 5});
  ch.push_back({c, b, 1, 5});
  Address f{1, 6};
  g.add_edge(d, f, 1);
  g.add_edge(f, d, 1);
  ch.push_back({d, f, routing::kInfinity, 1});
  ch.push_back({f, d, routing::kInfinity, 1});

  routing::SpfDelta delta;
  routing::SpfResult inc = g.spf_incremental(a, prev, ch, delta);
  CHECK(!delta.skipped);
  CHECK(same_result(inc, g.dijkstra(a)));
  CHECK(delta.recomputed > 0);
}

static void spf_incremental_skips_off_tree_changes() {
  // Square a-b-c-d-a with a costly diagonal b-d that no shortest path
  // from `a` uses: worsening it further must be recognised as a no-op.
  routing::Graph g;
  Address a{1, 1}, b{1, 2}, c{1, 3}, d{1, 4};
  add_biedge(g, a, b, 1);
  add_biedge(g, b, c, 1);
  add_biedge(g, c, d, 1);
  add_biedge(g, d, a, 1);
  add_biedge(g, b, d, 10);
  routing::SpfResult prev = g.dijkstra(a);

  g.set_edge(b, d, 20);
  g.set_edge(d, b, 20);
  routing::SpfDelta delta;
  routing::SpfResult inc = g.spf_incremental(
      a, prev, {{b, d, 10, 20}, {d, b, 10, 20}}, delta);
  CHECK(delta.skipped);
  CHECK(delta.recomputed == 0);
  CHECK(same_result(inc, g.dijkstra(a)));
}

static void spf_incremental_reports_unreachable() {
  // Chain a-b-c; cutting b-c strands c and the delta must say so, so
  // the FIB can drop the route instead of keeping a ghost entry.
  routing::Graph g;
  Address a{1, 1}, b{1, 2}, c{1, 3};
  add_biedge(g, a, b, 1);
  add_biedge(g, b, c, 1);
  routing::SpfResult prev = g.dijkstra(a);

  g.remove_edge(b, c);
  g.remove_edge(c, b);
  routing::SpfDelta delta;
  routing::SpfResult inc = g.spf_incremental(
      a, prev,
      {{b, c, 1, routing::kInfinity}, {c, b, 1, routing::kInfinity}}, delta);
  CHECK(!delta.skipped);
  CHECK(std::find(delta.removed.begin(), delta.removed.end(), c) !=
        delta.removed.end());
  CHECK(inc.entries.find(c) == inc.entries.end());
  CHECK(inc.entries.at(b).dist == 1);
  CHECK(same_result(inc, g.dijkstra(a)));
}

// Differential oracle: seeded random edge add/remove/cost streams on
// c9-shaped graphs (regions of anchor + spokes, anchors in a ring, plus a
// few spoke chords for equal-cost paths). After every batch the repaired
// tree must equal a full Dijkstra, and every destination outside the
// delta's changed/removed lists must keep its previous entry — the FIB
// is patched from exactly those lists.
static void spf_incremental_oracle() {
  std::uint64_t rng = 0x5EEDF00Dull;
  auto next = [&rng](std::uint64_t n) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng % n;
  };
  int batches = 0, skipped = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int regions = 3 + static_cast<int>(next(6));
    const int per = 2 + static_cast<int>(next(5));
    auto node = [](int r, int m) {
      return Address{static_cast<std::uint16_t>(r + 1), static_cast<std::uint16_t>(m + 1)};
    };
    std::vector<std::pair<Address, Address>> pairs;  // the edges a stream may touch
    routing::Graph g;
    for (int r = 0; r < regions; ++r) {
      for (int m = 1; m < per; ++m) pairs.emplace_back(node(r, 0), node(r, m));
      pairs.emplace_back(node(r, 0), node((r + 1) % regions, 0));
      pairs.emplace_back(node(r, 1), node((r + 2) % regions, per - 1));
    }
    for (std::size_t i = 0; i + 1 < pairs.size(); ++i)  // all but the last chord
      add_biedge(g, pairs[i].first, pairs[i].second, 1);
    const Address src = node(static_cast<int>(next(regions)), 0);
    routing::SpfResult prev = g.dijkstra(src);
    for (int step = 0; step < 30; ++step) {
      std::vector<routing::EdgeChange> ch;
      const int n = 1 + static_cast<int>(next(3));
      for (int k = 0; k < n; ++k) {
        auto [u, v] = pairs[next(pairs.size())];
        if (next(2) == 0) std::swap(u, v);
        const bool both = next(3) != 0;  // an LSU pair, or one direction only
        const std::uint64_t kind = next(3);
        const routing::Cost cost = 1 + static_cast<routing::Cost>(next(4));
        for (int dir = 0; dir < (both ? 2 : 1); ++dir) {
          const Address from = dir == 0 ? u : v, to = dir == 0 ? v : u;
          routing::EdgeChange c{from, to, g.edge_cost(from, to), routing::kInfinity};
          if (kind == 0) {
            g.remove_edge(from, to);
          } else {
            c.new_cost = kind == 1 ? 1 : cost;
            g.set_edge(from, to, c.new_cost);
          }
          if (c.old_cost != c.new_cost) ch.push_back(c);
        }
      }
      routing::SpfDelta delta;
      routing::SpfResult inc = g.spf_incremental(src, prev, ch, delta);
      routing::SpfResult full = g.dijkstra(src);
      CHECK(same_result(inc, full));
      std::set<Address> touched(delta.changed.begin(), delta.changed.end());
      touched.insert(delta.removed.begin(), delta.removed.end());
      for (const auto& [dest, e] : full.entries) {
        if (touched.count(dest) != 0) continue;
        auto it = prev.entries.find(dest);
        CHECK(it != prev.entries.end());
        if (it == prev.entries.end()) continue;
        routing::SpfResult a, b;
        a.entries[dest] = it->second;
        b.entries[dest] = e;
        CHECK(same_result(a, b));
      }
      for (const auto& [dest, e] : prev.entries)
        if (full.entries.count(dest) == 0) CHECK(touched.count(dest) != 0);
      ++batches;
      if (delta.skipped) ++skipped;
      prev = std::move(inc);
    }
  }
  // The streams exercise both the repair and the proven-off-tree skip.
  CHECK(batches == 40 * 30);
  CHECK(skipped > 0 && skipped < batches);
}

int main() {
  dijkstra_basic();
  dijkstra_prefers_shorter();
  two_step_lookup();
  round_robin_poa();
  region_aggregation();
  directory();
  spf_incremental_matches_dijkstra();
  spf_incremental_skips_off_tree_changes();
  spf_incremental_reports_unreachable();
  spf_incremental_oracle();
  return TEST_MAIN_RESULT();
}
