// test_fib — Dijkstra with equal-cost sets, two-step forwarding lookups
// (late PoA binding, round-robin), region aggregation, the directory and
// its version stamps, incremental SPF against full Dijkstra, the
// unit-cost SPF kernel against Dijkstra, and the FIB's in-place route
// replace, which with the kernel allocates nothing once warm.
#include "naming/directory.hpp"
#include "relay/forwarding.hpp"
#include "routing/graph.hpp"
#include "routing/unit_spf.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "test_util.hpp"

// Every heap allocation in this process, for the zero-allocation check.
// Not inlined, so the compiler never pairs a caller's new with free().
static std::size_t g_allocs = 0;

__attribute__((noinline)) void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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

// --- unit-cost SPF kernel and the in-place FIB replace ---

namespace {

struct LsuRecord {
  std::vector<Address> neighbors;
};
using Lsdb = std::map<Address, LsuRecord>;

std::uint64_t g_rng = 0x0DDC0FFEEull;
std::uint64_t rnd(std::uint64_t n) {
  g_rng ^= g_rng << 13;
  g_rng ^= g_rng >> 7;
  g_rng ^= g_rng << 17;
  return g_rng % n;
}

// What Ipcp::run_spf built before the kernel: the source's live links,
// then every other origin's record; the source's own record is ignored.
routing::SpfResult dijkstra_over(Address src, const std::vector<Address>& live,
                                 const Lsdb& lsdb) {
  routing::Graph g;
  for (Address n : live) g.add_edge(src, n, 1);
  for (const auto& [origin, rec] : lsdb) {
    if (origin == src) continue;
    for (Address n : rec.neighbors) g.add_edge(origin, n, 1);
  }
  return g.dijkstra(src);
}

std::vector<routing::UnitSpf::Route>& unit_spf_over(Address src,
                                                    const std::vector<Address>& live,
                                                    const Lsdb& lsdb) {
  routing::UnitSpf& spf = routing::UnitSpf::scratch();
  for (Address n : live) spf.add_link(src, n);
  return spf.solve(src, lsdb);
}

// Same destinations and distances, and the same next-hop vectors in the
// same order: the order picks the first-up PoA.
bool same_routes(const std::vector<routing::UnitSpf::Route>& routes,
                 const routing::SpfResult& full) {
  if (routes.size() != full.entries.size()) return false;
  auto it = full.entries.begin();
  for (const auto& r : routes) {
    const auto& [dest, e] = *it++;
    if (r.dest != dest || r.dist != e.dist) return false;
    if (!std::equal(r.hops.begin(), r.hops.end(), e.next_hops.begin(), e.next_hops.end()))
      return false;
  }
  return true;
}

bool any_unsorted_hops(const routing::SpfResult& full) {
  for (const auto& [dest, e] : full.entries)
    if (!std::is_sorted(e.next_hops.begin(), e.next_hops.end())) return true;
  return false;
}

}  // namespace

// Differential oracle: seeded random LSDBs shaped like c9's (regions of an
// anchor and spokes, anchors in a ring) plus random chords, with the
// records a real LSDB can hold — one-way links, neighbors with no record
// of their own, duplicate entries, a record listing its own origin, an
// island no path reaches, and a stale record of the source — routed by
// the kernel and by Graph::dijkstra.
static void unit_spf_oracle() {
  int unsorted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int regions = 2 + static_cast<int>(rnd(8));
    const int per = 1 + static_cast<int>(rnd(6));
    auto node = [](int r, int m) {
      return Address{static_cast<std::uint16_t>(r + 1), static_cast<std::uint16_t>(m + 1)};
    };
    auto any_node = [&] {
      return node(static_cast<int>(rnd(regions)), static_cast<int>(rnd(per)));
    };
    Lsdb lsdb;
    auto link = [&](Address a, Address b) {
      lsdb[a].neighbors.push_back(b);
      if (rnd(10) != 0) lsdb[b].neighbors.push_back(a);  // else one-way
    };
    for (int r = 0; r < regions; ++r) {
      for (int m = 1; m < per; ++m) link(node(r, 0), node(r, m));
      link(node(r, 0), node((r + 1) % regions, 0));
    }
    for (int c = static_cast<int>(rnd(2 * regions)); c > 0; --c) link(any_node(), any_node());
    // A neighbor outside every region that has no record, a duplicate
    // entry, a record listing its own origin, and an island that links
    // into the DIF but that nothing links to.
    lsdb[any_node()].neighbors.push_back(Address{90, 1});
    Address dup = any_node();
    if (!lsdb[dup].neighbors.empty()) lsdb[dup].neighbors.push_back(lsdb[dup].neighbors.front());
    Address self = any_node();
    lsdb[self].neighbors.push_back(self);
    lsdb[Address{91, 1}].neighbors = {Address{91, 2}, node(0, 0)};
    lsdb[Address{91, 2}].neighbors = {Address{91, 1}};

    // The source's live links: its record's, less one and plus a chord,
    // repeated (two ports to one peer) and out of order. Its record in
    // the LSDB stays as it was: stale, so both sides must ignore it.
    const Address src = any_node();
    std::vector<Address> live = lsdb[src].neighbors;
    if (!live.empty() && rnd(2) == 0) live.erase(live.begin() + static_cast<long>(rnd(live.size())));
    live.push_back(any_node());
    live.push_back(live.front());
    std::reverse(live.begin(), live.end());

    const routing::SpfResult full = dijkstra_over(src, live, lsdb);
    CHECK(same_routes(unit_spf_over(src, live, lsdb), full));
    if (any_unsorted_hops(full)) ++unsorted;
    CHECK(full.entries.count(Address{91, 1}) == 0);
  }
  // The trials include hop vectors that are not in address order, so the
  // comparison above checks order, not just membership.
  CHECK(unsorted > 0);

  // A source with more than 64 neighbors: 70 spokes, listed in reverse
  // address order, all reaching one hub, and a tail behind the hub that
  // inherits all 70 hops.
  Lsdb lsdb;
  const Address src{1, 1}, hub{2, 1}, tail{3, 1};
  std::vector<Address> live;
  for (std::uint16_t i = 70; i >= 1; --i) {
    const Address spoke{static_cast<std::uint16_t>(10 + i % 7), i};
    live.push_back(spoke);
    lsdb[spoke].neighbors = {hub, src};
  }
  lsdb[hub].neighbors = {tail};
  const routing::SpfResult full = dijkstra_over(src, live, lsdb);
  CHECK(full.entries.at(tail).next_hops.size() == 70);
  CHECK(same_routes(unit_spf_over(src, live, lsdb), full));
}

struct TestRoute {
  Address dest;
  std::vector<Address> hops;
};

// The in-place replace leaves the table exactly as clear_routes() plus
// one set_next_hops() per route would.
static void fib_replace_matches_rebuild() {
  const Address h1{1, 2}, h2{1, 3}, h3{1, 4};
  const std::vector<std::vector<TestRoute>> sets = {
      {{Address{2, 1}, {h1}}, {Address{2, 5}, {h1, h2}}},                  // from empty
      {{Address{1, 9}, {h3}}, {Address{2, 1}, {h1}}, {Address{2, 3}, {h2}},
       {Address{2, 5}, {h1, h2}}, {Address{4, 0}, {h3, h2, h1}}},           // grown
      {{Address{2, 3}, {h2}}, {Address{4, 0}, {h3, h2, h1}}},               // shrunk
      {{Address{2, 3}, {h1, h3}}, {Address{4, 0}, {h2}}},                   // rewritten
      {{Address{1, 1}, {h1}}, {Address{2, 4}, {h2}}, {Address{9, 9}, {h3}}},  // disjoint
      {},
  };
  relay::ForwardingTable merged;
  for (const auto& set : sets) {
    merged.replace_routes(set);
    relay::ForwardingTable rebuilt;
    rebuilt.clear_routes();
    for (const TestRoute& r : set) rebuilt.set_next_hops(r.dest, r.hops);
    CHECK(merged.routes() == rebuilt.routes());
  }
}

// A lookup memoized before a replace sees the new hops right after it,
// and a route the replace removed stops resolving.
static void fib_replace_drops_memo() {
  relay::ForwardingTable fib;
  const Address dest{2, 7}, gone{2, 8}, nh1{1, 2}, nh2{1, 3};
  fib.set_neighbor_ports(nh1, {1});
  fib.set_neighbor_ports(nh2, {2});
  auto all_up = [](relay::PortIndex) { return true; };
  fib.replace_routes(std::vector<TestRoute>{{dest, {nh1}}, {gone, {nh1}}});
  CHECK(fib.lookup(dest, all_up).value() == 1u);
  fib.replace_routes(std::vector<TestRoute>{{dest, {nh2, nh1}}, {gone, {nh1}}});
  CHECK(fib.lookup(dest, all_up).value() == 2u);
  CHECK(fib.lookup(gone, all_up).value() == 1u);
  fib.replace_routes(std::vector<TestRoute>{{dest, {nh2}}});
  CHECK(!fib.lookup(gone, all_up).has_value());
}

// Re-routing an unchanged LSDB — the kernel on this thread's scratch,
// then the replace — allocates nothing after one warm-up run.
static void unit_spf_steady_state_allocates_nothing() {
  Lsdb lsdb;
  auto link = [&](Address a, Address b) {
    lsdb[a].neighbors.push_back(b);
    lsdb[b].neighbors.push_back(a);
  };
  for (std::uint16_t r = 1; r <= 24; ++r) {
    const Address anchor{r, 1};
    link(anchor, Address{static_cast<std::uint16_t>(r % 24 + 1), 1});
    for (std::uint16_t m = 2; m <= 10; ++m) link(anchor, Address{r, m});
  }
  const Address src{5, 1};
  const std::vector<Address> live = lsdb[src].neighbors;
  relay::ForwardingTable fib;
  fib.replace_routes(unit_spf_over(src, live, lsdb));  // warm-up
  const std::size_t before = g_allocs;
  for (int i = 0; i < 3; ++i) fib.replace_routes(unit_spf_over(src, live, lsdb));
  CHECK(g_allocs == before);
  CHECK(fib.entry_count() == 239);
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
  unit_spf_oracle();
  fib_replace_matches_rebuild();
  fib_replace_drops_memo();
  unit_spf_steady_state_allocates_nothing();
  return TEST_MAIN_RESULT();
}
