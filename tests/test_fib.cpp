// test_fib — Dijkstra with equal-cost sets, two-step forwarding lookups
// (late PoA binding, round-robin), region aggregation, the directory and
// its version stamps, the packed LSDB against a map, the unit-cost SPF
// kernel over it against Dijkstra, and the FIB's route replace, which
// with the kernel and an in-slot LSDB rewrite allocates nothing once
// warm.
#include "naming/directory.hpp"
#include "relay/forwarding.hpp"
#include "routing/graph.hpp"
#include "routing/lsdb.hpp"
#include "routing/unit_spf.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <new>
#include <optional>
#include <set>
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

// A route as replace_routes() takes it.
struct TestRoute {
  Address dest;
  std::vector<Address> hops;
};
using TestRoutes = std::vector<TestRoute>;

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
  fib.replace_routes(TestRoutes{{dest, {nh}}});
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
  fib.replace_routes(TestRoutes{{dest, {nh}}});
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
  fib.replace_routes(TestRoutes{{Address{7, 0}, {nh}}});
  auto all_up = [](relay::PortIndex) { return true; };
  CHECK(fib.lookup(Address{7, 31}, all_up).value() == 4u);
  CHECK(fib.lookup(Address{7, 99}, all_up).value() == 4u);
  CHECK(!fib.lookup(Address{8, 1}, all_up).has_value());
  // An exact entry beats the wildcard.
  Address other{1, 3};
  fib.set_neighbor_ports(other, {9});
  fib.replace_routes(TestRoutes{{Address{7, 0}, {nh}}, {Address{7, 31}, {other}}});
  CHECK(fib.lookup(Address{7, 31}, all_up).value() == 9u);
  CHECK(fib.lookup(Address{7, 99}, all_up).value() == 4u);
}

static void directory() {
  using Stamp = naming::Directory::Stamp;
  naming::AppName app("web", "1"), app2("db");
  {
    naming::Directory names;
    Address a5{1, 5}, a6{1, 6};
    CHECK(names.apply(app, a5, Stamp{1, a5}));
    CHECK(names.apply(app2, a6, Stamp{1, a6}));
    CHECK(names.lookup(app).value() == a5);
    CHECK(!names.lookup(naming::AppName("nope")).has_value());
    // Names resolve inside the DIF only; instance is part of the name.
    CHECK(!names.lookup(naming::AppName("web", "2")).has_value());
    names.remove_at(a5);
    CHECK(!names.lookup(app).has_value());
    CHECK(names.lookup(app2).has_value());
    CHECK(names.apply(app2, std::nullopt, Stamp{2, a6}));
    CHECK(names.size() == 0);
  }

  // Versioned updates: newer stamps win, ties go to the higher origin,
  // and a removal stays behind as a tombstone that stale copies lose to.
  naming::Directory dir;
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

// --- unit-cost SPF kernel and the in-place FIB replace ---

namespace {

// The reference LSDB: one map node and one vector per record.
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

routing::Lsdb packed(const Lsdb& lsdb) {
  routing::Lsdb db;
  for (const auto& [origin, rec] : lsdb) db.put(origin, 1, rec.neighbors);
  return db;
}

std::vector<routing::UnitSpf::Route>& unit_spf_over(Address src,
                                                    const std::vector<Address>& live,
                                                    const routing::Lsdb& db) {
  routing::UnitSpf& spf = routing::UnitSpf::scratch();
  for (Address n : live) spf.add_link(src, n);
  return spf.solve(src, db);
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
// Graph::dijkstra over the map and by the kernel over the map packed into
// a routing::Lsdb, so the trials check the store and the kernel together.
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
    CHECK(same_routes(unit_spf_over(src, live, packed(lsdb)), full));
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
  CHECK(same_routes(unit_spf_over(src, live, packed(lsdb)), full));
}

// Seeded differential test of the packed LSDB against a map of vectors:
// after every put, the same origins in the same order, each with the same
// seq and neighbors, and find() agrees. The puts add origins in random
// order, rewrite lists at the same length, grow lists past their slots,
// shrink them and regrow them inside their slots, empty them, and churn
// enough to compact the pool.
static void lsdb_matches_map() {
  struct Ref {
    std::uint64_t seq = 0;
    std::vector<Address> neighbors;
    std::size_t longest = 0;  // the record's slot length
  };
  std::map<Address, Ref> ref;
  routing::Lsdb db;
  auto same = [&] {
    if (db.size() != ref.size()) return false;
    auto it = ref.begin();
    for (const routing::Lsdb::Entry& e : db) {
      const auto& [origin, r] = *it++;
      const auto& want = r.neighbors;
      if (e.origin != origin || e.seq != r.seq) return false;
      if (!std::equal(e.neighbors.begin(), e.neighbors.end(), want.begin(), want.end()))
        return false;
      const std::optional<routing::Lsdb::Entry> found = db.find(origin);
      if (!found || found->seq != r.seq || found->neighbors.size() != want.size()) return false;
    }
    return !db.find(Address{9, 9}).has_value();
  };
  auto random_address = [] {
    return Address{static_cast<std::uint16_t>(1 + rnd(4)), static_cast<std::uint16_t>(1 + rnd(40))};
  };
  int compactions = 0, regrown_in_place = 0, emptied = 0;
  for (std::uint64_t step = 1; step <= 4000; ++step) {
    const Address origin = random_address();
    Ref& r = ref[origin];
    const std::size_t had = r.neighbors.size();
    std::size_t n = 0;
    switch (rnd(5)) {
      case 0: n = had; break;                  // same length
      case 1: n = had + 1 + rnd(3); break;     // longer
      case 2: n = had / 2; break;              // shorter
      case 3: n = 0; break;                    // empty
      default: n = rnd(r.longest + 1); break;  // anything within the slot
    }
    std::vector<Address> list;
    for (std::size_t i = 0; i < n; ++i) list.push_back(random_address());
    const std::size_t pool_before = db.pool_size();
    db.put(origin, step, list);
    if (db.pool_size() < pool_before) ++compactions;
    if (n > had && n <= r.longest && db.pool_size() == pool_before) ++regrown_in_place;
    if (n == 0 && had != 0) ++emptied;
    r.seq = step;
    r.neighbors = list;
    r.longest = std::max(r.longest, n);
    CHECK(same());
    std::size_t slots = 0;
    for (const auto& [o, rr] : ref) slots += rr.longest;
    CHECK(db.pool_size() <= 2 * slots);
  }
  CHECK(ref.size() == 160);
  CHECK(compactions > 0);
  CHECK(regrown_in_place > 0);
  CHECK(emptied > 0);
}

// After each replace, routes() reads back exactly the set it was given, in
// order: no route of an earlier set survives, and no hop list keeps a
// stale tail.
static bool reads_back(const relay::ForwardingTable& fib, const TestRoutes& set) {
  if (fib.entry_count() != set.size()) return false;
  auto want = set.begin();
  for (const auto& route : fib.routes()) {
    if (route.first != want->dest) return false;
    if (!std::equal(route.second.begin(), route.second.end(), want->hops.begin(),
                    want->hops.end()))
      return false;
    ++want;
  }
  return true;
}

static void fib_replace_reads_back() {
  const Address h1{1, 2}, h2{1, 3}, h3{1, 4};
  const std::vector<TestRoutes> sets = {
      {{Address{2, 1}, {h1}}, {Address{2, 5}, {h1, h2}}},                  // from empty
      {{Address{1, 9}, {h3}}, {Address{2, 1}, {h1}}, {Address{2, 3}, {h2}},
       {Address{2, 5}, {h1, h2}}, {Address{4, 0}, {h3, h2, h1}}},           // grown
      {{Address{2, 3}, {h2}}, {Address{4, 0}, {h3, h2, h1}}},               // shrunk
      {{Address{2, 3}, {h1, h3}}, {Address{4, 0}, {h2}}},                   // rewritten
      {{Address{1, 1}, {h1}}, {Address{2, 4}, {h2}}, {Address{9, 9}, {h3}}},  // disjoint
      {},
  };
  relay::ForwardingTable fib;
  for (const auto& set : sets) {
    fib.replace_routes(set);
    CHECK(reads_back(fib, set));
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
  fib.replace_routes(TestRoutes{{dest, {nh1}}, {gone, {nh1}}});
  CHECK(fib.lookup(dest, all_up).value() == 1u);
  fib.replace_routes(TestRoutes{{dest, {nh2, nh1}}, {gone, {nh1}}});
  CHECK(fib.lookup(dest, all_up).value() == 2u);
  CHECK(fib.lookup(gone, all_up).value() == 1u);
  fib.replace_routes(TestRoutes{{dest, {nh2}}});
  CHECK(!fib.lookup(gone, all_up).has_value());
}

// Re-routing — a record re-put inside its slot, the kernel on this
// thread's scratch, then the replace — allocates nothing after one
// warm-up run.
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
  routing::Lsdb db = packed(lsdb);
  // A far anchor's record, re-put without its last spoke and then whole
  // again: the spoke drops out of the routes and comes back.
  const Address far{17, 1};
  const std::vector<Address> whole = lsdb[far].neighbors;
  const std::vector<Address> shorter(whole.begin(), whole.end() - 1);
  relay::ForwardingTable fib;
  fib.replace_routes(unit_spf_over(src, live, db));  // warm-up
  const std::size_t before = g_allocs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    db.put(far, 2 + i, i % 2 == 0 ? shorter : whole);
    fib.replace_routes(unit_spf_over(src, live, db));
    CHECK(fib.entry_count() == (i % 2 == 0 ? 238u : 239u));
  }
  CHECK(g_allocs == before);
}

int main() {
  dijkstra_basic();
  dijkstra_prefers_shorter();
  two_step_lookup();
  round_robin_poa();
  region_aggregation();
  directory();
  unit_spf_oracle();
  lsdb_matches_map();
  fib_replace_reads_back();
  fib_replace_drops_memo();
  unit_spf_steady_state_allocates_nothing();
  return TEST_MAIN_RESULT();
}
