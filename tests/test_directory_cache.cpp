// test_directory_cache — the naming layer of control-at-scale: DirCache
// unit semantics (TTL, capacity eviction, targeted invalidation) and the
// hierarchical resolution chain end to end: registrations go only to the
// resolver chain, a miss queries up and caches the answer, TTL expiry
// re-queries, and a mobility invalidation flood guarantees a stale
// cached binding is never served. An authority keeps the newest stamp,
// not the last arrival, and a member leaving mid-query still ends its
// flow allocation.
#include "naming/dir_cache.hpp"

#include "node/network.hpp"
#include "test_util.hpp"

using namespace rina;
using naming::Address;
using naming::AppName;
using naming::DirCache;

static void cache_ttl_and_misses() {
  DirCache c(SimTime::from_ms(100), 8);
  AppName a("a");
  CHECK(!c.lookup(a, SimTime::from_ms(0)).has_value());
  CHECK(c.size() == 0);

  c.insert(a, Address{1, 5}, SimTime::from_ms(0));
  CHECK(c.size() == 1);
  CHECK(c.lookup(a, SimTime::from_ms(99)).value() == (Address{1, 5}));
  CHECK(c.size() == 1);  // a hit keeps the entry

  // TTL runs from insert: at exactly ttl the entry is dead, the lookup
  // misses, and the expired entry is erased.
  CHECK(!c.lookup(a, SimTime::from_ms(100)).has_value());
  CHECK(c.size() == 0);

  // Re-insert refreshes the clock.
  c.insert(a, Address{1, 5}, SimTime::from_ms(200));
  c.insert(a, Address{1, 6}, SimTime::from_ms(250));  // refresh + rebind
  CHECK(c.lookup(a, SimTime::from_ms(349)).value() == (Address{1, 6}));
}

static void cache_capacity_evicts_soonest_expiry() {
  DirCache c(SimTime::from_ms(100), 2);
  c.insert(AppName("a"), Address{1, 1}, SimTime::from_ms(0));
  c.insert(AppName("b"), Address{1, 2}, SimTime::from_ms(50));
  c.insert(AppName("x"), Address{1, 3}, SimTime::from_ms(60));  // evicts a
  CHECK(c.size() == 2);
  CHECK(!c.lookup(AppName("a"), SimTime::from_ms(60)).has_value());
  CHECK(c.lookup(AppName("b"), SimTime::from_ms(60)).has_value());
  CHECK(c.lookup(AppName("x"), SimTime::from_ms(60)).has_value());
}

static void cache_invalidation() {
  DirCache c(SimTime::from_ms(1000), 8);
  c.insert(AppName("a"), Address{1, 1}, SimTime::from_ms(0));
  c.insert(AppName("b"), Address{1, 1}, SimTime::from_ms(0));
  c.insert(AppName("d"), Address{1, 2}, SimTime::from_ms(0));

  // Address-guarded invalidation must not kill a newer re-learned
  // binding for the same name.
  CHECK(!c.invalidate_if_at(AppName("a"), Address{1, 9}));
  CHECK(c.invalidate_if_at(AppName("a"), Address{1, 1}));
  CHECK(!c.lookup(AppName("a"), SimTime::from_ms(1)).has_value());

  // Departure of an address drops everything it served.
  CHECK(c.invalidate_at(Address{1, 1}) == 1);  // only b remains at 1.1
  CHECK(!c.lookup(AppName("b"), SimTime::from_ms(1)).has_value());
  CHECK(c.lookup(AppName("d"), SimTime::from_ms(1)).has_value());
  CHECK(c.size() == 1);
  CHECK(c.invalidate_at(Address{1, 1}) == 0);  // nothing left at 1.1
}

namespace {

/// Two-region hierarchical DIF:
///
///   root (1.1, anchor of region 1 AND dir root)
///    |- m1 (1.2)   |- m2 (1.3)
///    |- anc2 (2.1, anchor of region 2)
///        |- m3 (2.2)
///
/// Registrations go only to the chain; everyone else queries up.
struct HierNet {
  node::Network net{91};
  naming::DifName dif{"hier"};

  HierNet() {
    net.add_link("root", "m1");
    net.add_link("root", "m2");
    net.add_link("root", "anc2");
    net.add_link("anc2", "m3");
    node::DifSpec s;
    s.cfg.name = dif;
    s.cfg.dir_hierarchical = true;  // root (1.1) tops the chain
    s.members = {"root", "m1", "m2", "anc2", "m3"};
    s.addresses = {{"root", Address{1, 1}},
                   {"m1", Address{1, 2}},
                   {"m2", Address{1, 3}},
                   {"anc2", Address{2, 1}},
                   {"m3", Address{2, 2}}};
    CHECK(net.build_link_dif(s).ok());
  }

  ipcp::Ipcp* ip(const std::string& n) { return net.node(n).ipcp(dif); }

  void serve(const std::string& on, const std::string& app, int& got) {
    CHECK(net.node(on)
              .register_app(AppName(app), dif,
                            [&got](flow::Flow f) {
                              f.on_readable([&got](flow::Flow& fl) {
                                while (fl.read()) ++got;
                              });
                            })
              .ok());
    net.run_for(SimTime::from_ms(50));
  }

  flow::Flow open(const std::string& from, const std::string& lapp,
                  const std::string& rapp) {
    flow::Flow f = net.node(from).allocate_flow(AppName(lapp), AppName(rapp),
                                                flow::QosSpec::reliable_default());
    CHECK(net.run_until([&] { return !f.is_allocating(); }, SimTime::from_sec(8)));
    return f;
  }
};

}  // namespace

static void hierarchical_resolution_end_to_end() {
  HierNet h;
  int got = 0;
  h.serve("m1", "srv", got);

  // Registration reached the chain only: root has it, a plain member in
  // the same region does not, and no DirUpd flood ever ran.
  CHECK(h.ip("root")->directory().lookup(AppName("srv")).has_value());
  CHECK(!h.ip("m2")->directory().lookup(AppName("srv")).has_value());
  CHECK(!h.ip("m3")->directory().lookup(AppName("srv")).has_value());
  CHECK(h.ip("m1")->stats().get("dir_targeted_updates") > 0);

  // Cross-region allocation: m3's miss walks m3 -> anc2 -> root and the
  // reply is cached on the way down (anc2 and m3 both warm).
  flow::Flow f = h.open("m3", "cli", "srv");
  CHECK(f.is_open());
  CHECK(f.write(BytesView{to_bytes("ping")}).ok());
  h.net.run_for(SimTime::from_ms(200));
  CHECK(got == 1);
  CHECK(h.ip("m3")->stats().get("dir_cache_misses") > 0);
  CHECK(h.ip("m3")->stats().get("dir_queries_sent") > 0);
  CHECK(h.ip("anc2")->stats().get("dir_queries_served") > 0);
  CHECK(h.ip("m3")->dir_cache().size() > 0);

  // Second resolution from the same node: pure cache hit, no new query.
  std::uint64_t queries_before = h.ip("m3")->stats().get("dir_queries_sent");
  flow::Flow f2 = h.open("m3", "cli2", "srv");
  CHECK(f2.is_open());
  CHECK(h.ip("m3")->stats().get("dir_cache_hits") > 0);
  CHECK(h.ip("m3")->stats().get("dir_queries_sent") == queries_before);
}

static void hierarchical_ttl_requeries() {
  HierNet h;
  int got = 0;
  h.serve("m2", "ttlsrv", got);
  flow::Flow f = h.open("m3", "cli", "ttlsrv");
  CHECK(f.is_open());
  std::uint64_t q1 = h.ip("m3")->stats().get("dir_queries_sent");
  CHECK(q1 > 0);

  // Past the 5 s cache TTL the binding must be re-fetched, and the
  // answer is still correct.
  h.net.run_for(SimTime::from_ms(5100));
  flow::Flow f2 = h.open("m3", "cli2", "ttlsrv");
  CHECK(f2.is_open());
  CHECK(h.ip("m3")->stats().get("dir_queries_sent") > q1);
}

static void mobility_invalidation_no_stale_reads() {
  HierNet h;
  int got_old = 0, got_new = 0;
  h.serve("m1", "mob", got_old);

  // Warm m3's cache (and anc2's) with the m1 binding; prove the flow
  // landed on m1 by delivering a payload there.
  flow::Flow f = h.open("m3", "cli", "mob");
  CHECK(f.is_open());
  CHECK(f.write(BytesView{to_bytes("to-old-home")}).ok());
  h.net.run_for(SimTime::from_ms(200));
  CHECK(got_old == 1);
  CHECK(h.ip("m3")->dir_cache().size() > 0);

  // The app moves: m1 unregisters (inval flood) and m2 registers.
  h.ip("m1")->unpublish_app(AppName("mob"));
  h.net.run_for(SimTime::from_ms(50));
  h.serve("m2", "mob", got_new);

  // Every cached copy of the old binding died with the flood.
  CHECK(h.ip("m3")->stats().get("dir_cache_invalidations") > 0);

  // A fresh allocation must resolve to the *new* home — the stale
  // binding is never served even though its TTL had not expired.
  flow::Flow f2 = h.open("m3", "cli2", "mob");
  CHECK(f2.is_open());
  CHECK(f2.write(BytesView{to_bytes("hello-new-home")}).ok());
  h.net.run_for(SimTime::from_ms(200));
  CHECK(got_new == 1);
  CHECK(got_old == 1);  // nothing new reached the old home
}

namespace {

/// One hierarchical region: the root (1.1, also the anchor), a member
/// behind a 40 ms link ("far", 1.2) and one 50 us away ("near", 1.3).
struct SkewNet {
  node::Network net{92};
  naming::DifName dif{"skew"};

  SkewNet() {
    node::LinkOpts slow;
    slow.delay = SimTime::from_ms(40);
    net.add_link("root", "far", slow);
    net.add_link("root", "near");
    node::DifSpec s;
    s.cfg.name = dif;
    s.cfg.dir_hierarchical = true;
    s.members = {"root", "far", "near"};
    s.addresses = {{"root", Address{1, 1}}, {"far", Address{1, 2}}, {"near", Address{1, 3}}};
    CHECK(net.build_link_dif(s).ok());
    net.run_for(SimTime::from_ms(500));
  }

  ipcp::Ipcp* ip(const std::string& n) { return net.node(n).ipcp(dif); }
};

}  // namespace

static void late_removal_loses_to_new_home() {
  SkewNet h;
  AppName app("mover");
  auto ignore = [](flow::Flow) {};
  CHECK(h.net.node("far").register_app(app, h.dif, ignore).ok());
  h.net.run_for(SimTime::from_ms(700));  // past the old home's re-announces
  CHECK(h.ip("root")->directory().lookup(app) == std::optional<Address>(Address{1, 2}));

  // The move: the old home's removal crawls over 40 ms, the new home's
  // binding, published 1 ms later, overtakes it. The root must keep the
  // newer stamp, not the last arrival.
  CHECK(h.ip("far")->fa().unregister_app(app).ok());
  h.net.run_for(SimTime::from_ms(1));
  CHECK(h.net.node("near").register_app(app, h.dif, ignore).ok());
  h.net.run_for(SimTime::from_ms(50));
  CHECK(h.ip("root")->directory().lookup(app) == std::optional<Address>(Address{1, 3}));
}

static void leave_ends_query_as_miss() {
  SkewNet h;
  AppName app("srv");
  CHECK(h.net.node("near").register_app(app, h.dif, [](flow::Flow) {}).ok());
  h.net.run_for(SimTime::from_ms(50));

  // far's query for the name crosses the 40 ms link; far leaves the DIF
  // before the answer can come back. The allocation must still end.
  flow::Flow f = h.net.node("far").allocate_flow_on(h.dif, AppName("cli"), app,
                                                     flow::QosSpec::reliable_default());
  h.net.run_for(SimTime::from_ms(1));
  CHECK(f.is_allocating());
  h.ip("far")->leave(true);
  h.net.run_for(SimTime::from_sec(9));
  CHECK(f.state() == flow::FlowState::closed);
}

int main() {
  cache_ttl_and_misses();
  cache_capacity_evicts_soonest_expiry();
  cache_invalidation();
  hierarchical_resolution_end_to_end();
  hierarchical_ttl_requeries();
  mobility_invalidation_no_stale_reads();
  late_removal_loses_to_new_home();
  leave_ends_query_as_miss();
  return TEST_MAIN_RESULT();
}
