// test_network — end-to-end through the façade: build a DIF over wires,
// register by name, allocate a flow, move data; relay through a middle
// system; reject an enrollment with bad credentials; overlay DIFs;
// adjacencies over a lossy wire; the state hand-over (Sync) to a joiner,
// a late first adjacency and a returning adjacency, and its news flooded
// on as one Sync; an overlay port held up by its lower flow's window.
#include "node/network.hpp"

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "test_util.hpp"

using namespace rina;
using node::Network;

namespace {

node::DifSpec spec(const std::string& name, std::vector<std::string> members) {
  node::DifSpec s;
  s.cfg.name = naming::DifName{name};
  s.members = std::move(members);
  return s;
}

flow::Flow open_flow(Network& net, const std::string& from,
                     const std::string& lapp, const std::string& rapp) {
  flow::Flow f = net.node(from).allocate_flow(naming::AppName(lapp),
                                              naming::AppName(rapp),
                                              flow::QosSpec::reliable_default());
  bool done = net.run_until([&] { return !f.is_allocating(); }, SimTime::from_sec(10));
  CHECK(done);
  CHECK(f.is_open());
  return f;
}

/// Register a counting sink app: every accepted flow drains its rx queue
/// through `on_sdu` as data becomes readable.
void register_sink(Network& net, const std::string& on_node,
                   const std::string& app, const std::string& dif,
                   std::function<void(Bytes&&)> on_sdu) {
  auto fn = std::make_shared<std::function<void(Bytes&&)>>(std::move(on_sdu));
  CHECK(net.node(on_node)
            .register_app(naming::AppName(app), naming::DifName{dif},
                          [fn](flow::Flow f) {
                            f.on_readable([fn](flow::Flow& fl) {
                              while (auto sdu = fl.read()) (*fn)(std::move(*sdu));
                            });
                          })
            .ok());
  net.run_for(SimTime::from_ms(100));
}

}  // namespace

static void two_hosts_flow() {
  Network net(42);
  net.add_link("a", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "b"})).ok());

  int got = 0;
  std::string last;
  register_sink(net, "b", "srv", "d", [&](Bytes&& sdu) {
    ++got;
    last = to_string(BytesView{sdu});
  });

  auto f = open_flow(net, "a", "cli", "srv");
  CHECK(f.port() != 0);
  CHECK(f.info().cube.reliable);
  CHECK(f.info().cube.name == "reliable");
  CHECK(f.info().dif.str() == "d");

  // Both write surfaces work: the Flow handle and the port-id edge.
  CHECK(f.write(BytesView{to_bytes("hello ipc")}).ok());
  net.run_for(SimTime::from_ms(100));
  CHECK(got == 1);
  CHECK(last == "hello ipc");

  // The EFCP connection is observable via the FA.
  auto* conn = net.node("a").ipcp(naming::DifName{"d"})->fa().connection(f.port());
  CHECK(conn != nullptr);
  CHECK(conn->stats().get("pdus_tx") == 1);
}

static void relayed_flow() {
  Network net(43);
  net.add_link("a", "r");
  net.add_link("r", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "r", "b"})).ok());
  int got = 0;
  register_sink(net, "b", "srv", "d", [&](Bytes&&) { ++got; });
  auto f = open_flow(net, "a", "cli", "srv");
  for (int i = 0; i < 10; ++i)
    CHECK(net.node("a").write(f.port(), BytesView{to_bytes("x")}).ok());
  net.run_for(SimTime::from_ms(200));
  CHECK(got == 10);
  // The relay actually relayed (data + acks both ways).
  auto* r = net.node("r").ipcp(naming::DifName{"d"});
  CHECK(r->rmt().stats().get("relayed") >= 20);
}

static void wrong_psk_rejected() {
  Network net(44);
  net.add_link("m", "j");
  node::DifSpec s = spec("sec", {"m"});
  s.cfg.auth_policy = "psk-challenge";
  s.cfg.auth_secret = "right";
  CHECK(net.build_link_dif(s).ok());

  dif::DifConfig jc = s.cfg;
  jc.auth_secret = "wrong";
  auto& joiner = net.node("j").create_ipcp(jc);
  auto ports = net.wire_ipcps(naming::DifName{"sec"}, "j", "m");
  CHECK(ports.ok());
  CHECK(joiner.enroll_via(ports.value().first).ok());
  net.run_for(SimTime::from_sec(3));
  CHECK(!joiner.enrolled());
  auto* m = net.node("m").ipcp(naming::DifName{"sec"});
  CHECK(m->enrollment().stats().get("joins_rejected") == 3);
  CHECK(m->enrollment().stats().get("members_admitted") == 0);

  // And with the right key, admission works.
  dif::DifConfig good = s.cfg;
  auto& joiner2 = net.node("j2").create_ipcp(good);
  net.add_link("j2", "m");
  auto ports2 = net.wire_ipcps(naming::DifName{"sec"}, "j2", "m");
  CHECK(ports2.ok());
  CHECK(joiner2.enroll_via(ports2.value().first).ok());
  net.run_until([&] { return joiner2.enrolled(); }, SimTime::from_sec(3));
  CHECK(joiner2.enrolled());
  CHECK(m->enrollment().stats().get("members_admitted") == 1);
}

static void overlay_dif_carries_data() {
  Network net(45);
  net.add_link("a", "r");
  net.add_link("r", "b");
  CHECK(net.build_link_dif(spec("hopA", {"a", "r"})).ok());
  CHECK(net.build_link_dif(spec("hopB", {"r", "b"})).ok());
  node::DifSpec e2e = spec("e2e", {"a", "r", "b"});
  CHECK(net.build_overlay_dif(e2e,
                              {{"a", "r", naming::DifName{"hopA"}, {}},
                               {"r", "b", naming::DifName{"hopB"}, {}}})
            .ok());
  int got = 0;
  register_sink(net, "b", "srv", "e2e", [&](Bytes&&) { ++got; });
  net.run_for(SimTime::from_ms(100));
  auto f = open_flow(net, "a", "cli", "srv");
  for (int i = 0; i < 5; ++i)
    CHECK(f.write(BytesView{to_bytes("y")}).ok());
  net.run_for(SimTime::from_ms(300));
  CHECK(got == 5);
  // Application names never entered the hop DIFs' directories.
  CHECK(!net.node("r").ipcp(naming::DifName{"hopA"})->fa().can_resolve(
      naming::AppName("srv")));
}

static void link_failure_reroutes() {
  Network net(46);
  net.add_link("a", "r1");
  net.add_link("r1", "b");
  net.add_link("a", "r2");
  net.add_link("r2", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "r1", "r2", "b"})).ok());
  int got = 0;
  register_sink(net, "b", "srv", "d", [&](Bytes&&) { ++got; });
  auto f = open_flow(net, "a", "cli", "srv");
  CHECK(f.write(BytesView{to_bytes("1")}).ok());
  net.run_for(SimTime::from_ms(100));
  CHECK(got == 1);
  // Kill one path; the reliable flow must still deliver.
  CHECK(net.set_link_state("a", "r1", false).ok());
  net.run_for(SimTime::from_ms(100));
  CHECK(f.write(BytesView{to_bytes("2")}).ok());
  net.run_for(SimTime::from_sec(1));
  CHECK(got == 2);
}

// --- hellos over a lossy wire: no half-open adjacency ---
//
// Two members over a wire that loses half its frames. A side that has
// heard its peer must still answer the peer's repeated hellos, or the
// peer retries forever while this side routes into it. After 10 s every
// seed must have both sides adjacent and both sides quiet.

static void lossy_hellos_converge() {
  const naming::DifName dif{"d"};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Network net(seed);
    node::LinkOpts lossy;
    lossy.gilbert_elliott = sim::GilbertElliottLoss::Params{};
    lossy.gilbert_elliott->loss_good = 0.5;  // never turns bad: i.i.d. 50%
    net.add_link("a", "b", lossy);
    CHECK(net.build_link_dif(spec("d", {"a", "b"})).ok());
    net.run_for(SimTime::from_sec(10));
    ipcp::Ipcp* a = net.node("a").ipcp(dif);
    ipcp::Ipcp* b = net.node("b").ipcp(dif);
    std::uint64_t hellos_a = a->stats().get("hellos_sent");
    std::uint64_t hellos_b = b->stats().get("hellos_sent");
    net.run_for(SimTime::from_sec(5));
    CHECK(a->stats().get("hellos_sent") == hellos_a);
    CHECK(b->stats().get("hellos_sent") == hellos_b);
    CHECK(a->rmt().fib().entry_count() == 1);
    CHECK(b->rmt().fib().entry_count() == 1);
  }
}

// --- a wire that is down when the DIF is built ---
//
// The first hellos are lost to the dead carrier, and retries stop while
// it stays down. When the wire comes up the hellos resume, and the
// hand-over tells a about the srv that b registered meanwhile.

static void hello_after_carrier_returns() {
  Network net(51);
  net.add_link("a", "b");
  CHECK(net.set_link_state("a", "b", false).ok());
  CHECK(net.build_link_dif(spec("d", {"a", "b"})).ok());
  register_sink(net, "b", "srv", "d", [](Bytes&&) {});
  net.run_for(SimTime::from_sec(1));
  CHECK(net.set_link_state("a", "b", true).ok());
  net.run_for(SimTime::from_ms(100));
  flow::Flow f = open_flow(net, "a", "cli", "srv");
  CHECK(f.is_open());
}

// --- a late first adjacency: the hello hands over the LSDB ---
//
// x is a founding member of a—b—c's DIF with no wire until the DIF has
// converged; then it is wired to c. Only the state hand-over can tell x
// about the a—b edge (b's LSU does not change), so without the LSDB
// records x has no route to srv on a.

static void late_first_adjacency() {
  Network net(48);
  net.add_link("a", "b");
  net.add_link("b", "c");
  CHECK(net.build_link_dif(spec("d", {"a", "b", "c", "x"})).ok());
  register_sink(net, "a", "srv", "d", [](Bytes&&) {});
  net.run_for(SimTime::from_sec(1));
  net.add_link("c", "x");
  CHECK(net.connect_members(naming::DifName{"d"}, "c", "x").ok());
  net.run_for(SimTime::from_ms(100));
  flow::Flow f = open_flow(net, "x", "cli", "srv");
  CHECK(f.is_open());
}

// --- a joiner receives state larger than one Sync chunk ---
//
// b, alone in its DIF, holds 2000 names — about 122 KB of directory
// records, more than two chunks. j enrolls through b and must learn every
// name. j also registered `srv` before it had an address; the DIF holds
// a tombstone for `srv` at version 2, so j must apply the DIF's versions
// before publishing its own, or its version-1 binding loses everywhere.

static void joiner_gets_whole_state() {
  Network net(50);
  net.add_link("b", "j");
  CHECK(net.build_link_dif(spec("d", {"b"})).ok());
  const naming::DifName dif{"d"};
  const naming::AppName srv("srv");
  constexpr int kNames = 2000;
  auto name = [](int i) {
    return naming::AppName("a-service-with-a-forty-byte-long-name-" + std::to_string(i));
  };
  for (int i = 0; i < kNames; ++i)
    CHECK(net.node("b").register_app(name(i), dif, [](flow::Flow) {}).ok());
  CHECK(net.node("b").register_app(srv, dif, [](flow::Flow) {}).ok());
  CHECK(net.node("b").ipcp(dif)->fa().unregister_app(srv).ok());
  net.run_for(SimTime::from_sec(1));

  CHECK(net.attach_via_link(dif, "j", "b").ok());
  CHECK(net.node("j").register_app(srv, dif, [](flow::Flow) {}).ok());
  ipcp::Ipcp* j = net.node("j").ipcp(dif);
  net.run_until([&] { return j->enrolled(); }, SimTime::from_sec(3));
  net.run_for(SimTime::from_ms(100));
  CHECK(j->enrolled());
  CHECK(j->directory().size() == static_cast<std::size_t>(kNames) + 1);
  CHECK(j->directory().lookup(name(kNames - 1)) ==
        std::optional<naming::Address>{net.node("b").ipcp(dif)->address()});
  CHECK(net.node("b").ipcp(dif)->directory().lookup(srv) ==
        std::optional<naming::Address>{j->address()});
}

// --- a malformed Sync installs nothing ---
//
// a's wire sends b Syncs whose counts promise more than their bytes
// hold: 65535 names in one byte, and a record of a's (newer than any a
// sent) listing 65535 neighbors with two present. b must read no further
// than the bytes (ASan checks that) and install nothing; the same record
// whole is installed, so b then routes to the neighbor it names.

static void malformed_sync_ignored() {
  Network net(52);
  net.add_link("a", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "b"})).ok());
  const naming::DifName dif{"d"};
  ipcp::Ipcp* a = net.node("a").ipcp(dif);
  ipcp::Ipcp* b = net.node("b").ipcp(dif);
  auto send = [&](Bytes value) {
    BufWriter w;  // a RIEP write of class Sync carrying `value`
    w.put_u8(static_cast<std::uint8_t>(rib::RiepOp::write));
    w.put_u8(static_cast<std::uint8_t>(rib::ObjClass::sync));
    w.put_u32(0);
    w.put_lpbytes(BytesView{value});
    efcp::Pdu pdu;
    pdu.pci.type = efcp::PduType::mgmt;
    pdu.pci.src = a->address();
    pdu.payload = std::move(w).take();
    auto framed = rib::RiepMessage::decode(pdu.payload.view());
    CHECK(framed.ok() && framed.value().obj_class == rib::ObjClass::sync);
    CHECK(a->rmt().egress_via(0, std::move(pdu)).ok());
    net.run_for(SimTime::from_ms(50));
  };
  auto record = [&](std::uint16_t claimed) {
    BufWriter w;
    w.put_u16(0);  // no names
    w.put_u16(1);  // one LSDB record
    w.put_u32(a->address().key());
    w.put_u64(1000);
    w.put_u16(claimed);
    w.put_u32(b->address().key());
    w.put_u32(naming::Address{1, 9}.key());
    return std::move(w).take();
  };
  send(Bytes{0xFF, 0xFF, 0x00});
  send(record(0xFFFF));
  CHECK(b->directory().size() == 0);
  CHECK(b->rmt().fib().entry_count() == 1);
  send(record(2));
  CHECK(b->rmt().fib().entry_count() == 2);
}

// --- partition repair: a returning adjacency resyncs what it missed ---
//
// Star a—r—{b, x} in one flat DIF. The a—r wire is down for 2 s — long
// past every re-announce — while the far side registers, moves or
// unregisters `srv`. Once the wire is back, a's directory must equal r's.
//
// With `tail` > 0 a chain of that many members hangs behind x, the DIF's
// RMT queues hold 8 PDUs and the a—r wire queues 4 frames: r holds more
// LSDB records than its egress toward a can queue, so the hand-over must
// not cost one PDU per record.

enum class Partitioned { register_app, move_app, unregister_app };

static void partition_repair(Partitioned what, int tail = 0) {
  Network net(47);
  node::DifSpec s = spec("d", {"a", "r", "b", "x"});
  node::LinkOpts ar;
  if (tail > 0) {
    s.cfg.rmt_queue_pdus = 8;
    ar.queue_pkts = 4;
  }
  net.add_link("a", "r", ar);
  net.add_link("r", "b");
  net.add_link("r", "x");
  std::string prev = "x";
  for (int i = 1; i <= tail; ++i) {
    std::string t = "t" + std::to_string(i);
    net.add_link(prev, t);
    s.members.push_back(t);
    prev = t;
  }
  CHECK(net.build_link_dif(s).ok());
  const naming::DifName dif{"d"};
  const naming::AppName srv("srv");
  std::string accepted_at;
  auto accept_on = [&](const std::string& node) {
    return [&accepted_at, node](flow::Flow) { accepted_at = node; };
  };
  if (what != Partitioned::register_app) {
    CHECK(net.node("b").register_app(srv, dif, accept_on("b")).ok());
    net.run_for(SimTime::from_ms(600));
    CHECK(net.node("a").ipcp(dif)->directory().lookup(srv).has_value());
  }

  CHECK(net.set_link_state("a", "r", false).ok());
  net.run_for(SimTime::from_ms(50));
  switch (what) {
    case Partitioned::register_app:
      CHECK(net.node("b").register_app(srv, dif, accept_on("b")).ok());
      break;
    case Partitioned::move_app:
      CHECK(net.node("b").ipcp(dif)->fa().unregister_app(srv).ok());
      net.run_for(SimTime::from_ms(30));
      CHECK(net.node("x").register_app(srv, dif, accept_on("x")).ok());
      break;
    case Partitioned::unregister_app:
      CHECK(net.node("b").ipcp(dif)->fa().unregister_app(srv).ok());
      break;
  }
  net.run_for(SimTime::from_sec(2));
  CHECK(net.set_link_state("a", "r", true).ok());
  net.run_for(SimTime::from_ms(200));

  const naming::Directory& at_a = net.node("a").ipcp(dif)->directory();
  const naming::Directory& at_r = net.node("r").ipcp(dif)->directory();
  CHECK(at_a.entries() == at_r.entries());
  if (what == Partitioned::unregister_app) {
    CHECK(!at_a.lookup(srv).has_value());
    return;
  }
  flow::Flow f = open_flow(net, "a", "cli", "srv");
  CHECK(f.is_open());
  CHECK(accepted_at == (what == Partitioned::move_app ? "x" : "b"));
  if (tail > 0) CHECK(net.sum_dif_counter(dif, "rmt_drops") == 0);
}

// --- a member that learns many records at once floods them on as one ---
//
// y—a and a converged 30-member chain c1…c30 are one flat DIF in two
// pieces until a—c1 is wired. c1's hand-over gives a 29 LSDB records and
// srv's name at once. a must pass them to y as the one Sync they came
// in, not as one message per record: the y—a wire queues 4 frames and
// the DIF's RMT queues hold 8 PDUs, so a per-record re-flood tail-drops
// most of them and y never learns the route to srv.

static void handover_floods_on_as_one() {
  Network net(53);
  node::DifSpec s = spec("d", {"y", "a"});
  s.cfg.rmt_queue_pdus = 8;
  node::LinkOpts ya;
  ya.queue_pkts = 4;
  net.add_link("y", "a", ya);
  constexpr int kChain = 30;
  for (int i = 1; i <= kChain; ++i) {
    std::string c = "c" + std::to_string(i);
    if (i > 1) net.add_link("c" + std::to_string(i - 1), c);
    s.members.push_back(c);
  }
  CHECK(net.build_link_dif(s).ok());
  const naming::DifName dif{"d"};
  register_sink(net, "c" + std::to_string(kChain), "srv", "d", [](Bytes&&) {});
  net.run_for(SimTime::from_sec(1));

  net.add_link("a", "c1");
  CHECK(net.connect_members(dif, "a", "c1").ok());
  net.run_for(SimTime::from_ms(200));
  CHECK(net.node("y").ipcp(dif)->rmt().fib().entry_count() == kChain + 1);
  flow::Flow f = open_flow(net, "y", "cli", "srv");
  CHECK(f.is_open());
  CHECK(net.sum_dif_counter(dif, "rmt_drops") == 0);
}

// --- keepalive revival: a path heals with no carrier signal ---
//
// Overlay DIF `top` between a and b rides an unreliable flow of the
// a—m—b DIF `low`. Cutting a—m breaks the lower path but closes no flow,
// so top sees the outage only as keepalive silence, at both ends. b
// registers srv in top while the path is down; when it heals, the
// keepalives each dead end keeps sending revive the adjacency, and the
// hand-over gives a the registration.

static void keepalive_revival() {
  Network net(49);
  net.add_link("a", "m");
  net.add_link("m", "b");
  CHECK(net.build_link_dif(spec("low", {"a", "m", "b"})).ok());
  node::DifSpec top = spec("top", {"a", "b"});
  top.cfg.keepalive_enabled = true;
  CHECK(net.build_overlay_dif(top, {{"a", "b", naming::DifName{"low"}, {}}}).ok());
  const naming::DifName dif{"top"};
  const naming::AppName srv("srv");
  ipcp::Ipcp* a = net.node("a").ipcp(dif);
  ipcp::Ipcp* b = net.node("b").ipcp(dif);

  CHECK(net.set_link_state("a", "m", false).ok());
  net.run_for(SimTime::from_ms(500));
  CHECK(a->stats().get("keepalive_expired") == 1);
  CHECK(b->stats().get("keepalive_expired") == 1);
  register_sink(net, "b", "srv", "top", [](Bytes&&) {});
  net.run_for(SimTime::from_sec(1));
  CHECK(!a->directory().lookup(srv).has_value());

  CHECK(net.set_link_state("a", "m", true).ok());
  net.run_for(SimTime::from_ms(500));
  CHECK(a->directory().lookup(srv) == std::optional<naming::Address>{b->address()});
  flow::Flow f = open_flow(net, "a", "cli", "srv");
  CHECK(f.is_open());
}

// An overlay port's RMT queue drains when its lower flow can take more.
// The upper flow is unreliable and outruns the 2 Mb/s wire beneath the
// reliable lower flow, so upper frames wait in the upper RMT until the
// lower window reopens; the upper writer, refused at the full RMT queue,
// refills on on_writable. Every SDU must arrive.
static void overlay_port_drains_on_lower_writable() {
  Network net(50);
  node::LinkOpts wire;
  wire.rate_bps = 2e6;
  net.add_link("a", "b", wire);
  CHECK(net.build_link_dif(spec("low", {"a", "b"})).ok());
  CHECK(net.build_overlay_dif(spec("up", {"a", "b"}),
                              {{"a", "b", naming::DifName{"low"},
                                flow::QosSpec::reliable_default()}})
            .ok());
  int got = 0;
  register_sink(net, "b", "srv", "up", [&](Bytes&&) { ++got; });
  flow::Flow f = net.node("a").allocate_flow_on(naming::DifName{"up"}, naming::AppName("cli"),
                                                naming::AppName("srv"),
                                                flow::QosSpec::unreliable());
  CHECK(net.run_until([&] { return !f.is_allocating(); }, SimTime::from_sec(2)));
  CHECK(f.is_open());

  constexpr int kSdus = 3000;
  int sent = 0;
  const Bytes sdu(200, 0x5a);
  auto refill = [&sent, &sdu](flow::Flow& fl) {
    while (sent < kSdus && fl.write(BytesView{sdu}).ok()) ++sent;
  };
  f.on_writable(refill);
  refill(f);
  net.run_for(SimTime::from_sec(20));
  CHECK(sent == kSdus);
  CHECK(got == kSdus);
}

int main() {
  two_hosts_flow();
  relayed_flow();
  wrong_psk_rejected();
  overlay_dif_carries_data();
  link_failure_reroutes();
  partition_repair(Partitioned::register_app);
  partition_repair(Partitioned::move_app);
  partition_repair(Partitioned::unregister_app);
  partition_repair(Partitioned::register_app, /*tail=*/30);
  lossy_hellos_converge();
  hello_after_carrier_returns();
  late_first_adjacency();
  joiner_gets_whole_state();
  malformed_sync_ignored();
  handover_floods_on_as_one();
  keepalive_revival();
  overlay_port_drains_on_lower_writable();
  return TEST_MAIN_RESULT();
}
