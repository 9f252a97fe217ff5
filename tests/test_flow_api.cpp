// test_flow_api — the application-facing IPC API: first-class Flow
// handles, name-only allocation across multiple DIFs, typed QoS errors,
// app-visible backpressure, the bounded receive queue, and the full
// deallocation lifecycle (clean close, idempotence, write-after-close,
// exactly-once remote on_closed, safe port-id recycling), and a CEP
// table sized by the flows open at once, not by the flows ever opened.
#include "node/network.hpp"

#include <string>
#include <vector>

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

flow::Flow settle_alloc(Network& net, flow::Flow f) {
  net.run_until([&] { return !f.is_allocating(); }, SimTime::from_sec(10));
  return f;
}

}  // namespace

// The allocator consults every enrolled DIF's directory: the app is
// registered only in d2, so a name-only allocate from a (member of both
// d1 and d2) must land on d2 without the app naming any DIF.
static void name_only_allocation_picks_reachable_dif() {
  Network net(71);
  net.add_link("a", "b");
  net.add_link("a", "c");
  CHECK(net.build_link_dif(spec("d1", {"a", "b"})).ok());
  CHECK(net.build_link_dif(spec("d2", {"a", "c"})).ok());

  int got = 0;
  CHECK(net.node("c")
            .register_app(naming::AppName("srv"), naming::DifName{"d2"},
                          [&got](flow::Flow f) {
                            f.on_readable([&got](flow::Flow& fl) {
                              while (fl.read()) ++got;
                            });
                          })
            .ok());
  net.run_for(SimTime::from_ms(100));

  flow::Flow f = settle_alloc(
      net, net.node("a").allocate_flow(naming::AppName("cli"),
                                       naming::AppName("srv"),
                                       flow::QosSpec::reliable_default()));
  CHECK(f.is_open());
  CHECK(f.info().dif.str() == "d2");
  CHECK(f.info().remote.process == "srv");
  CHECK(f.write(BytesView{to_bytes("by name alone")}).ok());
  net.run_for(SimTime::from_ms(100));
  CHECK(got == 1);
}

// A cube_hint naming a class the DIF does not offer is a typed, counted
// failure — not silent fallback to whatever matches the flags.
static void no_such_cube_is_typed_and_counted() {
  Network net(72);
  net.add_link("a", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "b"})).ok());
  CHECK(net.node("b")
            .register_app(naming::AppName("srv"), naming::DifName{"d"},
                          [](flow::Flow) {})
            .ok());
  net.run_for(SimTime::from_ms(100));

  flow::QosSpec gold;
  gold.cube_hint = "gold";  // the default cubes are reliable/unreliable
  flow::Flow f = settle_alloc(
      net, net.node("a").allocate_flow_on(naming::DifName{"d"},
                                          naming::AppName("cli"),
                                          naming::AppName("srv"), gold));
  CHECK(f.state() == flow::FlowState::closed);
  CHECK(f.error().code == Err::no_such_cube);
  CHECK(net.node("a").ipcp(naming::DifName{"d"})->stats().get(
            "alloc_no_such_cube") == 1);

  // The name-only path fails FAST with the same typed error: the name
  // already resolves and cube sets are fixed, so no polling deadline is
  // paid — the handle is closed before allocate_flow even returns.
  flow::Flow f2 = net.node("a").allocate_flow(naming::AppName("cli"),
                                              naming::AppName("srv"), gold);
  CHECK(f2.state() == flow::FlowState::closed);
  CHECK(f2.error().code == Err::no_such_cube);
  CHECK(net.node("a").stats().get("alloc_no_such_cube") == 1);

  // on_closed registered after a synchronous failure still fires: the
  // exactly-once contract holds no matter when the hook is attached.
  int late_closed = 0;
  f2.on_closed([&late_closed](flow::Flow&) { ++late_closed; });
  CHECK(late_closed == 1);
}

// Clean close: deallocate() retires port state at BOTH ends, the remote
// on_closed fires exactly once, a second deallocate is a no-op, writes
// after close return a typed error and bump the node counter, and the
// retired port-id is recycled without aliasing the old handle.
static void deallocation_lifecycle() {
  Network net(73);
  net.add_link("a", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "b"})).ok());

  int remote_closed = 0;
  flow::Flow server_flow;
  CHECK(net.node("b")
            .register_app(naming::AppName("srv"), naming::DifName{"d"},
                          [&](flow::Flow f) {
                            f.on_closed([&remote_closed](flow::Flow&) {
                              ++remote_closed;
                            });
                            server_flow = f;
                          })
            .ok());
  net.run_for(SimTime::from_ms(100));

  flow::Flow f = settle_alloc(
      net, net.node("a").allocate_flow(naming::AppName("cli"),
                                       naming::AppName("srv"),
                                       flow::QosSpec::reliable_default()));
  CHECK(f.is_open());
  int local_closed = 0;
  f.on_closed([&local_closed](flow::Flow&) { ++local_closed; });
  CHECK(f.write(BytesView{to_bytes("ping")}).ok());
  net.run_for(SimTime::from_ms(100));
  CHECK(server_flow.is_open());
  flow::PortId old_port = f.port();

  auto* ipcp_a = net.node("a").ipcp(naming::DifName{"d"});
  auto* ipcp_b = net.node("b").ipcp(naming::DifName{"d"});

  f.deallocate();
  CHECK(f.state() == flow::FlowState::closing);
  net.run_for(SimTime::from_ms(300));

  // Both ends fully retired: states closed, hooks fired exactly once,
  // no connection left under either port.
  CHECK(f.state() == flow::FlowState::closed);
  CHECK(server_flow.state() == flow::FlowState::closed);
  CHECK(local_closed == 1);
  CHECK(remote_closed == 1);
  CHECK(ipcp_a->fa().connection(old_port) == nullptr);
  CHECK(ipcp_b->fa().connection(server_flow.port()) == nullptr);
  CHECK(ipcp_a->stats().get("releases_initiated") == 1);
  CHECK(ipcp_b->stats().get("releases_received") == 1);
  CHECK(ipcp_a->stats().get("flows_closed") == 1);
  CHECK(ipcp_b->stats().get("flows_closed") == 1);

  // Idempotent: more deallocates close nothing twice, fire nothing twice.
  f.deallocate();
  server_flow.deallocate();
  net.run_for(SimTime::from_ms(300));
  CHECK(local_closed == 1);
  CHECK(remote_closed == 1);
  CHECK(ipcp_a->stats().get("releases_initiated") == 1);

  // Write-after-close: typed error + per-node counter, on both surfaces.
  CHECK(f.write(BytesView{to_bytes("late")}).error().code == Err::flow_closed);
  CHECK(net.node("a").write(old_port, BytesView{to_bytes("late")}).error().code ==
        Err::flow_closed);
  CHECK(net.node("a").stats().get("app_write_bad_port") == 2);

  // Port-id recycling: the retired id is reused for the next flow, and
  // the stale handle stays closed — handles bind to flow state, never to
  // bare port numbers, so recycling cannot alias.
  flow::Flow f2 = settle_alloc(
      net, net.node("a").allocate_flow(naming::AppName("cli"),
                                       naming::AppName("srv"),
                                       flow::QosSpec::reliable_default()));
  CHECK(f2.is_open());
  CHECK(f2.port() == old_port);
  CHECK(f.state() == flow::FlowState::closed);
  CHECK(f.write(BytesView{to_bytes("stale")}).error().code == Err::flow_closed);
  CHECK(f2.write(BytesView{to_bytes("fresh")}).ok());
}

// The responder can release too, and the initiator's handle hears it.
static void remote_release_closes_initiator() {
  Network net(74);
  net.add_link("a", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "b"})).ok());

  flow::Flow server_flow;
  CHECK(net.node("b")
            .register_app(naming::AppName("srv"), naming::DifName{"d"},
                          [&](flow::Flow f) { server_flow = f; })
            .ok());
  net.run_for(SimTime::from_ms(100));
  flow::Flow f = settle_alloc(
      net, net.node("a").allocate_flow(naming::AppName("cli"),
                                       naming::AppName("srv"),
                                       flow::QosSpec::reliable_default()));
  CHECK(f.is_open());
  int closed = 0;
  f.on_closed([&closed](flow::Flow&) { ++closed; });

  server_flow.deallocate();
  net.run_for(SimTime::from_ms(300));
  CHECK(f.state() == flow::FlowState::closed);
  CHECK(server_flow.state() == flow::FlowState::closed);
  CHECK(closed == 1);
}

// Backpressure is visible at the handle: a saturated DTCP window turns
// into Err::would_block (never unbounded queueing), and on_writable
// fires once the window reopens.
static void write_backpressure_and_on_writable() {
  Network net(75);
  node::LinkOpts slow;
  slow.rate_bps = 2e6;  // ~4 ms per 1000-byte SDU
  slow.delay = SimTime::from_us(100);
  net.add_link("a", "b", slow);
  CHECK(net.build_link_dif(spec("d", {"a", "b"})).ok());

  std::uint64_t got = 0;
  CHECK(net.node("b")
            .register_app(naming::AppName("srv"), naming::DifName{"d"},
                          [&got](flow::Flow f) {
                            f.on_readable([&got](flow::Flow& fl) {
                              while (fl.read()) ++got;
                            });
                          })
            .ok());
  net.run_for(SimTime::from_ms(100));
  flow::Flow f = settle_alloc(
      net, net.node("a").allocate_flow(naming::AppName("cli"),
                                       naming::AppName("srv"),
                                       flow::QosSpec::reliable_default()));
  CHECK(f.is_open());

  int writable_fires = 0;
  f.on_writable([&writable_fires](flow::Flow&) { ++writable_fires; });

  // Blast with no pacing: the window and the EFCP send queue must fill
  // and the handle must refuse with the typed would_block.
  Bytes payload(1000, 0x5A);
  std::uint64_t accepted = 0, blocked = 0;
  for (int i = 0; i < 2000; ++i) {
    auto r = f.write(BytesView{payload});
    if (r.ok()) {
      ++accepted;
    } else {
      CHECK(r.error().code == Err::would_block);
      ++blocked;
      break;
    }
  }
  CHECK(blocked > 0);

  // Let acks drain the window: the armed on_writable must fire and the
  // handle must accept again.
  net.run_for(SimTime::from_sec(2));
  CHECK(writable_fires >= 1);
  CHECK(f.write(BytesView{payload}).ok());
  net.run_for(SimTime::from_sec(3));
  // Backpressure, not loss: everything accepted arrived.
  CHECK(got == accepted + 1);
}

// The receive queue is bounded: a reader that never reads loses SDUs to
// a counted drop (app_rx_dropped), holds at most its 64-SDU depth, and
// delivery resumes into freed slots after a drain.
static void bounded_rx_queue_counts_drops() {
  Network net(76);
  net.add_link("a", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "b"})).ok());

  flow::Flow server_flow;
  int readable_fires = 0;
  CHECK(net.node("b")
            .register_app(naming::AppName("srv"), naming::DifName{"d"},
                          [&](flow::Flow f) {
                            f.on_readable([&readable_fires](flow::Flow&) {
                              ++readable_fires;  // deliberately no read()
                            });
                            server_flow = f;
                          })
            .ok());
  net.run_for(SimTime::from_ms(100));
  flow::Flow f = settle_alloc(
      net, net.node("a").allocate_flow(naming::AppName("cli"),
                                       naming::AppName("srv"),
                                       flow::QosSpec::reliable_default()));
  CHECK(f.is_open());

  constexpr std::size_t kDepth = flow::detail::FlowShared::rx_cap;
  for (std::size_t i = 0; i < kDepth + 8; ++i)
    CHECK(f.write(BytesView{to_bytes("x")}).ok());
  net.run_for(SimTime::from_ms(300));

  CHECK(server_flow.readable() == kDepth);  // capped at the queue depth
  CHECK(readable_fires == 1);               // edge-triggered: empty -> non-empty
  CHECK(net.node("b").ipcp(naming::DifName{"d"})->stats().get(
            "app_rx_dropped") == 8);

  // Drain, and fresh SDUs land again (the queue recovered its slots).
  while (server_flow.read()) {
  }
  CHECK(f.write(BytesView{to_bytes("y")}).ok());
  net.run_for(SimTime::from_ms(200));
  CHECK(server_flow.readable() == 1);
  CHECK(readable_fires == 2);
}

// Server-push: an accept handler that writes immediately must not race
// its SDUs ahead of the flow response. On an unreliable cube (no
// retransmission to paper over a drop) the greeting must still arrive.
static void accept_handler_can_write_immediately() {
  Network net(79);
  net.add_link("a", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "b"})).ok());
  CHECK(net.node("b")
            .register_app(naming::AppName("srv"), naming::DifName{"d"},
                          [](flow::Flow f) {
                            CHECK(f.write(BytesView{to_bytes("welcome")}).ok());
                          })
            .ok());
  net.run_for(SimTime::from_ms(100));

  flow::QosSpec unrel = flow::QosSpec::unreliable();
  flow::Flow f = settle_alloc(
      net, net.node("a").allocate_flow(naming::AppName("cli"),
                                       naming::AppName("srv"), unrel));
  CHECK(f.is_open());
  net.run_for(SimTime::from_ms(100));
  auto greeting = f.read();
  CHECK(greeting.has_value());
  CHECK(to_string(BytesView{*greeting}) == "welcome");
}

// Node::write to a port that never existed: typed error, counted.
static void write_to_unknown_port_errors() {
  Network net(77);
  net.add_link("a", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "b"})).ok());
  auto r = net.node("a").write(4242, BytesView{to_bytes("void")});
  CHECK(!r.ok());
  CHECK(r.error().code == Err::flow_closed);
  CHECK(net.node("a").stats().get("app_write_bad_port") == 1);
}

// Deallocating while still allocating cancels cleanly: the handle closes
// (on_closed fires once) and whatever the allocator later produces is
// released, not leaked to a dead handle.
static void deallocate_while_allocating_cancels() {
  Network net(78);
  net.add_link("a", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "b"})).ok());
  CHECK(net.node("b")
            .register_app(naming::AppName("srv"), naming::DifName{"d"},
                          [](flow::Flow) {})
            .ok());
  net.run_for(SimTime::from_ms(100));

  flow::Flow f = net.node("a").allocate_flow(naming::AppName("cli"),
                                             naming::AppName("srv"),
                                             flow::QosSpec::reliable_default());
  int closed = 0;
  f.on_closed([&closed](flow::Flow&) { ++closed; });
  CHECK(f.is_allocating());
  f.deallocate();
  CHECK(f.state() == flow::FlowState::closed);
  CHECK(closed == 1);
  net.run_for(SimTime::from_sec(1));
  // The flow the allocator built for us was released again: nothing
  // lingers under any port on either end.
  auto* fa_a = &net.node("a").ipcp(naming::DifName{"d"})->fa();
  CHECK(fa_a->connection(1) == nullptr);
  CHECK(closed == 1);
}

// The CEP demultiplex table holds live flows only. 65,538 flows opened
// and closed three at a time through one IPCP pair leave both ends'
// tables at the size the first batch warmed them to. That many wraps
// the 16-bit CEP-id counter, and four flows held open throughout still
// resolve by CEP at both ends: data from each end reaches the other.
static void cep_table_tracks_live_flows() {
  Network net(80);
  net.add_link("a", "b");
  CHECK(net.build_link_dif(spec("d", {"a", "b"})).ok());
  std::vector<flow::Flow> served;  // the server ends of the held flows
  CHECK(net.node("b")
            .register_app(naming::AppName("srv"), naming::DifName{"d"},
                          [&served](flow::Flow f) {
                            if (served.size() < 4) served.push_back(f);
                          })
            .ok());
  net.run_for(SimTime::from_ms(100));
  auto open = [&net] {
    return net.node("a").allocate_flow(naming::AppName("cli"),
                                       naming::AppName("srv"),
                                       flow::QosSpec::reliable_default());
  };
  std::vector<flow::Flow> held;
  for (int i = 0; i < 4; ++i) held.push_back(settle_alloc(net, open()));
  auto& fa_a = net.node("a").ipcp(naming::DifName{"d"})->fa();
  auto& fa_b = net.node("b").ipcp(naming::DifName{"d"})->fa();

  std::size_t warm_a = 0, warm_b = 0;
  int opened = 0, not_open = 0, not_closed = 0;
  for (int batch = 0; batch < 21846; ++batch) {
    flow::Flow f[3] = {open(), open(), open()};
    net.run_until([&f] {
      return !f[0].is_allocating() && !f[1].is_allocating() && !f[2].is_allocating();
    }, SimTime::from_sec(10));
    for (flow::Flow& x : f) {
      if (x.is_open()) ++opened;
      else ++not_open;
    }
    if (batch == 0) {
      warm_a = fa_a.cep_slots();
      warm_b = fa_b.cep_slots();
    }
    for (flow::Flow& x : f) x.deallocate();
    net.run_until([&f] {
      return f[0].state() == flow::FlowState::closed &&
             f[1].state() == flow::FlowState::closed &&
             f[2].state() == flow::FlowState::closed;
    }, SimTime::from_sec(10));
    for (flow::Flow& x : f)
      if (x.state() != flow::FlowState::closed) ++not_closed;
  }
  CHECK(opened == 65538);
  CHECK(not_open == 0);
  CHECK(not_closed == 0);
  CHECK(warm_a >= 8 && warm_a <= 16);
  CHECK(fa_a.cep_slots() == warm_a);
  CHECK(fa_b.cep_slots() == warm_b);

  CHECK(served.size() == 4);
  int at_a = 0, at_b = 0;
  for (flow::Flow& h : held) {
    CHECK(h.is_open());
    h.on_readable([&at_a](flow::Flow& fl) { while (fl.read()) ++at_a; });
    CHECK(h.write(BytesView{to_bytes("to b")}).ok());
  }
  for (flow::Flow& h : served) {
    CHECK(h.is_open());
    h.on_readable([&at_b](flow::Flow& fl) { while (fl.read()) ++at_b; });
    CHECK(h.write(BytesView{to_bytes("to a")}).ok());
  }
  net.run_for(SimTime::from_ms(100));
  CHECK(at_a == 4);
  CHECK(at_b == 4);
}

int main() {
  name_only_allocation_picks_reachable_dif();
  no_such_cube_is_typed_and_counted();
  deallocation_lifecycle();
  remote_release_closes_initiator();
  write_backpressure_and_on_writable();
  bounded_rx_queue_counts_drops();
  accept_handler_can_write_immediately();
  write_to_unknown_port_errors();
  deallocate_while_allocating_cancels();
  cep_table_tracks_live_flows();
  return TEST_MAIN_RESULT();
}
