// test_congestion — the DTP/DTCP control plane: policy-name validation,
// AIMD window growth and ECN-driven backoff, static_window reproducing
// the fixed-window inflight behavior, rate_based pacing, per-QoS RMT
// egress queue bounds/accounting, and the end-to-end scoped-ECN loop
// (RMT mark -> receiver echo -> sender backoff) through a real DIF.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "efcp/connection.hpp"
#include "efcp_pair_harness.hpp"
#include "node/network.hpp"
#include "relay/forwarding.hpp"
#include "test_util.hpp"

using namespace rina;
using rina::testx::EfcpPair;
using Pair = EfcpPair;

// ---- policy-name validation (no more silent defaults) ----

static void unknown_policy_names_error() {
  auto bad = efcp::EfcpPolicies::from_policy_name("relaible");  // typo
  CHECK(!bad.ok());
  CHECK(bad.error().code == Err::not_found);

  efcp::EfcpPolicies p;
  CHECK(!p.set_tx_policy("aimd-ecn").ok());  // wrong separator
  CHECK(p.tx_policy == efcp::TxPolicy::static_window);  // untouched on error

  // Every documented name resolves.
  for (const char* name :
       {"", "reliable", "unreliable", "wireless-hop", "static_window",
        "aimd_ecn", "rate_based", "cubic", "delay_based"})
    CHECK(efcp::EfcpPolicies::from_policy_name(name).ok());
  CHECK(p.set_tx_policy("aimd_ecn").ok());
  CHECK(p.tx_policy == efcp::TxPolicy::aimd_ecn);
  CHECK(p.set_tx_policy("rate_based").ok());
  CHECK(p.tx_policy == efcp::TxPolicy::rate_based);
  CHECK(p.set_tx_policy("cubic").ok());
  CHECK(p.tx_policy == efcp::TxPolicy::cubic);
  CHECK(p.set_tx_policy("delay_based").ok());
  CHECK(p.tx_policy == efcp::TxPolicy::delay_based);
  CHECK(p.set_tx_policy("static_window").ok());
  CHECK(p.tx_policy == efcp::TxPolicy::static_window);
}

// ---- AIMD window dynamics ----

static void aimd_window_grows_on_acks() {
  efcp::EfcpPolicies pol;
  CHECK(pol.set_tx_policy("aimd_ecn").ok());
  pol.initial_cwnd = 4.0;
  Pair p{pol};
  CHECK(p.a->tx_window() == 4);
  for (int i = 0; i < 200; ++i)
    (void)p.a->write_sdu(BytesView{to_bytes("g" + std::to_string(i))});
  p.sched.run();
  CHECK(p.delivered.size() == 200);
  // Additive increase: ~one PDU per window's worth of acks.
  CHECK(p.a->cwnd() > 8.0);
  CHECK(p.a->stats().get("cwnd_backoffs") == 0);
}

static void aimd_window_halves_on_ecn_echo() {
  efcp::EfcpPolicies pol;
  CHECK(pol.set_tx_policy("aimd_ecn").ok());
  pol.initial_cwnd = 32.0;
  Pair p{pol};
  p.a_to_b = EfcpPair::mark_all();  // a congested "RMT" marks every data PDU
  for (int i = 0; i < 8; ++i)
    (void)p.a->write_sdu(BytesView{to_bytes("m")});
  p.sched.run();
  CHECK(p.delivered.size() == 8);
  // The receiver saw the marks and echoed them on its acks...
  CHECK(p.b->stats().get("ecn_rx") == 8);
  CHECK(p.b->stats().get("ecn_echoed") >= 1);
  // ...and the sender backed off: halved at least once, but NOT once per
  // echo (one cut per window in flight, not a collapse to the floor).
  CHECK(p.a->stats().get("ecn_echo_rx") >= 1);
  CHECK(p.a->stats().get("cwnd_backoffs") >= 1);
  CHECK(p.a->cwnd() <= 16.0);
  CHECK(p.a->cwnd() >= static_cast<double>(pol.min_cwnd));
}

static void aimd_cuts_once_per_window_in_flight() {
  // The EfcpPair wire acks synchronously (inflight never exceeds 1), so
  // the one-cut-per-window guard needs hand-driven acks: a lone sender
  // with a mute wire, a whole window outstanding, and a burst of echoed
  // marks arriving within it.
  efcp::EfcpPolicies pol;
  CHECK(pol.set_tx_policy("aimd_ecn").ok());
  pol.initial_cwnd = 32.0;
  sim::Scheduler sched;
  efcp::ConnectionId id{naming::Address{1, 1}, naming::Address{1, 2}, 1, 2, 0};
  efcp::Connection snd(sched, pol, id, [](efcp::Pdu&&) {}, [](Packet&&) {});
  for (int i = 0; i < 8; ++i)
    CHECK(snd.write_sdu(BytesView{to_bytes("w")}).ok());
  CHECK(snd.inflight() == 8);

  auto echo_ack = [&](std::uint64_t cum) {
    efcp::Pci ack;
    ack.type = efcp::PduType::ack;
    ack.flags = efcp::kFlagEcnEcho;
    ack.seq = cum;
    ack.dest_cep = 1;
    ack.src_cep = 2;
    snd.on_pdu(ack, BytesView{});
  };
  // A burst of echoes inside the same outstanding window: one cut only.
  echo_ack(2);
  echo_ack(4);
  echo_ack(6);
  CHECK(snd.stats().get("ecn_echo_rx") == 3);
  CHECK(snd.stats().get("cwnd_backoffs") == 1);
  CHECK(snd.cwnd() == 16.0);
  // Advance the ack edge past the recovery point (seq 8, the window edge
  // at the cut): the next echoed mark is a fresh congestion episode.
  efcp::Pci clean;
  clean.type = efcp::PduType::ack;
  clean.seq = 8;
  clean.dest_cep = 1;
  clean.src_cep = 2;
  snd.on_pdu(clean, BytesView{});
  CHECK(snd.stats().get("cwnd_backoffs") == 1);  // a clean ack never cuts
  echo_ack(8);
  CHECK(snd.stats().get("cwnd_backoffs") == 2);
  CHECK(snd.cwnd() >= 8.0);
  CHECK(snd.cwnd() < 9.0);
}

static void aimd_does_not_collapse_below_floor() {
  efcp::EfcpPolicies pol;
  CHECK(pol.set_tx_policy("aimd_ecn").ok());
  pol.initial_cwnd = 64.0;
  Pair p{pol};
  p.a_to_b = EfcpPair::mark_all();
  for (int i = 0; i < 400; ++i)
    (void)p.a->write_sdu(BytesView{to_bytes("f")});
  p.sched.run();
  CHECK(p.delivered.size() == 400);  // marks slow it down, nothing is lost
  CHECK(p.a->cwnd() >= 2.0);
  CHECK(p.a->tx_window() >= 2);
}

// ---- static_window reproduces the historical fixed-window behavior ----

static void static_window_inflight_trace() {
  efcp::EfcpPolicies pol;  // default: static_window
  pol.window = 4;
  pol.send_queue = 4;
  Pair p{pol};
  p.a_to_b = EfcpPair::black_hole();  // no acks: the window never opens

  // The fixed-window trace: inflight climbs to the window, then the send
  // queue absorbs the next 4, then writes refuse.
  std::vector<std::size_t> inflight_trace, queued_trace;
  int refused = 0;
  for (int i = 0; i < 10; ++i) {
    if (!p.a->write_sdu(BytesView{to_bytes("t")}).ok()) ++refused;
    inflight_trace.push_back(p.a->inflight());
    queued_trace.push_back(p.a->queued());
  }
  CHECK(inflight_trace ==
        (std::vector<std::size_t>{1, 2, 3, 4, 4, 4, 4, 4, 4, 4}));
  CHECK(queued_trace == (std::vector<std::size_t>{0, 0, 0, 0, 1, 2, 3, 4, 4, 4}));
  CHECK(refused == 2);
  CHECK(p.a->stats().get("write_refused") == 2);
  CHECK(p.a->tx_window() == 4);  // the window never moves
  // ECN echoes cannot shrink a static window.
  efcp::Pci ack;
  ack.type = efcp::PduType::ack;
  ack.flags = efcp::kFlagEcnEcho;
  ack.seq = 2;
  ack.dest_cep = 1;
  ack.src_cep = 2;
  p.a->on_pdu(ack, BytesView{});
  CHECK(p.a->tx_window() == 4);
  CHECK(p.a->stats().get("cwnd_backoffs") == 0);
}

// ---- rate_based pacing ----

static void rate_based_paces_transmissions() {
  efcp::EfcpPolicies pol;
  CHECK(pol.set_tx_policy("rate_based").ok());
  pol.rate_pps = 1000.0;   // one PDU per millisecond
  pol.bucket_pdus = 1.0;   // no burst allowance
  Pair p{pol};
  for (int i = 0; i < 20; ++i)
    CHECK(p.a->write_sdu(BytesView{to_bytes("r" + std::to_string(i))}).ok());
  // The burst is accepted into the send queue, not onto the wire.
  CHECK(p.a->inflight() <= 1);
  CHECK(p.a->queued() >= 19);
  // Writes that land while older SDUs still wait in the send queue must
  // not jump the pacing queue, even when a token has matured meanwhile
  // (write order is delivery order).
  p.sched.run_for(SimTime::from_ms(3));
  for (int i = 20; i < 24; ++i)
    CHECK(p.a->write_sdu(BytesView{to_bytes("r" + std::to_string(i))}).ok());
  p.sched.run();
  CHECK(p.delivered.size() == 24);
  for (int i = 0; i < 24; ++i)
    CHECK(p.delivered[static_cast<std::size_t>(i)] == "r" + std::to_string(i));
  // 24 PDUs through a 1-deep bucket at 1000 pps: at least 23 token
  // maturation intervals of simulated time must have elapsed.
  CHECK(p.sched.now().ns >= SimTime::from_ms(23).ns);
}

// ---- RMT egress queues: bounds, discipline, accounting ----

static void egress_queue_bounds_and_accounting() {
  relay::EgressQueues q;
  relay::EgressQueues::Config cfg;
  cfg.sched = relay::RmtSched::fifo;
  cfg.capacity_pdus = 4;
  cfg.mark_threshold = 3;
  q.configure(cfg);

  auto frame = [](char c) {
    Bytes b(8, static_cast<std::uint8_t>(c));
    return Packet::with_headroom(0, BytesView{b});
  };

  // Under fifo every class shares one bounded queue.
  int dropped = 0;
  for (int i = 0; i < 6; ++i) {
    Packet f = frame(static_cast<char>('a' + i));
    if (!q.push(static_cast<std::uint8_t>(i % 3), f)) ++dropped;
  }
  CHECK(dropped == 2);  // capacity 4: the 5th and 6th are refused
  CHECK(q.depth(0) == 4);  // fifo: every class is the one shared queue
  CHECK(q.depth(2) == 4);
  CHECK(q.size() == 4);
  CHECK(q.peak() == 4);
  CHECK(q.should_mark(0));  // depth 4 >= threshold 3
  // FIFO drain order.
  CHECK(q.front().frame.view()[0] == 'a');
  q.pop();
  CHECK(q.front().frame.view()[0] == 'b');
  q.pop();
  q.pop();
  CHECK(!q.should_mark(0));  // depth 1 < threshold
  q.pop();
  CHECK(q.empty());
  CHECK(q.peak() == 4);  // the high-water mark survives the drain

  // Under priority each class is bounded independently and the most
  // urgent non-empty class drains first.
  relay::EgressQueues pq;
  cfg.sched = relay::RmtSched::priority;
  cfg.capacity_pdus = 2;
  cfg.mark_threshold = 0;  // marking off
  pq.configure(cfg);
  int refused[7] = {};
  for (int round = 0; round < 3; ++round) {
    for (std::uint8_t prio : {std::uint8_t{6}, std::uint8_t{0}, std::uint8_t{2}}) {
      Packet f = frame(static_cast<char>('0' + prio));
      if (!pq.push(prio, f)) ++refused[prio];
    }
  }
  // 3 pushes per class into 2-deep class queues: one refusal per class,
  // in the last round.
  CHECK(pq.size() == 6);
  CHECK(pq.depth(0) == 2);
  CHECK(pq.depth(2) == 2);
  CHECK(pq.depth(6) == 2);
  CHECK(refused[0] == 1);
  CHECK(refused[2] == 1);
  CHECK(refused[6] == 1);
  CHECK(!pq.should_mark(0));  // threshold 0 = marking disabled
  std::string order;
  while (!pq.empty()) {
    order.push_back(static_cast<char>(pq.front().frame.view()[0]));
    pq.pop();
  }
  CHECK(order == "002266");  // strict priority, FIFO within class
}

// ---- the scoped-ECN loop end to end through a real DIF ----

static void ecn_marks_past_threshold_and_sender_backs_off() {
  node::Network net(4242);
  node::LinkOpts slow;
  slow.rate_bps = 4e6;  // 4 Mb/s: ~2 ms per 1000-byte SDU
  slow.delay = SimTime::from_us(200);
  slow.queue_pkts = 8;  // shallow NIC: queueing lands in the RMT
  net.add_link("a", "b", slow);

  node::DifSpec spec;
  spec.cfg.name = naming::DifName{"cc"};
  spec.members = {"a", "b"};
  flow::QosCube aimd;
  aimd.id = 0;
  aimd.name = "aimd";
  aimd.dtcp_policy = "aimd_ecn";
  spec.cfg.cubes = {aimd};
  spec.cfg.rmt_ecn_threshold = 8;
  CHECK(net.build_link_dif(std::move(spec)).ok());

  std::uint64_t delivered = 0;
  CHECK(net.node("b")
            .register_app(naming::AppName("sink"), naming::DifName{"cc"},
                          [&delivered](flow::Flow f) {
                            f.on_readable([&delivered](flow::Flow& fl) {
                              while (fl.read()) ++delivered;
                            });
                          })
            .ok());
  net.run_for(SimTime::from_ms(60));

  flow::Flow f = net.node("a").allocate_flow(naming::AppName("src"),
                                             naming::AppName("sink"),
                                             flow::QosSpec::reliable_default());
  net.run_until([&] { return !f.is_allocating(); }, SimTime::from_sec(5));
  CHECK(f.is_open());
  flow::PortId port = f.port();

  // Blast well past the link rate so the RMT class queue crosses the
  // marking threshold. Saturation surfaces as typed would_block on the
  // handle — app-visible backpressure, not silent queueing.
  Bytes payload(1000, 0xAB);
  std::uint64_t accepted = 0, blocked = 0;
  for (int burst = 0; burst < 40; ++burst) {
    for (int i = 0; i < 16; ++i) {
      auto w = f.write(BytesView{payload});
      if (w.ok()) {
        ++accepted;
      } else {
        CHECK(w.error().code == Err::would_block);
        ++blocked;
      }
    }
    net.run_for(SimTime::from_ms(2));
  }
  net.run_for(SimTime::from_sec(5));
  CHECK(blocked > 0);

  naming::DifName cc{"cc"};
  CHECK(net.sum_dif_counter(cc, "ecn_marked") > 0);    // RMT set the bit
  CHECK(net.sum_dif_counter(cc, "ecn_rx") > 0);        // receiver saw it
  CHECK(net.sum_dif_counter(cc, "ecn_echoed") > 0);    // ...and echoed it
  CHECK(net.sum_dif_counter(cc, "ecn_echo_rx") > 0);   // sender heard it
  CHECK(net.sum_dif_counter(cc, "cwnd_backoffs") > 0); // ...and backed off
  CHECK(net.max_dif_counter(cc, "rmt_queue_peak") >= 8);
  // Backpressure, not loss: everything accepted was delivered exactly once.
  CHECK(delivered == accepted);
  auto* conn = net.node("a").ipcp(cc)->fa().connection(port);
  CHECK(conn != nullptr);
  CHECK(conn->cwnd() < efcp::EfcpPolicies{}.initial_cwnd * 4);
}

int main() {
  unknown_policy_names_error();
  aimd_window_grows_on_acks();
  aimd_window_halves_on_ecn_echo();
  aimd_cuts_once_per_window_in_flight();
  aimd_does_not_collapse_below_floor();
  static_window_inflight_trace();
  rate_based_paces_transmissions();
  egress_queue_bounds_and_accounting();
  ecn_marks_past_threshold_and_sender_backs_off();
  return TEST_MAIN_RESULT();
}
