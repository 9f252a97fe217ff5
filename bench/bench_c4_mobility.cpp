// bench_c4_mobility — §6.4: sustained mobility. The mobile ping-pongs
// between two access networks every `interval` while a correspondent
// streams to it. Two architectures under the same movement pattern:
//
//   RINA       — mobility = dynamic multihoming: leave the old access DIF,
//                enroll in the new one, one hello in the host DIF; the
//                address the correspondent uses never changes.
//   Mobile-IP  — registration signaling crosses the wide area to the home
//                agent every handoff, and every delivered packet detours
//                through the home agent (triangle routing) forever.
//
// Metrics per handoff cadence: delivered %, mean outage, signaling
// messages per handoff, steady-state delivery delay (path stretch).
#include "baseline/middlebox.hpp"
#include "baseline/net.hpp"
#include "common.hpp"

using namespace rina;
using namespace rina::benchx;

namespace {

constexpr double kPps = 100.0;
constexpr int kHandoffs = 4;

struct Out {
  double delivered_pct = 0;
  double mean_outage_ms = 0;
  double signaling_per_handoff = 0;
  double steady_delay_ms = 0;
};

Out run_rina(SimTime interval) {
  Network net(701);
  net.add_link("gw1", "bs1");
  net.add_link("M", "bs1");
  if (!net.build_link_dif(mk_dif("acc1", {"gw1", "bs1", "M"})).ok()) do { std::fprintf(stderr, "ABORT at %s:%d\n", __FILE__, __LINE__); std::fflush(nullptr); std::abort(); } while(0);
  net.add_link("gw2", "bs2");
  if (!net.build_link_dif(mk_dif("acc2", {"gw2", "bs2"})).ok()) do { std::fprintf(stderr, "ABORT at %s:%d\n", __FILE__, __LINE__); std::fflush(nullptr); std::abort(); } while(0);
  net.add_link("M", "bs2");
  net.add_link("S", "gw1");
  net.add_link("S", "gw2");
  if (!net.build_link_dif(mk_dif("core", {"S", "gw1", "gw2"})).ok()) do { std::fprintf(stderr, "ABORT at %s:%d\n", __FILE__, __LINE__); std::fflush(nullptr); std::abort(); } while(0);

  node::DifSpec top = mk_dif("top", {"S", "gw1", "gw2", "M"});
  top.cfg.keepalive_enabled = true;
  top.cfg.keepalive_interval = SimTime::from_ms(50);
  if (!net.build_overlay_dif(top, {{"S", "gw1", naming::DifName{"core"}, {}},
                                   {"S", "gw2", naming::DifName{"core"}, {}},
                                   {"M", "gw1", naming::DifName{"acc1"}, {}}})
           .ok())
    do { std::fprintf(stderr, "ABORT at %s:%d\n", __FILE__, __LINE__); std::fflush(nullptr); std::abort(); } while(0);
  if (!net.register_overlay_member(naming::DifName{"top"}, "gw2",
                                   naming::DifName{"acc2"})
           .ok())
    do { std::fprintf(stderr, "ABORT at %s:%d\n", __FILE__, __LINE__); std::fflush(nullptr); std::abort(); } while(0);

  Sink sink(net.sched());
  install_sink(net, "M", naming::AppName("mob"), naming::DifName{"top"}, sink);
  auto f = must_open_flow(net, "S", naming::AppName("srv"),
                          naming::AppName("mob"),
                          flow::QosSpec::reliable_default());

  std::uint64_t signaling_before =
      net.sum_dif_counter(naming::DifName{"top"}, "lsus_originated") +
      net.sum_dif_counter(naming::DifName{"top"}, "hellos_sent") +
      net.sum_dif_counter(naming::DifName{"acc1"}, "join_requests_sent") +
      net.sum_dif_counter(naming::DifName{"acc2"}, "join_requests_sent");

  Histogram outage;
  std::uint64_t offered = 0, seq = 0;
  bool at_acc1 = true;
  Bytes payload(200, 0);

  auto drive = [&](SimTime dur) {
    SimTime end = net.now() + dur;
    while (net.now() < end) {
      BufWriter w(16);
      w.put_u64(seq++);
      w.put_u64(static_cast<std::uint64_t>(net.now().ns));
      Bytes stamp = std::move(w).take();
      std::copy(stamp.begin(), stamp.end(), payload.begin());
      ++offered;
      (void)f.write(BytesView{payload});
      net.run_for(SimTime::from_sec(1.0 / kPps));
    }
  };

  drive(interval);
  for (int h = 0; h < kHandoffs; ++h) {
    const char* from_bs = at_acc1 ? "bs1" : "bs2";
    const char* to_bs = at_acc1 ? "bs2" : "bs1";
    const char* to_acc = at_acc1 ? "acc2" : "acc1";
    const char* to_gw = at_acc1 ? "gw2" : "gw1";
    auto* m_old = net.node("M").ipcp(naming::DifName{at_acc1 ? "acc1" : "acc2"});

    // Make-before-break: mobility IS dynamic multihoming (§6.4) — the new
    // attachment comes up while the old signal is still alive, so the top
    // DIF is briefly dual-homed and reroutes with no coverage gap.
    auto die = [&](const char* what) {
      std::fprintf(stderr, "C4 RINA handoff %d failed: %s\n", h, what);
      std::exit(1);
    };
    if (!net.set_link_state("M", to_bs, true).ok()) die("link up");
    if (!net.attach_via_link(naming::DifName{to_acc}, "M", to_bs).ok())
      die("attach");
    if (!net.register_overlay_member(naming::DifName{"top"}, "M",
                                     naming::DifName{to_acc})
             .ok())
      die("register");
    if (!net.connect_overlay_members(naming::DifName{"top"},
                                     {"M", to_gw, naming::DifName{to_acc}, {}})
             .ok())
      die("hello");

    // The old radio fades out; measure the delivery gap that causes.
    std::uint64_t before = sink.unique();
    SimTime t0 = net.now();
    m_old->leave(/*teardown_flows=*/true);  // controlled departure
    net.run_for(SimTime::from_ms(2));       // the goodbye crosses the link
    (void)net.set_link_state("M", from_bs, false);
    at_acc1 = !at_acc1;
    SimTime resume_deadline = net.now() + interval;
    drive(SimTime::from_ms(10));
    while (sink.unique() == before && net.now() < resume_deadline)
      drive(SimTime::from_ms(10));
    outage.add((net.now() - t0).to_ms());
    drive(resume_deadline - net.now());
  }
  settle(net);

  std::uint64_t signaling_after =
      net.sum_dif_counter(naming::DifName{"top"}, "lsus_originated") +
      net.sum_dif_counter(naming::DifName{"top"}, "hellos_sent") +
      net.sum_dif_counter(naming::DifName{"acc1"}, "join_requests_sent") +
      net.sum_dif_counter(naming::DifName{"acc2"}, "join_requests_sent");

  Out out;
  out.delivered_pct =
      100.0 * static_cast<double>(sink.unique()) / static_cast<double>(offered);
  out.mean_outage_ms = outage.mean();
  out.signaling_per_handoff =
      static_cast<double>(signaling_after - signaling_before) / kHandoffs;
  out.steady_delay_ms = sink.delay_ms().p50();
  return out;
}

Out run_mobile_ip(SimTime interval) {
  using namespace rina::baseline;
  BaselineNet net(702);
  auto [cn_addr, _1] = net.add_link("cn", "r_core");
  net.add_link("r_core", "home_r");
  net.add_link("r_core", "v1");
  net.add_link("r_core", "v2");
  auto [_2, home_addr] = net.add_link("home_r", "home_stub");
  auto [fa1, _3] = net.add_link("v1", "mobile");
  auto [fa2, _4] = net.add_link("v2", "mobile");
  (void)_1;
  (void)_2;
  (void)_3;
  (void)_4;
  net.enable_routing();
  (void)net.set_link_state("v2", "mobile", false);

  net.node("mobile").add_alias(home_addr);
  HomeAgent ha(net.node("home_r"), home_addr);
  ForeignAgent fa_v1(net.node("v1"));
  ForeignAgent fa_v2(net.node("v2"));
  MobileClient mc(net.node("mobile"), home_addr);
  IpAddr ha_addr = net.node("home_r").primary_addr();

  std::uint64_t delivered = 0;
  Histogram delay_ms;
  std::vector<bool> seen;
  net.node("mobile").register_proto(
      kProtoUdp, [&](const IpHeader&, BytesView p, int) {
        BufReader r(p);
        std::uint64_t s = r.get_u64();
        auto sent = static_cast<std::int64_t>(r.get_u64());
        if (seen.size() <= s) seen.resize(s + 1, false);
        if (seen[s]) return;
        seen[s] = true;
        ++delivered;
        delay_ms.add((net.now() - SimTime{sent}).to_ms());
      });

  bool registered = false;
  mc.register_with(fa1, ha_addr, [&] { registered = true; });
  net.run_until([&] { return registered; }, SimTime::from_sec(2));

  std::uint64_t offered = 0, seq = 0;
  auto drive = [&](SimTime dur) {
    SimTime end = net.now() + dur;
    while (net.now() < end) {
      std::uint8_t stamp[16];
      store_be64(stamp, seq++);
      store_be64(stamp + 8, static_cast<std::uint64_t>(net.now().ns));
      IpHeader h;
      h.src = cn_addr;
      h.dst = home_addr;
      h.proto = kProtoUdp;
      ++offered;
      (void)net.node("cn").ip_send(
          h, Packet::with_headroom(kDefaultHeadroom, BytesView{stamp, sizeof stamp}));
      net.run_for(SimTime::from_sec(1.0 / kPps));
    }
  };

  Histogram outage;
  bool at_v1 = true;
  drive(interval);
  for (int h = 0; h < kHandoffs; ++h) {
    std::uint64_t before = delivered;
    SimTime t0 = net.now();
    (void)net.set_link_state(at_v1 ? "v1" : "v2", "mobile", false);
    (void)net.set_link_state(at_v1 ? "v2" : "v1", "mobile", true);
    bool acked = false;
    mc.register_with(at_v1 ? fa2 : fa1, ha_addr, [&] { acked = true; });
    at_v1 = !at_v1;
    SimTime resume_deadline = net.now() + interval;
    while (delivered == before && net.now() < resume_deadline)
      drive(SimTime::from_ms(10));
    outage.add((net.now() - t0).to_ms());
    drive(resume_deadline - net.now());
  }
  net.run_for(SimTime::from_sec(1));

  Out out;
  out.delivered_pct =
      100.0 * static_cast<double>(delivered) / static_cast<double>(offered);
  out.mean_outage_ms = outage.mean();
  // Registration legs: request, relay-to-HA, HA ack, ack-relay — and the
  // relay/ack legs cross the wide area to the home agent every time.
  std::uint64_t legs = mc.stats().get("registrations_sent") +
                       fa_v1.stats().get("mobiles_attached") +
                       fa_v2.stats().get("mobiles_attached") +
                       ha.stats().get("registrations") + mc.stats().get("acks");
  out.signaling_per_handoff = static_cast<double>(legs) / (kHandoffs + 1);
  out.steady_delay_ms = delay_ms.p50();
  return out;
}

}  // namespace

int main() {
  std::printf("C4 — §6.4 mobility under sustained movement (%d handoffs)\n",
              kHandoffs);
  TablePrinter t({"handoff interval", "architecture", "delivered %",
                  "mean outage (ms)", "signaling / handoff",
                  "steady delay p50 (ms)"});
  for (double sec : {2.0, 1.0}) {
    SimTime iv = SimTime::from_sec(sec);
    Out r = run_rina(iv);
    Out m = run_mobile_ip(iv);
    std::string label = TablePrinter::num(sec, 1) + " s";
    t.add_row({label, "RINA (dynamic multihoming)",
               TablePrinter::num(r.delivered_pct, 1),
               TablePrinter::num(r.mean_outage_ms, 1),
               TablePrinter::num(r.signaling_per_handoff, 1),
               TablePrinter::num(r.steady_delay_ms, 3)});
    t.add_row({label, "baseline Mobile-IP",
               TablePrinter::num(m.delivered_pct, 1),
               TablePrinter::num(m.mean_outage_ms, 1),
               TablePrinter::num(m.signaling_per_handoff, 1),
               TablePrinter::num(m.steady_delay_ms, 3)});
  }
  t.print("C4 sustained mobility: RINA vs Mobile-IP");
  std::printf(
      "\nExpected shape: RINA's handoff cost stays local (no home-agent\n"
      "round trip) and its steady-state delay is the direct path; Mobile-IP\n"
      "pays wide-area registration signaling every handoff AND permanent\n"
      "triangle-routing stretch on every delivered packet. RINA loses less\n"
      "as handoffs become more frequent (reliable EFCP recovers the gap).\n");
  return 0;
}
