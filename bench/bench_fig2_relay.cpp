// bench_fig2_relay — Figure 2: two hosts through a dedicated relaying
// system (router), comparing the flat single-DIF arrangement against the
// paper's two-level arrangement (per-hop lower DIFs + a host-to-host DIF
// whose relaying application runs in the router). Measures the cost of the
// extra layer (header + EFCP state) and shows it is modest — the price of
// scope isolation.
#include "common.hpp"

using namespace rina;
using namespace rina::benchx;

namespace {

struct RunOut {
  double delivered_mbps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t relayed = 0;
};

RunOut run_one(bool two_level, double frac) {
  const double link_mbps = 100.0;
  const std::size_t sdu = 1000;
  Network net(two_level ? 202 : 201);
  node::LinkOpts opts;
  opts.rate_bps = link_mbps * 1e6;
  opts.delay = SimTime::from_us(200);
  net.add_link("hostA", "router", opts);
  net.add_link("router", "hostB", opts);

  naming::DifName app_dif;
  if (!two_level) {
    if (!net.build_link_dif(mk_dif("net", {"router", "hostA", "hostB"})).ok())
      std::abort();
    app_dif = naming::DifName{"net"};
  } else {
    // Per-hop lower DIFs + host-to-host DIF relayed at the router.
    if (!net.build_link_dif(mk_dif("hopA", {"hostA", "router"})).ok()) std::abort();
    if (!net.build_link_dif(mk_dif("hopB", {"router", "hostB"})).ok()) std::abort();
    node::DifSpec e2e = mk_dif("e2e", {"router", "hostA", "hostB"});
    if (!net.build_overlay_dif(e2e,
                               {{"hostA", "router", naming::DifName{"hopA"}, {}},
                                {"router", "hostB", naming::DifName{"hopB"}, {}}})
             .ok())
      std::abort();
    app_dif = naming::DifName{"e2e"};
  }

  Sink sink(net.sched());
  install_sink(net, "hostB", naming::AppName("server"), app_dif, sink);
  auto f = must_open_flow(net, "hostA", naming::AppName("client"),
                          naming::AppName("server"),
                          flow::QosSpec::reliable_default());

  double pps = frac * link_mbps * 1e6 / 8.0 / static_cast<double>(sdu);
  SimTime dur = SimTime::from_sec(2);
  run_load(net, f, pps, sdu, dur);
  settle(net);

  RunOut out;
  out.delivered_mbps = static_cast<double>(sink.unique()) *
                       static_cast<double>(sdu) * 8.0 / dur.to_sec() / 1e6;
  out.p50_ms = sink.delay_ms().p50();
  out.p99_ms = sink.delay_ms().p99();
  auto* r = net.node("router").ipcp(app_dif);
  if (r != nullptr) out.relayed = r->stats().get("relayed");
  return out;
}

}  // namespace

int main() {
  std::printf("Fig. 2 — hosts through a router: flat DIF vs two-level DIFs\n");
  TablePrinter t({"arrangement", "offered (Mb/s)", "delivered (Mb/s)",
                  "delay p50 (ms)", "delay p99 (ms)", "router relayed PDUs"});
  for (double frac : {0.3, 0.6, 0.9}) {
    for (bool two_level : {false, true}) {
      auto out = run_one(two_level, frac);
      t.add_row({two_level ? "two-level (Fig. 2)" : "flat single DIF",
                 TablePrinter::num(frac * 100.0, 1),
                 TablePrinter::num(out.delivered_mbps, 1),
                 TablePrinter::num(out.p50_ms, 3), TablePrinter::num(out.p99_ms, 3),
                 TablePrinter::integer(out.relayed)});
    }
  }
  t.print("Fig2 relaying through a dedicated system");
  std::printf("\nExpected shape: both arrangements deliver the offered load; "
              "the two-level stack pays a small constant header/delay cost for "
              "scope isolation (application names never enter the hop DIFs).\n");
  return 0;
}
