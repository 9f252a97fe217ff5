// bench_c2_utilization — §6.2 / intro claim 5: scoping resource management
// lets subnetworks run at high utilization, instead of the over-provisioned
// 30-40% the best-effort Internet needs. A classic dumbbell:
//
//   h1,h2,h3 -- r1 ===bottleneck=== r2 -- s1,s2,s3
//
// Three arrangements under the same offered-load sweep, from below the
// congestion knee to 2x past it:
//   baseline TCP   — go-back-N with classic end-to-end AIMD-on-loss over
//                    best-effort IP: the only congestion signal is a drop
//                    at the bottleneck, paid for with a window of
//                    retransmissions across the whole path;
//   RINA flat      — one DIF, end-to-end static-window EFCP (ablation);
//   RINA scoped    — a bottleneck-segment DIF whose RMT marks ECN past a
//                    queue threshold and whose EFCP runs the aimd_ecn
//                    DTCP policy: congestion is detected and resolved
//                    *inside the segment DIF*; upper DIFs only ever see
//                    backpressure.
//
// Metrics: bottleneck goodput as % of capacity, wasted bottleneck frames
// (transmissions that were not new deliveries), retransmissions, peak RMT
// queue depth at the congested DIF, p99 delivery delay.
//
// Set RINA_BENCH_JSON=<path> to also emit the table as a JSON array (the
// CI perf-smoke artifact).
#include "baseline/net.hpp"
#include "common.hpp"

using namespace rina;
using namespace rina::benchx;

namespace {

constexpr double kBottleneckMbps = 30.0;
constexpr double kAccessMbps = 200.0;
constexpr std::size_t kSdu = 1000;
constexpr int kFlows = 3;

/// Loaded-window duration, honoring RINA_BENCH_DURATION_SCALE; capacity
/// is computed over the same window, so the table keeps its meaning in
/// scaled CI smoke runs (modulo startup transients).
SimTime load_dur() { return SimTime::from_sec(3.0 * duration_scale()); }

struct Out {
  double goodput_pct = 0;   // of bottleneck capacity
  double waste_pct = 0;     // extra bottleneck frames beyond unique payloads
  std::uint64_t retx = 0;   // retransmissions (all layers)
  std::uint64_t queue_peak = 0;  // peak RMT egress depth, congested DIF
  double p99_ms = 0;
};

double capacity_sdus() {
  return kBottleneckMbps * 1e6 / 8.0 / kSdu * load_dur().to_sec();
}

/// Drive kFlows CBR sources at `frac` of bottleneck capacity (aggregate).
template <typename WriteFn>
std::uint64_t drive_flows(sim::Scheduler& sched, double frac, WriteFn&& write_i) {
  double total_pps = frac * kBottleneckMbps * 1e6 / 8.0 / kSdu;
  double pps = total_pps / kFlows;
  SimTime gap = SimTime::from_sec(1.0 / pps);
  SimTime end = sched.now() + load_dur();
  std::uint64_t offered = 0, seq = 0;
  Bytes payload(kSdu, 0xEE);
  while (sched.now() < end) {
    for (int i = 0; i < kFlows; ++i) {
      BufWriter w(16);
      w.put_u64(seq++);
      w.put_u64(static_cast<std::uint64_t>(sched.now().ns));
      Bytes stamp = std::move(w).take();
      std::copy(stamp.begin(), stamp.end(), payload.begin());
      ++offered;
      write_i(i, payload);
    }
    sched.run_until(sched.now() + gap);
  }
  return offered;
}

Out run_rina(bool scoped, double frac) {
  Network net(scoped ? 902 : 901);
  node::LinkOpts access;
  access.rate_bps = kAccessMbps * 1e6;
  node::LinkOpts bottleneck;
  bottleneck.rate_bps = kBottleneckMbps * 1e6;
  bottleneck.delay = SimTime::from_ms(2);

  std::vector<std::string> members{"r1", "r2"};
  for (int i = 1; i <= kFlows; ++i) {
    net.add_link("h" + std::to_string(i), "r1", access);
    net.add_link("r2", "s" + std::to_string(i), access);
    members.push_back("h" + std::to_string(i));
    members.push_back("s" + std::to_string(i));
  }
  net.add_link("r1", "r2", bottleneck);

  naming::DifName app_dif;
  naming::DifName congested_dif;
  std::vector<naming::DifName> all_difs;
  if (!scoped) {
    if (!net.build_link_dif(mk_dif("flat", members)).ok()) std::abort();
    app_dif = naming::DifName{"flat"};
    congested_dif = app_dif;
    all_difs = {app_dif};
  } else {
    // The bottleneck segment gets its own DIF: its RMT marks ECN once the
    // egress class queue passes the threshold, and its EFCP runs the
    // aimd_ecn DTCP policy — detection and reaction both scoped to the
    // segment. Everything else is per-side access DIFs; the e2e DIF
    // rides on top and only ever sees backpressure.
    std::vector<std::string> left{"r1"}, right{"r2"};
    for (int i = 1; i <= kFlows; ++i) {
      left.push_back("h" + std::to_string(i));
      right.push_back("s" + std::to_string(i));
    }
    if (!net.build_link_dif(mk_dif("left", left)).ok()) std::abort();
    if (!net.build_link_dif(mk_dif("right", right)).ok()) std::abort();
    node::DifSpec seg = mk_dif("seg", {"r1", "r2"});
    flow::QosCube aimd;
    aimd.id = 0;
    aimd.name = "aimd";
    aimd.efcp_policy = "reliable";
    aimd.dtcp_policy = "aimd_ecn";
    aimd.reliable = true;
    aimd.in_order = true;
    seg.cfg.cubes = {aimd};
    seg.cfg.rmt_ecn_threshold = 48;
    if (!net.build_link_dif(std::move(seg)).ok()) std::abort();
    std::vector<node::Network::OverlayAdj> adjs;
    flow::QosSpec seg_qos;  // reliable + aimd_ecn: the backpressure source
    seg_qos.reliable = true;
    adjs.push_back({"r1", "r2", naming::DifName{"seg"}, seg_qos});
    for (int i = 1; i <= kFlows; ++i) {
      adjs.push_back({"h" + std::to_string(i), "r1", naming::DifName{"left"}, {}});
      adjs.push_back({"r2", "s" + std::to_string(i), naming::DifName{"right"}, {}});
    }
    if (!net.build_overlay_dif(mk_dif("e2e", members), std::move(adjs)).ok())
      std::abort();
    app_dif = naming::DifName{"e2e"};
    congested_dif = naming::DifName{"seg"};
    all_difs = {naming::DifName{"left"}, naming::DifName{"right"},
                congested_dif, app_dif};
  }

  std::vector<Sink> sinks;
  sinks.reserve(kFlows);
  std::vector<flow::Flow> flows;
  for (int i = 1; i <= kFlows; ++i) {
    sinks.emplace_back(net.sched());
    install_sink(net, "s" + std::to_string(i),
                 naming::AppName("sink" + std::to_string(i)), app_dif,
                 sinks.back());
  }
  for (int i = 1; i <= kFlows; ++i)
    flows.push_back(must_open_flow(net, "h" + std::to_string(i),
                                   naming::AppName("src" + std::to_string(i)),
                                   naming::AppName("sink" + std::to_string(i)),
                                   flow::QosSpec::reliable_default()));

  sim::Link* bott = net.link_between("r1", "r2");
  std::uint64_t frames_before = bott->counter("tx_frames_large");

  drive_flows(net.sched(), frac, [&](int i, const Bytes& p) {
    (void)flows[static_cast<std::size_t>(i)].write(BytesView{p});
  });
  // Goodput is measured over the loaded window only.
  std::uint64_t unique = 0;
  for (auto& s : sinks) unique += s.unique();
  std::uint64_t frames = bott->counter("tx_frames_large") - frames_before;
  settle(net, SimTime::from_sec(3));

  Histogram delays;
  for (auto& s : sinks) delays.add(s.delay_ms().p99());

  Out out;
  out.goodput_pct = 100.0 * static_cast<double>(unique) / capacity_sdus();
  out.waste_pct = frames > unique
                      ? 100.0 * static_cast<double>(frames - unique) /
                            static_cast<double>(frames)
                      : 0.0;
  for (const auto& d : all_difs) out.retx += net.sum_dif_counter(d, "pdus_retx");
  out.queue_peak = net.max_dif_counter(congested_dif, "rmt_queue_peak");
  out.p99_ms = delays.max();
  return out;
}

Out run_baseline(double frac) {
  using namespace rina::baseline;
  BaselineNet net(903);
  BLinkOpts access;
  access.rate_bps = kAccessMbps * 1e6;
  BLinkOpts bott;
  bott.rate_bps = kBottleneckMbps * 1e6;
  bott.delay = SimTime::from_ms(2);
  bott.queue_pkts = 64;  // classic shallow drop-tail bottleneck buffer

  std::vector<IpAddr> sink_addrs;
  for (int i = 1; i <= kFlows; ++i) {
    net.add_link("h" + std::to_string(i), "r1", access);
    auto [_, s] = net.add_link("r2", "s" + std::to_string(i), access);
    (void)_;
    sink_addrs.push_back(s);
  }
  net.add_link("r1", "r2", bott);
  net.enable_routing();

  std::uint64_t unique = 0;
  Histogram delay_ms;
  std::vector<SockId> socks(kFlows);
  int connected = 0;
  for (int i = 1; i <= kFlows; ++i) {
    auto& srv = net.transport("s" + std::to_string(i));
    (void)srv.listen(80, [&, i](SockId s) {
      auto& srv2 = net.transport("s" + std::to_string(i));
      srv2.set_on_data(s, [&](SockId, Bytes&& b) {
        BufReader r(BytesView{b});
        r.get_u64();
        auto sent = static_cast<std::int64_t>(r.get_u64());
        if (r.ok()) {
          ++unique;  // go-back-N receiver is duplicate-free by construction
          delay_ms.add((net.sched().now() - SimTime{sent}).to_ms());
        }
      });
    });
    auto& cli = net.transport("h" + std::to_string(i));
    socks[static_cast<std::size_t>(i - 1)] =
        cli.connect(sink_addrs[static_cast<std::size_t>(i - 1)], 80, {},
                    [&](const Result<SockId>& r) {
                      if (r.ok()) ++connected;
                    });
  }
  net.run_until([&] { return connected == kFlows; }, SimTime::from_sec(5));

  drive_flows(net.sched(), frac, [&](int i, const Bytes& p) {
    (void)net.transport("h" + std::to_string(i + 1))
        .send(socks[static_cast<std::size_t>(i)], BytesView{p});
  });
  std::uint64_t unique_window = unique;  // deliveries inside the loaded window
  net.run_for(SimTime::from_sec(3.0 * duration_scale()));

  std::uint64_t retx = 0;
  for (int i = 1; i <= kFlows; ++i)
    retx += net.transport("h" + std::to_string(i)).stats().get("retx");

  Out out;
  out.goodput_pct = 100.0 * static_cast<double>(unique_window) / capacity_sdus();
  std::uint64_t sent = unique + retx;
  out.waste_pct =
      sent > 0 ? 100.0 * static_cast<double>(retx) / static_cast<double>(sent) : 0;
  out.retx = retx;
  out.queue_peak = 0;  // no RMT below the baseline transport — NIC FIFO only
  out.p99_ms = delay_ms.p99();
  return out;
}

struct Row {
  double load = 0;
  std::string arrangement;
  Out out;
};

void emit_json(const std::vector<Row>& rows) {
  const char* path = std::getenv("RINA_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "RINA_BENCH_JSON: cannot open %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"c2_utilization\",\n");
  std::fprintf(f, "  \"duration_scale\": %g,\n  \"rows\": [\n",
               duration_scale());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"load\": %.2f, \"arrangement\": \"%s\", "
                 "\"goodput_pct\": %.2f, \"waste_pct\": %.2f, "
                 "\"retx\": %llu, \"rmt_queue_peak\": %llu, "
                 "\"p99_ms\": %.3f}%s\n",
                 r.load, r.arrangement.c_str(), r.out.goodput_pct,
                 r.out.waste_pct,
                 static_cast<unsigned long long>(r.out.retx),
                 static_cast<unsigned long long>(r.out.queue_peak),
                 r.out.p99_ms, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main() {
  std::printf("C2 — utilization on a congested bottleneck (capacity %.0f Mb/s)\n",
              kBottleneckMbps);
  TablePrinter t({"offered load", "arrangement", "goodput (% capacity)",
                  "wasted transmissions %", "retx", "rmt queue peak",
                  "delay p99 (ms)"});
  std::vector<Row> rows;
  auto add = [&](double frac, const std::string& name, const Out& o) {
    rows.push_back({frac, name, o});
    t.add_row({TablePrinter::num(frac * 100, 0) + "%", name,
               TablePrinter::num(o.goodput_pct, 1),
               TablePrinter::num(o.waste_pct, 1),
               std::to_string(o.retx),
               std::to_string(o.queue_peak),
               TablePrinter::num(o.p99_ms, 1)});
  };
  for (double frac : {0.5, 0.8, 0.95, 1.2, 1.6, 2.0}) {
    add(frac, "baseline TCP (AIMD on loss)", run_baseline(frac));
    add(frac, "RINA flat (ablation)", run_rina(false, frac));
    add(frac, "RINA scoped (seg DIF, ECN)", run_rina(true, frac));
  }
  t.print("C2 bottleneck utilization load sweep");
  std::printf(
      "\nExpected shape: past the congestion knee (>=100%% offered) the\n"
      "baseline oscillates — every bottleneck drop collapses a sender's\n"
      "window and burns a go-back-N burst of retransmissions across the\n"
      "whole path (goodput sags below capacity; the over-provisioning\n"
      "argument). The scoped arrangement holds goodput at ~capacity with\n"
      "near-zero retransmissions: the segment DIF's RMT marks ECN at its\n"
      "own queue, its aimd_ecn EFCP backs off within the segment, and\n"
      "upper DIFs see backpressure instead of loss.\n");
  emit_json(rows);
  return 0;
}
