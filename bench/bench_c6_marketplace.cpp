// bench_c6_marketplace — §6.6: an ISP that sells IPC (not packets) can
// deliver differentiated service classes, because its DIF allocates the
// resources the classes need (priority scheduling in the RMT, QoS cubes at
// flow allocation). An overlay riding a best-effort provider cannot buy
// that differentiation at any price — the provider's scheduler can't see
// its classes. One congested bottleneck, three customers (gold / silver /
// best-effort), each offering 40% of capacity (aggregate 120%).
#include "common.hpp"

using namespace rina;
using namespace rina::benchx;

namespace {

constexpr double kBottleneckMbps = 30.0;
constexpr std::size_t kSdu = 1000;
const SimTime kDur = SimTime::from_sec(3);

struct ClassCubes {
  static flow::QosCube make(efcp::QosId id, const std::string& name,
                            std::uint8_t priority) {
    flow::QosCube c;
    c.id = id;  // NOTE: the QoS-id doubles as the RMT scheduling class
    c.name = name;
    c.efcp_policy = "unreliable";  // measure raw scheduling, not retx
    c.priority = priority;
    c.reliable = false;
    c.in_order = false;
    return c;
  }
};

struct ClassResult {
  double goodput_mbps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

std::array<ClassResult, 3> run(bool provider_qos) {
  Network net(provider_qos ? 1101 : 1102);
  node::LinkOpts access;
  access.rate_bps = 200e6;
  node::LinkOpts bott;
  bott.rate_bps = kBottleneckMbps * 1e6;
  bott.delay = SimTime::from_ms(1);
  // Keep the "NIC" FIFO shallow: queueing belongs in the RMT, where the
  // scheduler can see classes — a deep FIFO after the scheduler would
  // reintroduce priority inversion.
  bott.queue_pkts = 8;

  const std::array<std::string, 3> klass{"gold", "silver", "besteffort"};
  std::vector<std::string> members{"r1", "r2"};
  for (int i = 0; i < 3; ++i) {
    net.add_link("src" + std::to_string(i), "r1", access);
    net.add_link("r2", "dst" + std::to_string(i), access);
    members.push_back("src" + std::to_string(i));
    members.push_back("dst" + std::to_string(i));
  }
  net.add_link("r1", "r2", bott);

  node::DifSpec provider = mk_dif("isp", members);
  provider.cfg.rmt_sched = relay::RmtSched::priority;
  provider.cfg.cubes = {ClassCubes::make(0, "gold", 0),
                        ClassCubes::make(2, "silver", 2),
                        ClassCubes::make(6, "besteffort", 6)};
  naming::DifName app_dif{"isp"};

  if (provider_qos) {
    if (!net.build_link_dif(provider).ok()) do { std::fprintf(stderr, "C6 abort at line %d\n", __LINE__); std::abort(); } while (0);
  } else {
    // Best-effort-only provider + customer overlay that *claims* classes.
    node::DifSpec be = mk_dif("isp", members);
    be.cfg.cubes = {ClassCubes::make(5, "besteffort", 5)};
    if (!net.build_link_dif(be).ok()) do { std::fprintf(stderr, "C6 abort at line %d\n", __LINE__); std::abort(); } while (0);
    node::DifSpec customer = mk_dif("overlay", members);
    customer.cfg.cubes = provider.cfg.cubes;  // same three "classes"
    std::vector<node::Network::OverlayAdj> adjs;
    flow::QosSpec be_qos = flow::QosSpec::unreliable();
    for (int i = 0; i < 3; ++i) {
      adjs.push_back(
          {"src" + std::to_string(i), "r1", naming::DifName{"isp"}, be_qos});
      adjs.push_back(
          {"r2", "dst" + std::to_string(i), naming::DifName{"isp"}, be_qos});
    }
    adjs.push_back({"r1", "r2", naming::DifName{"isp"}, be_qos});
    if (!net.build_overlay_dif(customer, std::move(adjs)).ok()) do { std::fprintf(stderr, "C6 abort at line %d\n", __LINE__); std::abort(); } while (0);
    app_dif = naming::DifName{"overlay"};
  }

  std::vector<Sink> sinks;
  sinks.reserve(3);
  std::vector<flow::Flow> flows;
  for (int i = 0; i < 3; ++i) {
    sinks.emplace_back(net.sched());
    install_sink(net, "dst" + std::to_string(i),
                 naming::AppName("app" + std::to_string(i)), app_dif,
                 sinks.back());
  }
  for (int i = 0; i < 3; ++i) {
    flow::QosSpec spec;
    spec.cube_hint = klass[static_cast<std::size_t>(i)];
    spec.reliable = false;
    flows.push_back(must_open_flow(net, "src" + std::to_string(i),
                                   naming::AppName("cli" + std::to_string(i)),
                                   naming::AppName("app" + std::to_string(i)),
                                   spec));
  }

  // Aggregate 120% of the bottleneck: 40% per class.
  double pps = 0.4 * kBottleneckMbps * 1e6 / 8.0 / kSdu;
  SimTime gap = SimTime::from_sec(1.0 / pps);
  SimTime end = net.now() + kDur;
  std::uint64_t seq = 0;
  Bytes payload(kSdu, 0x66);
  while (net.now() < end) {
    for (int i = 0; i < 3; ++i) {
      BufWriter w(16);
      w.put_u64(seq++);
      w.put_u64(static_cast<std::uint64_t>(net.now().ns));
      Bytes stamp = std::move(w).take();
      std::copy(stamp.begin(), stamp.end(), payload.begin());
      (void)flows[static_cast<std::size_t>(i)].write(BytesView{payload});
    }
    net.run_for(gap);
  }
  settle(net);

  std::array<ClassResult, 3> out;
  for (int i = 0; i < 3; ++i) {
    auto& s = sinks[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(i)] =
        ClassResult{static_cast<double>(s.unique()) * kSdu * 8.0 /
                        kDur.to_sec() / 1e6,
                    s.delay_ms().p50(), s.delay_ms().p99()};
  }
  return out;
}

}  // namespace

int main() {
  std::printf("C6 — §6.6 marketplace: selling IPC service classes "
              "(bottleneck %.0f Mb/s, offered 120%%)\n",
              kBottleneckMbps);
  TablePrinter t({"provider", "class", "goodput (Mb/s)", "delay p50 (ms)",
                  "delay p99 (ms)"});
  const std::array<std::string, 3> klass{"gold", "silver", "best-effort"};
  auto qos = run(true);
  auto be = run(false);
  for (int i = 0; i < 3; ++i) {
    auto& r = qos[static_cast<std::size_t>(i)];
    t.add_row({"ISP sells IPC (QoS cubes)", klass[static_cast<std::size_t>(i)],
               TablePrinter::num(r.goodput_mbps, 1), TablePrinter::num(r.p50_ms, 2),
               TablePrinter::num(r.p99_ms, 2)});
  }
  for (int i = 0; i < 3; ++i) {
    auto& r = be[static_cast<std::size_t>(i)];
    t.add_row({"best-effort + overlay", klass[static_cast<std::size_t>(i)],
               TablePrinter::num(r.goodput_mbps, 1), TablePrinter::num(r.p50_ms, 2),
               TablePrinter::num(r.p99_ms, 2)});
  }
  t.print("C6 class differentiation under congestion");
  std::printf(
      "\nExpected shape: with QoS cubes the gold class keeps its goodput and\n"
      "low delay through the congestion (strict priority at the RMT), the\n"
      "best-effort class absorbs the loss. Over a best-effort provider the\n"
      "overlay's three 'classes' are indistinguishable — the Transport-\n"
      "Layer seal the paper describes (§6.6).\n");
  return 0;
}
