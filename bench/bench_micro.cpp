// bench_micro — datapath microbenchmarks (google-benchmark).
//
// These calibrate the simulator's building blocks: header codec costs,
// RIEP message costs, SPF (Graph::dijkstra and the unit-cost kernel
// Ipcp runs), two-step FIB lookups, RIB operations, the timing wheel
// under a small and a timer_scale-sized pending set, and a full EFCP
// write→deliver round trip through two wired connections.
//
// The "Encap" section measures the zero-copy SDU datapath: how many
// payload copies one SDU costs end-to-end as DIF stacking depth grows.
// `copies/sdu` comes from rina::packet_counters() — the calling thread's
// Packet copy instrumentation — so the numbers are exact counts, not
// estimates. Zero-copy encap pins copies/sdu at 1 (the edge copy into
// the headroomed buffer) at any depth; the legacy copy-per-layer
// encoding it replaced pays depth+1 copies (one per layer plus the NIC
// tag serialization). BM_EfcpStack shows the same
// invariant through real stacked EFCP connections (retransmit queues,
// acks and all), and BM_RelayForward shows a relay hop adds no copies
// for an exclusively-owned frame (see EXPERIMENTS.md for the aliased
// reliable-flow caveat).
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <chrono>

#include "efcp/connection.hpp"
#include "naming/directory.hpp"
#include "../tests/efcp_stack_harness.hpp"
#include "relay/forwarding.hpp"
#include "rib/riep.hpp"
#include "routing/graph.hpp"
#include "routing/unit_spf.hpp"
#include "sim/scheduler.hpp"

using namespace rina;

static void BM_PciEncode(benchmark::State& state) {
  efcp::Pci pci;
  pci.dest = naming::Address{1, 2};
  pci.src = naming::Address{1, 3};
  pci.seq = 12345;
  Bytes payload(1000, 0xAA);
  for (auto _ : state) {
    efcp::Pdu pdu;
    pdu.pci = pci;
    pdu.payload = Packet::with_headroom(kDefaultHeadroom, BytesView{payload});
    Packet wire = std::move(pdu).encode_packet();
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_PciEncode);

static void BM_PciDecode(benchmark::State& state) {
  efcp::Pdu pdu;
  pdu.pci.seq = 7;
  pdu.payload = Bytes(1000, 0xAA);
  Bytes wire = pdu.encode();
  for (auto _ : state) {
    auto decoded = efcp::Pdu::decode_packet(Packet::with_headroom(0, BytesView{wire}));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_PciDecode);

// ---------------------------------------------------------------- Encap

// Zero-copy encapsulation: one headroomed buffer, each of `depth` DIF
// layers prepends its PCI in place, then the NIC prepends its dif-id
// tag. copies/sdu == 1 (the edge copy) regardless of depth.
static void BM_EncapZeroCopy(benchmark::State& state) {
  auto depth = static_cast<std::size_t>(state.range(0));
  Bytes payload(1000, 0xAA);
  efcp::Pci pci;
  pci.dest = naming::Address{1, 2};
  pci.src = naming::Address{1, 3};
  std::uint64_t sdus = 0;
  packet_counters().reset();
  for (auto _ : state) {
    Packet pkt = Packet::with_headroom(kDefaultHeadroom, BytesView{payload});
    for (std::size_t d = 0; d < depth; ++d) {
      efcp::Pdu pdu;
      pdu.pci = pci;
      pdu.pci.seq = sdus;
      pdu.payload = std::move(pkt);
      pkt = std::move(pdu).encode_packet();
    }
    store_be32(pkt.prepend(4), 7);  // NIC dif-id tag
    ++sdus;
    benchmark::DoNotOptimize(pkt);
  }
  state.counters["copies/sdu"] = benchmark::Counter(
      static_cast<double>(packet_counters().payload_copies) /
      static_cast<double>(sdus ? sdus : 1));
  state.SetLabel("depth " + std::to_string(depth));
}
BENCHMARK(BM_EncapZeroCopy)->Arg(1)->Arg(3)->Arg(6);

// The pre-refactor shape: every layer serializes header + payload into a
// fresh buffer, so copies/sdu == depth+1 (the NIC tag pays one more)
// and the cost is O(depth × size).
static void BM_EncapLegacyCopy(benchmark::State& state) {
  auto depth = static_cast<std::size_t>(state.range(0));
  Bytes payload(1000, 0xAA);
  efcp::Pci pci;
  pci.dest = naming::Address{1, 2};
  pci.src = naming::Address{1, 3};
  std::uint64_t sdus = 0, copies = 0;
  for (auto _ : state) {
    Bytes cur = payload;  // not counted: models the app handing us Bytes
    for (std::size_t d = 0; d < depth; ++d) {
      Bytes next(efcp::kPciBytes + cur.size());
      efcp::write_pci(next.data(), pci, static_cast<std::uint16_t>(cur.size()));
      std::memcpy(next.data() + efcp::kPciBytes, cur.data(), cur.size());
      ++copies;
      cur = std::move(next);
    }
    BufWriter w(4 + cur.size());
    w.put_u32(7);
    w.put_bytes(BytesView{cur});
    ++copies;
    Bytes frame = std::move(w).take();
    ++sdus;
    benchmark::DoNotOptimize(frame);
  }
  state.counters["copies/sdu"] = benchmark::Counter(
      static_cast<double>(copies) / static_cast<double>(sdus ? sdus : 1));
  state.SetLabel("depth " + std::to_string(depth));
}
BENCHMARK(BM_EncapLegacyCopy)->Arg(1)->Arg(3)->Arg(6);

// ---------------------------------------------------------------- Arena

// Steady-state packet churn: acquire a headroomed buffer, let it go,
// repeat. After the first lap, every acquisition should be served from
// the arena free-list (arena_hit_rate -> 1) and every release should
// recycle (arena_return_rate -> 1), so allocs/pkt counts pool traffic,
// not global-allocator traffic. A hit rate well below 1 here means the
// size-class plumbing regressed and the datapath is back to malloc/free
// per PDU.
static void BM_ArenaChurn(benchmark::State& state) {
  auto size = static_cast<std::size_t>(state.range(0));
  Bytes payload(size, 0xAB);
  std::uint64_t pkts = 0;
  packet_counters().reset();
  for (auto _ : state) {
    Packet p = Packet::with_headroom(kDefaultHeadroom, BytesView{payload});
    benchmark::DoNotOptimize(p);
    ++pkts;
  }
  const auto& c = packet_counters();
  double n = static_cast<double>(pkts ? pkts : 1);
  state.counters["allocs/pkt"] =
      benchmark::Counter(static_cast<double>(c.allocs) / n);
  state.counters["arena_hit_rate"] = benchmark::Counter(
      c.allocs ? static_cast<double>(c.arena_hits) / static_cast<double>(c.allocs)
               : 0.0);
  state.counters["arena_return_rate"] = benchmark::Counter(
      c.allocs ? static_cast<double>(c.arena_returns) /
                     static_cast<double>(c.allocs)
               : 0.0);
  state.SetLabel(std::to_string(size) + " B payload");
}
BENCHMARK(BM_ArenaChurn)->Arg(64)->Arg(1000)->Arg(8192);

// A burst that outlives its arena class briefly: hold `depth` packets
// live at once, then release them all. Exercises list growth + reuse
// across a working set, the shape RMT egress queues produce.
static void BM_ArenaBurst(benchmark::State& state) {
  auto depth = static_cast<std::size_t>(state.range(0));
  Bytes payload(1000, 0xAB);
  std::vector<Packet> live;
  live.reserve(depth);
  std::uint64_t pkts = 0;
  packet_counters().reset();
  for (auto _ : state) {
    for (std::size_t i = 0; i < depth; ++i)
      live.push_back(Packet::with_headroom(kDefaultHeadroom, BytesView{payload}));
    pkts += depth;
    live.clear();
  }
  const auto& c = packet_counters();
  state.counters["allocs/pkt"] = benchmark::Counter(
      static_cast<double>(c.allocs) / static_cast<double>(pkts ? pkts : 1));
  state.counters["arena_hit_rate"] = benchmark::Counter(
      c.allocs ? static_cast<double>(c.arena_hits) / static_cast<double>(c.allocs)
               : 0.0);
  state.SetLabel("burst " + std::to_string(depth));
}
BENCHMARK(BM_ArenaBurst)->Arg(16)->Arg(256);

// One relay hop: decode the arriving frame in place, decrement TTL,
// re-encode into the same headroom. The only counted copy per iteration
// is the synthetic frame "arriving" (with_headroom); the relay work
// itself adds zero.
static void BM_RelayForward(benchmark::State& state) {
  efcp::Pdu tmpl;
  tmpl.pci.dest = naming::Address{2, 9};
  tmpl.pci.src = naming::Address{1, 3};
  tmpl.pci.seq = 42;
  tmpl.payload = Bytes(1000, 0xAA);
  Bytes wire = tmpl.encode();
  std::uint64_t frames = 0;
  packet_counters().reset();
  for (auto _ : state) {
    Packet arrived = Packet::with_headroom(32, BytesView{wire});
    auto decoded = efcp::Pdu::decode_packet(std::move(arrived));
    efcp::Pdu& pdu = decoded.value();
    --pdu.pci.ttl;
    Packet out = std::move(pdu).encode_packet();
    ++frames;
    benchmark::DoNotOptimize(out);
  }
  state.counters["extra_copies/frame"] = benchmark::Counter(
      static_cast<double>(packet_counters().payload_copies - frames) /
      static_cast<double>(frames ? frames : 1));
}
BENCHMARK(BM_RelayForward);

// ------------------------------------------------------------- the rest

static void BM_RiepRoundTrip(benchmark::State& state) {
  rib::RiepMessage m;
  m.op = rib::RiepOp::write;
  m.obj_class = rib::ObjClass::sync;
  m.invoke_id = 42;
  m.value.assign(128, 0x55);
  for (auto _ : state) {
    Bytes wire = m.encode();
    auto decoded = rib::RiepMessage::decode(BytesView{wire});
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_RiepRoundTrip);

static void BM_Dijkstra(benchmark::State& state) {
  // Ring of regions with spokes: |V| = regions * (spokes+1).
  auto n = static_cast<std::uint16_t>(state.range(0));
  routing::Graph g;
  for (std::uint16_t r = 0; r < n; ++r) {
    naming::Address border{static_cast<std::uint16_t>(r + 1), 1};
    naming::Address next{static_cast<std::uint16_t>((r + 1) % n + 1), 1};
    g.add_edge(border, next, 1);
    g.add_edge(next, border, 1);
    for (std::uint16_t s = 2; s <= 4; ++s) {
      naming::Address spoke{static_cast<std::uint16_t>(r + 1), s};
      g.add_edge(border, spoke, 1);
      g.add_edge(spoke, border, 1);
    }
  }
  naming::Address src{1, 1};
  for (auto _ : state) {
    auto spf = g.dijkstra(src);
    benchmark::DoNotOptimize(spf);
  }
  state.SetLabel(std::to_string(g.node_count()) + " nodes");
}
BENCHMARK(BM_Dijkstra)->Arg(16)->Arg(64)->Arg(256);

// A ring of stars as link-state records: each region is an anchor and
// per - 1 spokes, the anchors in a ring. per = 4 is BM_Dijkstra's graph,
// 12 x 20 is control_churn's 240-member DIF and 12 x 84 is c9's
// 1008-member one. With `flapped`, the ring link between the anchors of
// regions n/2 and n/2 + 1 is down.
static std::map<naming::Address, std::vector<naming::Address>> ring_of_stars(
    std::uint16_t n, std::uint16_t per, bool flapped = false) {
  std::map<naming::Address, std::vector<naming::Address>> adj;
  auto link = [&](naming::Address a, naming::Address b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  for (std::uint16_t r = 0; r < n; ++r) {
    naming::Address border{static_cast<std::uint16_t>(r + 1), 1};
    if (!flapped || r != n / 2)
      link(border, naming::Address{static_cast<std::uint16_t>((r + 1) % n + 1), 1});
    for (std::uint16_t s = 2; s <= per; ++s)
      link(border, naming::Address{static_cast<std::uint16_t>(r + 1), s});
  }
  return adj;
}

static routing::Lsdb packed(const std::map<naming::Address, std::vector<naming::Address>>& adj) {
  routing::Lsdb lsdb;
  for (const auto& [origin, neighbors] : adj) lsdb.put(origin, 1, neighbors);
  return lsdb;
}

static void BM_UnitSpf(benchmark::State& state) {
  // One solve as Ipcp::run_spf does it: the source's live links plus every
  // other record through the unit-cost kernel, then the in-place FIB
  // replace. The solves alternate between the ring whole and the ring with
  // one link flapped, so each one builds its graph: the cost the first
  // member to solve new records pays.
  auto n = static_cast<std::uint16_t>(state.range(0));
  auto per = static_cast<std::uint16_t>(state.range(1));
  const auto adj = ring_of_stars(n, per);
  const routing::Lsdb lsdbs[2] = {packed(adj), packed(ring_of_stars(n, per, true))};
  naming::Address src{1, 1};
  const std::vector<naming::Address> live = adj.at(src);
  routing::UnitSpf& spf = routing::UnitSpf::scratch();
  relay::ForwardingTable fib;
  const std::uint64_t builds = spf.builds();
  std::size_t i = 0;
  for (auto _ : state) {
    for (naming::Address nb : live) spf.add_link(nb);
    fib.replace_routes(spf.solve(src, lsdbs[i++ & 1]));
    benchmark::DoNotOptimize(fib.entry_count());
  }
  state.counters["builds/solve"] =
      static_cast<double>(spf.builds() - builds) / static_cast<double>(i);
  state.SetLabel(std::to_string(lsdbs[0].size()) + " nodes");
}
BENCHMARK(BM_UnitSpf)
    ->ArgNames({"regions", "per"})
    ->Args({16, 4})
    ->Args({64, 4})
    ->Args({256, 4})
    ->Args({12, 20})
    ->Args({12, 84});

static void BM_UnitSpfReplicas(benchmark::State& state) {
  // Every member solves its own replica of the same records in turn, as a
  // flat DIF does after a change has flooded. Each replica is a separate
  // LSDB, so only by comparing records can the kernel tell that it already
  // holds their graph. One iteration is one member's solve.
  auto n = static_cast<std::uint16_t>(state.range(0));
  auto per = static_cast<std::uint16_t>(state.range(1));
  const auto adj = ring_of_stars(n, per);
  std::vector<naming::Address> members;
  std::vector<routing::Lsdb> replicas;
  for (const auto& [origin, neighbors] : adj) {
    members.push_back(origin);
    replicas.push_back(packed(adj));
  }
  routing::UnitSpf& spf = routing::UnitSpf::scratch();
  relay::ForwardingTable fib;
  const std::uint64_t builds = spf.builds();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t m = i++ % members.size();
    for (naming::Address nb : adj.at(members[m])) spf.add_link(nb);
    fib.replace_routes(spf.solve(members[m], replicas[m]));
    benchmark::DoNotOptimize(fib.entry_count());
  }
  state.counters["builds/solve"] =
      static_cast<double>(spf.builds() - builds) / static_cast<double>(i);
  state.SetLabel(std::to_string(members.size()) + " nodes");
}
BENCHMARK(BM_UnitSpfReplicas)->ArgNames({"regions", "per"})->Args({12, 20})->Args({12, 84});

static void BM_TwoStepLookup(benchmark::State& state) {
  struct Route {
    naming::Address dest;
    std::vector<naming::Address> hops;
  };
  std::vector<Route> routes;
  for (std::uint16_t i = 2; i < 200; ++i)
    routes.push_back(Route{naming::Address{1, i}, {naming::Address{1, 1}}});
  relay::ForwardingTable fib;
  fib.replace_routes(routes);
  fib.set_neighbor_ports(naming::Address{1, 1}, {0, 1, 2});
  auto up = [](relay::PortIndex p) { return p != 0; };  // first PoA is dead
  for (auto _ : state) {
    auto d = fib.lookup(naming::Address{1, 150}, up);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_TwoStepLookup);

static void BM_DirectoryLookup(benchmark::State& state) {
  naming::Directory dir;
  for (int i = 0; i < 1000; ++i) {
    naming::Address at{1, static_cast<std::uint16_t>(i % 200 + 1)};
    dir.apply(naming::AppName("app" + std::to_string(i), "1"), at, {1, at});
  }
  naming::AppName probe("app777", "1");
  for (auto _ : state) {
    auto hit = dir.lookup(probe);
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_DirectoryLookup);

static void BM_SchedulerChurn(benchmark::State& state) {
  sim::Scheduler sched;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i)
      sched.post_after(SimTime::from_us(i), [] {});
    sched.run();
  }
}
BENCHMARK(BM_SchedulerChurn);

// timer_scale's standing timer population (benchmark/workloads.cpp,
// TimerScale) on a bare scheduler: 2,500 node ticks at 1 ms staggered
// over 16 phases, plus Arg soft-state periodics per node with periods
// of 1.0-2.875 s, each first firing at a hashed phase of its period.
// Arg 256 is the workload's ~642k pending timers. An iteration runs
// 1 ms of simulated time. ns/event is the wall time of those runs over
// the events they fire; heap_B/timer is the heap the scheduler holds
// for the population (mallinfo2's bytes in use after set-up, less the
// bytes before and the handle vector) over the pending timers.
static void BM_SchedulerLargePending(benchmark::State& state) {
  constexpr int kNodes = 2500;
  const auto soft_per_node = static_cast<int>(state.range(0));
  const std::size_t heap_before = mallinfo2().uordblks;
  sim::Scheduler sched;
  std::vector<sim::Timer> timers;
  timers.reserve(static_cast<std::size_t>(kNodes) *
                 static_cast<std::size_t>(1 + soft_per_node));
  std::uint64_t fires = 0;
  std::uint64_t phase_rng = 0x50F7ull;
  auto splitmix = [&phase_rng] {
    std::uint64_t z = (phase_rng += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  const SimTime tick = SimTime::from_ms(1);
  for (int i = 0; i < kNodes; ++i) {
    sim::Timer t = sched.periodic(tick, [&fires] { ++fires; });
    (void)t.rearm_at(SimTime{tick.ns * ((i % 16) + 1) / 16});
    timers.push_back(std::move(t));
    for (int j = 0; j < soft_per_node; ++j) {
      SimTime period{SimTime::from_sec(1).ns +
                     ((i * soft_per_node + j) % 16) * SimTime::from_ms(125).ns};
      sim::Timer s = sched.periodic(period, [&fires] { ++fires; });
      auto phase = static_cast<std::int64_t>(splitmix() %
                                             static_cast<std::uint64_t>(period.ns));
      (void)s.rearm_at(SimTime{1 + phase});
      timers.push_back(std::move(s));
    }
  }
  const std::size_t pending = sched.pending();
  const double heap = static_cast<double>(mallinfo2().uordblks - heap_before -
                                          timers.capacity() * sizeof(sim::Timer));

  const std::uint64_t events_before = sched.executed();
  std::chrono::steady_clock::duration ran{};
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    sched.run_for(tick);
    ran += std::chrono::steady_clock::now() - t0;
  }
  const double events = static_cast<double>(sched.executed() - events_before);
  benchmark::DoNotOptimize(fires);
  state.counters["ns/event"] = benchmark::Counter(
      events > 0 ? static_cast<double>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(ran).count()) /
                       events
                 : 0.0);
  state.counters["heap_B/timer"] =
      benchmark::Counter(heap / static_cast<double>(pending));
  state.counters["pending"] = benchmark::Counter(static_cast<double>(pending));
  state.SetLabel(std::to_string(soft_per_node) + " soft/node");
}
BENCHMARK(BM_SchedulerLargePending)->Arg(4)->Arg(256);

static void BM_EfcpRoundTrip(benchmark::State& state) {
  // Two EFCP connections wired back-to-back: SDU write -> PDU -> peer
  // delivery -> ack back, timers on a shared scheduler.
  sim::Scheduler sched;
  efcp::EfcpPolicies pol;
  efcp::ConnectionId ida{naming::Address{1, 1}, naming::Address{1, 2}, 1, 2, 0};
  efcp::ConnectionId idb{naming::Address{1, 2}, naming::Address{1, 1}, 2, 1, 0};
  std::uint64_t delivered = 0;
  efcp::Connection *pa = nullptr, *pb = nullptr;
  efcp::Connection a(
      sched, pol, ida,
      [&](efcp::Pdu&& pdu) { pb->on_pdu(pdu.pci, std::move(pdu.payload)); },
      [&](Packet&&) {});
  efcp::Connection b(
      sched, pol, idb,
      [&](efcp::Pdu&& pdu) { pa->on_pdu(pdu.pci, std::move(pdu.payload)); },
      [&](Packet&&) { ++delivered; });
  pa = &a;
  pb = &b;
  Bytes sdu(1000, 0x77);
  std::uint64_t sdus = 0;
  packet_counters().reset();
  for (auto _ : state) {
    (void)a.write_sdu(BytesView{sdu});
    sched.run();
    ++sdus;
  }
  const auto& c = packet_counters();
  double n = static_cast<double>(sdus ? sdus : 1);
  state.counters["delivered"] =
      benchmark::Counter(static_cast<double>(delivered));
  state.counters["allocs/sdu"] =
      benchmark::Counter(static_cast<double>(c.allocs) / n);
  state.counters["arena_hit_rate"] = benchmark::Counter(
      c.allocs ? static_cast<double>(c.arena_hits) / static_cast<double>(c.allocs)
               : 0.0);
}
BENCHMARK(BM_EfcpRoundTrip);

// A real N-deep recursive stack of reliable EFCP connections (each
// layer's PDUs — data AND acks — ride the layer below as SDUs), with
// retransmit queues parked on every layer. copies/sdu stays ≈ 1: the
// edge copy into the headroomed Packet is the only payload copy an SDU
// pays end-to-end, because parked handles share the frame's buffer and
// every lower layer prepends at the frontier. (Topology shared with
// tests/test_packet.cpp via the efcp_stack_harness.)
static void BM_EfcpStack(benchmark::State& state) {
  auto depth = static_cast<std::size_t>(state.range(0));
  sim::Scheduler sched;
  efcp::EfcpPolicies pol;  // reliable, in-order at every layer
  std::uint64_t delivered = 0;
  testx::EfcpStack stack;
  stack.build(sched, depth, pol, [&delivered](Packet&&) { ++delivered; });

  Bytes sdu(1000, 0x77);
  std::uint64_t sdus = 0;
  packet_counters().reset();
  for (auto _ : state) {
    (void)stack.top_a(depth).write_sdu(BytesView{sdu});
    sched.run();
    ++sdus;
  }
  const auto& c = packet_counters();
  double n = static_cast<double>(sdus ? sdus : 1);
  state.counters["delivered"] = benchmark::Counter(static_cast<double>(delivered));
  state.counters["copies/sdu"] =
      benchmark::Counter(static_cast<double>(c.payload_copies) / n);
  state.counters["allocs/sdu"] =
      benchmark::Counter(static_cast<double>(c.allocs) / n);
  state.counters["arena_hit_rate"] = benchmark::Counter(
      c.allocs ? static_cast<double>(c.arena_hits) / static_cast<double>(c.allocs)
               : 0.0);
  state.SetLabel("depth " + std::to_string(depth));
}
BENCHMARK(BM_EfcpStack)->Arg(1)->Arg(3);

BENCHMARK_MAIN();
