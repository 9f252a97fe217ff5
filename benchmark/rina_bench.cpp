// rina_bench — the repository benchmark: one workload, one process, one
// thread.
//
//   rina_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//              [--spans FILE]
//
// A run is a series of episodes until --seconds of measured phase have
// passed. Each episode sets the workload up afresh, several times for a
// cheap set-up (setup_s is the median over every set-up of the run),
// then runs the measured phase in ~0.1 s wall-clock chunks for at least
// a second and until its reference window is complete. Spreading the
// set-ups over the whole run samples the host as the chunks do, not in
// one burst at the start. sim_rate is the 90th percentile of the chunk
// rates: host contention here comes in episodes of seconds that halve
// the speed of whatever runs, and it only ever slows a chunk down, so
// the fast tail tracks the code and the slow tail the neighbours. The
// first chunk of each episode is warm-up and not counted. Every episode
// replays the same seeded reference window, so its digest must match
// the first episode's.
//
// With --trace 1 there is one episode with one set-up, every other
// chunk is traced (the rate difference is trace.overhead_pct), the layer
// functions are replayed on the workload's inputs, the stack is re-run
// at depths 1-4, and the per-layer metrics replace the end-to-end ones
// in the summary. Output is described in report.hpp; the exit code is
// non-zero when a correctness check fails or the arguments are invalid.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "routing/graph.hpp"
#include "workloads.hpp"

using namespace rina;
using namespace rina::bench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kSetupBurstS = 0.05;  // set-up time timed per episode
constexpr std::size_t kMaxBurstReps = 100;
constexpr double kMinEpisodeS = 1.0;
constexpr double kChunkWallS = 0.1;
constexpr double kRateQuantile = 0.9;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The q-quantile of `v`, interpolating between order statistics; 0
/// when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// This program image's peak resident set in MB: /proc's VmHWM, which
/// starts afresh at exec. getrusage's ru_maxrss, the fallback, keeps the
/// high-water mark of the image the process held before its exec too:
/// launched by a Python harness, that is the forked copy of the
/// interpreter, ~14 MB, which hid this benchmark's smaller workloads.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (kb < 0 && std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) kb = -1;
    std::fclose(f);
    if (kb > 0) return static_cast<double>(kb) / 1024.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int usage(const char* why) {
  std::fprintf(stderr, "rina_bench: %s\nusage: rina_bench --workload <", why);
  const auto& names = workload_names();
  for (std::size_t i = 0; i < names.size(); ++i)
    std::fprintf(stderr, "%s%s", i ? "|" : "", names[i].c_str());
  std::fprintf(stderr, "> [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]\n");
  return 2;
}

bool parse(int argc, char** argv, Options& o, const char*& why) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) {
      why = "missing value";
      return false;
    }
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return why = "bad --seed", false;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0 && o.seconds <= 3600))
        return why = "bad --seconds", false;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return why = "--trace takes 0 or 1", false;
      o.trace = v == "1";
    } else if (a == "--spans") {
      o.spans = v;
    } else {
      why = "unknown argument";
      return false;
    }
  }
  if (o.workload.empty()) return why = "--workload is required", false;
  return true;
}

/// One measured-phase chunk.
struct Chunk {
  double sim_s = 0;
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  bool traced = false;
  bool warmup = false;  // an episode's first chunk
};

/// The kRateQuantile of a per-chunk rate over the chunks traced (or
/// not). Warm-up chunks, and chunks cut short by the reference-window
/// boundary (too brief to time), are left out.
template <typename Rate>
double chunk_rate(const std::vector<Chunk>& chunks, bool traced, Rate&& rate) {
  std::vector<double> v;
  for (const Chunk& c : chunks)
    if (c.traced == traced && !c.warmup && c.wall_s >= kChunkWallS / 4) v.push_back(rate(c));
  return quantile(std::move(v), kRateQuantile);
}

double sim_per_wall(const Chunk& c) { return c.sim_s / c.wall_s; }

/// Median over 5 rounds of the wall ns per operation of `batch`, which
/// performs `per_batch` operations; each round repeats it for >= 10 ms.
template <typename Batch>
double ns_per_op(std::uint64_t per_batch, Batch&& batch) {
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    std::uint64_t n = 0;
    auto t0 = Clock::now();
    double el = 0;
    do {
      batch();
      n += per_batch;
      el = secs_since(t0);
    } while (el < 0.01);
    rounds.push_back(el * 1e9 / static_cast<double>(n));
  }
  return median(rounds);
}

volatile std::uint64_t g_sink;  // keeps replayed results observable

/// PCI encode and decode of one PDU carrying `payload_bytes`.
void replay_codec(std::size_t payload_bytes, double& encode_ns, double& decode_ns) {
  constexpr std::size_t kBatch = 2048;
  Bytes payload(payload_bytes, 0xA5);
  std::vector<efcp::Pdu> pdus(kBatch);
  std::vector<Packet> frames(kBatch);
  std::vector<double> enc, dec;
  std::uint64_t sink = 0;
  for (int round = 0; round < 15; ++round) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      pdus[i].pci.dest = naming::Address{1, 2};
      pdus[i].pci.src = naming::Address{1, 1};
      pdus[i].pci.seq = i;
      pdus[i].payload = Packet::with_headroom(kDefaultHeadroom, BytesView{payload});
    }
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) frames[i] = std::move(pdus[i]).encode_packet();
    enc.push_back(secs_since(t0) * 1e9 / kBatch);
    t0 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      auto r = efcp::Pdu::decode_packet(std::move(frames[i]));
      sink += r.ok() ? r.value().payload.size() : 0;
    }
    dec.push_back(secs_since(t0) * 1e9 / kBatch);
  }
  g_sink = sink;
  encode_ns = median(enc);
  decode_ns = median(dec);
}

/// Two-step FIB lookup on a relay, cycling over its destinations.
double replay_lookup(ipcp::Ipcp* relay_ipcp) {
  if (relay_ipcp == nullptr) return 0;
  const relay::ForwardingTable& fib = relay_ipcp->rmt().fib();
  std::vector<naming::Address> dests;
  for (const auto& route : fib.routes()) dests.push_back(route.first);
  if (dests.empty()) return 0;
  auto up = [](relay::PortIndex) { return true; };
  std::uint64_t sink = 0;
  double ns = ns_per_op(4096, [&] {
    for (std::size_t i = 0; i < 4096; ++i) {
      auto p = fib.lookup(dests[i % dests.size()], up);
      sink += p ? *p + 1 : 0;
    }
  });
  g_sink = sink;
  return ns;
}

/// Full Dijkstra over the probe DIF's member graph (unit costs).
double replay_dijkstra_ms(node::Network& net, const LayerProbe& p) {
  routing::Graph g;
  naming::Address src;
  for (const auto& [a, b] : p.graph_edges) {
    ipcp::Ipcp* pa = net.node(a).ipcp(p.graph_dif);
    ipcp::Ipcp* pb = net.node(b).ipcp(p.graph_dif);
    if (pa == nullptr || pb == nullptr) continue;
    g.add_edge(pa->address(), pb->address(), 1);
    g.add_edge(pb->address(), pa->address(), 1);
    if (src.is_null()) src = pa->address();
  }
  if (src.is_null()) return 0;
  std::uint64_t sink = 0;
  double ns = ns_per_op(1, [&] { sink += g.dijkstra(src).entries.size(); });
  g_sink = sink;
  return ns / 1e6;
}

/// Directory lookups on a member's replica, cycling over its names.
double replay_dir_lookup(ipcp::Ipcp* member) {
  if (member == nullptr) return 0;
  const naming::Directory& dir = member->directory();
  std::vector<naming::AppName> names;
  for (const auto& e : dir.entries()) names.push_back(e.first);
  if (names.empty()) return 0;
  std::uint64_t sink = 0;
  double ns = ns_per_op(1024, [&] {
    for (std::size_t i = 0; i < 1024; ++i) {
      auto a = dir.lookup(names[i % names.size()]);
      sink += a ? a->node : 0;
    }
  });
  g_sink = sink;
  return ns;
}

/// Least-squares slope of y over x = 1..n.
double slope(const std::vector<double>& y) {
  double n = static_cast<double>(y.size());
  double mx = (n + 1) / 2, my = 0;
  for (double v : y) my += v;
  my /= n;
  double sxy = 0, sxx = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    double dx = static_cast<double>(i + 1) - mx;
    sxy += dx * (y[i] - my);
    sxx += dx * dx;
  }
  return sxx == 0 ? 0 : sxy / sxx;
}

void layer_metrics(Report& rep, Workload& w, const Snapshot& s0, const Snapshot& ref,
                   const std::vector<Chunk>& chunks, const Tracer::Stat* setup_spans,
                   const Tracer::Stat* run_spans, std::uint64_t seed, Checks& checks) {
  // Per-op ratios cover the reference window (`win`); counts are
  // cumulative from set-up to the window's end (`ref`).
  const Snapshot win = ref.since(s0);
  const double ops = static_cast<double>(win.ops);
  rep.metric("packet.copies_per_op",
               ratio(static_cast<double>(win.packet.payload_copies), ops), true);
  rep.metric("packet.allocs_per_op", ratio(static_cast<double>(win.packet.allocs), ops),
               true);
  rep.metric("packet.arena_hit_rate",
               ratio(static_cast<double>(win.packet.arena_hits),
                     static_cast<double>(win.packet.allocs)),
               true);
  LayerProbe probe = w.probe();
  double enc = 0, dec = 0;
  replay_codec(probe.pdu_bytes, enc, dec);
  rep.metric("packet.encode_ns", enc);
  rep.metric("packet.decode_ns", dec);

  double pdus = 0;
  for (int k = 0; k < kMaxRank; ++k) {
    const Snapshot::Rank& r = ref.rank[k];
    std::string e = "efcp.r" + std::to_string(k) + ".";
    rep.metric(e + "pdus_tx", static_cast<double>(r.pdus_tx), true);
    rep.metric(e + "acks_tx", static_cast<double>(r.acks_tx), true);
    rep.metric(e + "pdus_retx", static_cast<double>(r.pdus_retx), true);
    rep.metric(e + "pdus_dup", static_cast<double>(r.pdus_dup), true);
    rep.metric(e + "reorder_drops", static_cast<double>(r.reorder_drops), true);
    std::string m = "rmt.r" + std::to_string(k) + ".";
    rep.metric(m + "relayed", static_cast<double>(r.relayed), true);
    rep.metric(m + "pdus_out", static_cast<double>(r.pdus_out), true);
    pdus += static_cast<double>(win.rank[k].pdus_tx + win.rank[k].acks_tx);
  }
  rep.metric("efcp.useful_ratio", ratio(ops, pdus), true);
  rep.metric("efcp.srtt_us", static_cast<double>(ref.srtt_us), true);
  rep.metric("efcp.cwnd_pdus", static_cast<double>(ref.cwnd_pdus), true);
  rep.metric("efcp.rto_fired", static_cast<double>(ref.rto_fired), true);
  rep.metric("rmt.queue_peak", static_cast<double>(ref.rmt_queue_peak), true);
  rep.metric("rmt.drops", static_cast<double>(ref.rmt_drops), true);
  rep.metric("rmt.ecn_marked", static_cast<double>(ref.ecn_marked), true);
  rep.metric("relay.lookup_ns",
               replay_lookup(w.net().node(probe.relay_node).ipcp(probe.relay_dif)));

  rep.metric("link.tx_frames", static_cast<double>(ref.link_tx_frames), true);
  rep.metric("link.queue_drops", static_cast<double>(ref.link_queue_drops), true);
  rep.metric("link.bytes_per_op", ratio(static_cast<double>(win.link_tx_bytes), ops), true);

  auto self_ns = [&](SpanName n) {
    const Tracer::Stat& s = run_spans[static_cast<int>(n)];
    return ratio(static_cast<double>(s.self_ns), static_cast<double>(s.count));
  };
  rep.metric("flow.write_ns", self_ns(SpanName::flow_write));
  rep.metric("flow.read_ns", self_ns(SpanName::flow_read));
  rep.metric("flow.would_block", static_cast<double>(ref.would_block), true);
  const Tracer::Stat& alloc = run_spans[static_cast<int>(SpanName::allocate)];
  rep.metric("flow.allocate_s", ratio(static_cast<double>(alloc.total_ns) / 1e9,
                                        static_cast<double>(alloc.count)));

  rep.metric("sim.events", static_cast<double>(win.events), true);
  rep.metric("sim.events_per_op", ratio(static_cast<double>(win.events), ops), true);
  rep.metric("sim.pending_timers", static_cast<double>(ref.pending_timers), true);
  double ev_per_s = chunk_rate(chunks, false, [](const Chunk& c) {
    return static_cast<double>(c.events) / c.wall_s;
  });
  rep.metric("sim.events_per_s", ev_per_s);
  rep.metric("sim.ns_per_event", ratio(1e9, ev_per_s));
  std::uint64_t traced_ops = 0;
  for (const Chunk& c : chunks)
    if (c.traced) traced_ops += c.ops;
  rep.metric("sim.run_self_ns_per_op",
               ratio(static_cast<double>(run_spans[static_cast<int>(SpanName::run_for)].self_ns),
                     static_cast<double>(traced_ops)));

  auto total_s = [&](SpanName n) {
    return static_cast<double>(setup_spans[static_cast<int>(n)].total_ns) / 1e9;
  };
  rep.metric("node.build_dif_s",
               total_s(SpanName::build_link_dif) + total_s(SpanName::build_overlay_dif));
  rep.metric("node.converge_s", total_s(SpanName::converge));

  rep.metric("ipcp.mgmt_bytes", static_cast<double>(ref.mgmt_bytes), true);
  rep.metric("ipcp.lsus_flooded", static_cast<double>(ref.lsus_flooded), true);
  rep.metric("ipcp.riep_sent", static_cast<double>(ref.riep_sent), true);
  rep.metric("ipcp.keepalives_sent", static_cast<double>(ref.keepalives_sent), true);
  rep.metric("ipcp.hellos_sent", static_cast<double>(ref.hellos_sent), true);
  rep.metric("routing.spf_runs", static_cast<double>(ref.spf_runs), true);
  rep.metric("routing.spf_vertices", static_cast<double>(ref.spf_vertices), true);
  rep.metric("routing.dijkstra_ms", replay_dijkstra_ms(w.net(), probe));
  rep.metric("naming.dir_lookup_ns",
               replay_dir_lookup(w.net().node(probe.dir_node).ipcp(probe.dir_dif)));
  rep.metric("naming.dir_cache_hits", static_cast<double>(ref.dir_cache_hits), true);
  rep.metric("rib.deltas_originated", static_cast<double>(ref.deltas_originated), true);
  rep.metric("rib.digest_rounds", static_cast<double>(ref.digest_rounds), true);

  // The layer ledger: the cost of one more rank.
  Tracer quiet;
  std::vector<double> ns, bytes;
  for (int d = 1; d <= 4; ++d) {
    DepthCost c = measure_depth(d, seed, quiet, checks);
    std::string key = "stack.d" + std::to_string(d) + ".";
    rep.metric(key + "ns_per_sdu", c.ns_per_sdu);
    rep.metric(key + "bytes_per_sdu", c.bytes_per_sdu, true);
    ns.push_back(c.ns_per_sdu);
    bytes.push_back(c.bytes_per_sdu);
  }
  for (std::size_t d = 1; d < bytes.size(); ++d)
    checks.require(bytes[d] > bytes[d - 1], "ledger_monotone",
                   "stack.d" + std::to_string(d + 1) + ".bytes_per_sdu is not above d" +
                       std::to_string(d));
  rep.metric("stack.rank_ns", slope(ns));
  rep.metric("stack.rank_bytes", slope(bytes), true);

  double untraced = chunk_rate(chunks, false, sim_per_wall);
  double traced = chunk_rate(chunks, true, sim_per_wall);
  rep.metric("trace.overhead_pct", traced == 0 ? 0 : (untraced / traced - 1) * 100);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  const char* why = "";
  if (!parse(argc, argv, o, why)) return usage(why);
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end())
    return usage("unknown workload");
  Tracer tracer;

  Checks checks;
  Report report(o.workload, o.seed);
  Digest digest;

  std::vector<double> setup_s;
  std::vector<Chunk> chunks;
  std::unique_ptr<Workload> w;
  Snapshot s0, s_ref;
  Ops ops;
  Tracer::Stat setup_spans[static_cast<int>(SpanName::kCount)];
  std::string ref_digest;
  double measured_s = 0;
  for (int ep = 0; checks.ok() && (ep == 0 || (!o.trace && measured_s < o.seconds)); ++ep) {
    // Set-up: fresh networks until kSetupBurstS of set-up is timed; the
    // last one is measured. Each is destroyed before the next is built,
    // so the peak RSS is one network's.
    double burst = 0;
    for (std::size_t rep = 0;
         checks.ok() && (rep == 0 || (!o.trace && rep < kMaxBurstReps && burst < kSetupBurstS));
         ++rep) {
      w.reset();
      w = make_workload(o.workload, o.seed, tracer);
      tracer.set_enabled(o.trace);
      auto t0 = Clock::now();
      w->setup(checks);
      setup_s.push_back(secs_since(t0));
      burst += setup_s.back();
      tracer.set_enabled(false);
    }
    if (!checks.ok()) break;
    if (ep == 0)
      for (int i = 0; i < static_cast<int>(SpanName::kCount); ++i)
        setup_spans[i] = tracer.stat(static_cast<SpanName>(i));

    // The measured phase: chunks until the episode's time has passed and
    // the reference window is complete.
    const double episode_s = o.trace ? o.seconds : std::max(kMinEpisodeS, 2 * burst);
    node::Network& net = w->net();
    s0 = w->snapshot();
    w->start();
    const std::uint64_t ref_steps = w->reference_steps();
    const std::uint64_t unit = w->chunk_steps();
    std::uint64_t steps = 0;
    auto t_start = Clock::now();
    for (int c = 0; steps < ref_steps || secs_since(t_start) < episode_s; ++c) {
      Chunk ch;
      ch.traced = o.trace && c % 2 == 1;
      ch.warmup = c == 0;
      tracer.set_enabled(ch.traced);
      SimTime sim0 = net.now();
      std::uint64_t ev0 = net.events_executed(), ops0 = w->progress();
      auto c0 = Clock::now();
      do {
        w->step();
        ++steps;
      } while (steps != ref_steps && (steps % unit != 0 || secs_since(c0) < kChunkWallS));
      ch.wall_s = secs_since(c0);
      tracer.set_enabled(false);
      ch.sim_s = (net.now() - sim0).to_sec();
      ch.events = net.events_executed() - ev0;
      ch.ops = w->progress() - ops0;
      chunks.push_back(ch);
      if (steps != ref_steps) continue;
      s_ref = w->snapshot();
      if (ep == 0) {
        w->reference(report, digest, checks);
        ref_digest = digest.hex();
      } else {
        Report again(o.workload, o.seed);
        Digest d;
        w->reference(again, d, checks);
        checks.require(d.hex() == ref_digest, "determinism",
                       "episode " + std::to_string(ep + 1) + "'s reference window digest " +
                           d.hex() + " differs from episode 1's " + ref_digest);
      }
    }
    measured_s += secs_since(t_start);
    w->finish();
    w->verify(checks, w->snapshot().since(s0));
    Ops e = w->ops();
    ops.attempted += e.attempted;
    ops.failed += e.failed;
  }
  Tracer::Stat run_spans[static_cast<int>(SpanName::kCount)];
  for (int i = 0; i < static_cast<int>(SpanName::kCount); ++i)
    run_spans[i] = tracer.stat(static_cast<SpanName>(i));

  // A run that failed its first set-up has nothing to measure; any later
  // failure still prints its metrics, with correct=false.
  const bool measured = !chunks.empty();
  if (measured && checks.ok()) {
    tracer.set_enabled(o.trace);
    w->extra(report, digest, checks, o.trace);
    tracer.set_enabled(false);
  }

  if (measured && !o.trace) {
    report.metric("setup_s", median(setup_s));
    report.metric("sim_rate", chunk_rate(chunks, false, sim_per_wall));
    report.metric("peak_rss_mb", peak_rss_mb());
    report.metric("delivery_ratio",
                    ratio(static_cast<double>(ops.attempted - ops.failed),
                          static_cast<double>(ops.attempted)));
  }
  if (measured && o.trace) {
    layer_metrics(report, *w, s0, s_ref, chunks, setup_spans, run_spans, o.seed, checks);
    if (!report.find("cap.probes")) {  // workloads without a capacity search
      report.metric("cap.probes", 0, true);
      report.metric("cap.trial_s", 0);
    }
    if (!o.spans.empty() && !tracer.write_jsonl(o.spans))
      checks.fail("spans", "cannot write " + o.spans);
  }

  for (const Failure& f : checks.failures()) {
    std::fprintf(stderr, "rina_bench: check %s failed: %s\n", f.check.c_str(),
                 f.detail.c_str());
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"check\":\"%s\",\"ok\":false}\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed), f.check.c_str());
  }
  if (measured) {
    report.print_lines(stdout);
    report.print_digest(stdout, digest.hex(), checks.ok());
    if (!report.print_summary(stdout, o.trace, checks.ok(), ops.attempted, ops.failed))
      return 3;
  }
  return checks.ok() ? 0 : 1;
}
