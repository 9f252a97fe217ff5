// bench_c9_control — directory cost proportional to CHANGE, not SIZE.
// One DIF of R regions (anchor + spokes per region, anchors in a ring) is
// driven through a seeded churn script — app mobility plus link flaps —
// under two control-plane arrangements:
//
//   flat   — every registration, unregistration and LSU floods to all
//            N members as a Sync of that one record (there are no DirUpd
//            floods): cost ~ O(N) per event. A link that comes back
//            resyncs its two ends: each hands the other its directory
//            and LSDB records in one Sync (~22 B a record, one PDU up to
//            ~2,500 records), and a member floods what was news on as
//            one Sync, never one message per record.
//   hier   — flat plus dir_hierarchical: registrations go only to the
//            resolver chain (region anchor -> root); members resolve by
//            querying up and cache with a TTL; mobility invalidates
//            caches with a targeted flood. Per-move cost ~ O(change).
//
// Routing is the same in both: every LSU makes every member re-derive
// all N routes with the unit-cost SPF kernel, once as a flapped link goes
// down and once as it returns, so SPF vtx/evt is ~2N^2 in either row.
//
// Metrics per (size, arrangement): bring-up control KB, control bytes
// per churn event, directory convergence after the last move, name
// resolution latency p50/p99 (sim time, cold misses and warm cache
// hits mixed), SPF runs and vertices re-derived per flap, and duplicate
// LSDB and directory records suppressed by the (origin, seq) guard and
// the directory's version stamps.
//
// The flap window is a gate: the bench aborts if any member's RMT
// tail-drops a PDU during it (a resync outgrowing a port's egress queue).
//
// All columns are sim-derived and deterministic: same binary + env ->
// byte-identical stdout. Set RINA_BENCH_JSON=<path> for a JSON copy.
// RINA_C9_MEMBERS=<n> adds a larger scaled-arrangement-only point
// (e.g. 10000 or 100000); the flat arrangement is capped at ~1k
// members where its O(N^2) bring-up is already the visible story.
#include <optional>

#include "common.hpp"
#include "common/bytes.hpp"

using namespace rina;
using namespace rina::benchx;

namespace {

constexpr const char* kDif = "ctl";

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

enum class Mode { flat, hier };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::flat: return "flat flood + full SPF";
    case Mode::hier: return "  + hierarchical names";
  }
  return "?";
}

struct Shape {
  int regions;
  int per_region;  // nodes per region, anchor included
  [[nodiscard]] int members() const { return regions * per_region; }
};

std::string anchor(int r) { return "a" + std::to_string(r); }
std::string spoke(int r, int m) {
  return "n" + std::to_string(r) + "_" + std::to_string(m);
}

struct Out {
  int members = 0;
  Mode mode = Mode::flat;
  double bringup_kb = 0;
  double dir_bytes_per_event = 0;   // mobility window
  double flap_bytes_per_event = 0;  // link-flap window
  double converge_ms = 0;           // last move visible at every authority
  double res_p50_ms = 0;
  double res_p99_ms = 0;
  double spf_runs_per_event = 0;
  double spf_vertices_per_event = 0;
  std::uint64_t dups_suppressed = 0;
  std::uint64_t churn_events = 0;
  std::uint64_t flap_events = 0;
};

/// Where app i currently lives: (region, spoke index in [1, per-1]).
struct Home {
  int region;
  int idx;
};
std::string home_node(const Home& h) {
  return h.idx == 0 ? anchor(h.region) : spoke(h.region, h.idx);
}

Out run_point(const Shape& s, Mode mode) {
  Network net(7100 + s.members() + static_cast<int>(mode));
  const naming::DifName dif{kDif};

  node::DifSpec spec = mk_dif(kDif, {});
  if (mode == Mode::hier) {
    spec.cfg.dir_hierarchical = true;
  }
  for (int r = 0; r < s.regions; ++r) {
    auto reg = static_cast<std::uint16_t>(r + 1);
    spec.members.push_back(anchor(r));
    spec.addresses[anchor(r)] = naming::Address{reg, 1};
    for (int m = 1; m < s.per_region; ++m) {
      net.add_link(anchor(r), spoke(r, m));
      spec.members.push_back(spoke(r, m));
      spec.addresses[spoke(r, m)] =
          naming::Address{reg, static_cast<std::uint16_t>(m + 1)};
    }
    net.add_link(anchor(r), anchor((r + 1) % s.regions));
  }
  if (!net.build_link_dif(spec).ok()) std::abort();
  net.run_for(SimTime::from_ms(600));

  Out out;
  out.members = s.members();
  out.mode = mode;
  out.bringup_kb =
      static_cast<double>(net.sum_dif_counter(dif, "mgmt_bytes_sent")) / 1024.0;

  // --- population: 2 apps per region, seeded homes on spokes ---
  std::uint64_t rng = 0xC91ull * static_cast<std::uint64_t>(s.members());
  const int apps = s.regions * 2;
  std::vector<Home> home(static_cast<std::size_t>(apps));
  std::uint64_t rx = 0;
  auto sink = [&rx](flow::Flow f) {
    f.on_readable([&rx](flow::Flow& fl) {
      while (fl.read()) ++rx;
    });
  };
  auto svc = [](int i) { return naming::AppName{"svc" + std::to_string(i)}; };
  for (int i = 0; i < apps; ++i) {
    home[i] = {i % s.regions,
               1 + static_cast<int>(splitmix64(rng) %
                                    static_cast<std::uint64_t>(s.per_region - 1))};
    if (!net.node(home_node(home[i])).register_app(svc(i), dif, sink).ok())
      std::abort();
  }
  net.run_for(SimTime::from_ms(300));

  // --- churn window A: seeded app mobility. The naming-layer story:
  // per move, flat tells all N members; hier tells the resolver chain
  // plus an invalidation flood only when caches could be stale.
  const auto dir_events = static_cast<std::uint64_t>(
      std::max(4.0, 16.0 * duration_scale()));
  out.churn_events = dir_events;
  std::uint64_t bytes0 = net.sum_dif_counter(dif, "mgmt_bytes_sent");
  int last_app = 0;
  for (std::uint64_t e = 0; e < dir_events; ++e) {
    int i = static_cast<int>(splitmix64(rng) % static_cast<std::uint64_t>(apps));
    last_app = i;
    if (!net.node(home_node(home[i])).ipcp(dif)->fa().unregister_app(svc(i)).ok())
      std::abort();
    net.run_for(SimTime::from_ms(30));
    Home next = home[i];
    next.region = static_cast<int>(splitmix64(rng) %
                                   static_cast<std::uint64_t>(s.regions));
    next.idx = 1 + static_cast<int>(splitmix64(rng) %
                                    static_cast<std::uint64_t>(s.per_region - 1));
    home[i] = next;
    if (!net.node(home_node(next)).register_app(svc(i), dif, sink).ok())
      std::abort();
    // The last move gets no settle time: its convergence is measured.
    if (e + 1 < dir_events) net.run_for(SimTime::from_ms(60));
  }

  // Convergence of the LAST move, clocked from the re-registration: how
  // long until the directory authorities a resolver would consult all
  // serve the new binding. flat: every member's replicated directory;
  // hier: the new home's region anchor and the root (nobody else needs
  // to know).
  SimTime conv_start = net.now();
  auto authorities_agree = [&] {
    naming::Address want =
        spec.addresses[home_node(home[last_app])];
    if (mode == Mode::hier) {
      auto* root = net.node(anchor(0)).ipcp(dif);
      auto* anc = net.node(anchor(home[last_app].region)).ipcp(dif);
      return root->directory().lookup(svc(last_app)) == std::optional{want} &&
             anc->directory().lookup(svc(last_app)) == std::optional{want};
    }
    for (const auto& n : spec.members) {
      if (net.node(n).ipcp(dif)->directory().lookup(svc(last_app)) !=
          std::optional{want})
        return false;
    }
    return true;
  };
  (void)net.run_until(authorities_agree, SimTime::from_sec(10));
  out.converge_ms = (net.now() - conv_start).to_ms();
  std::uint64_t bytes1 = net.sum_dif_counter(dif, "mgmt_bytes_sent");
  out.dir_bytes_per_event =
      static_cast<double>(bytes1 - bytes0) / static_cast<double>(dir_events);

  // --- churn window B: link flaps. The routing-layer story, the same in
  // both arrangements: the LSU flood is O(links), and every member then
  // re-derives all N destinations. The returning link's resync is the
  // part of flap B/evt that must not outgrow a port's egress queue.
  const auto flap_events =
      static_cast<std::uint64_t>(std::max(2.0, 8.0 * duration_scale()));
  out.flap_events = flap_events;
  std::uint64_t fbytes0 = net.sum_dif_counter(dif, "mgmt_bytes_sent");
  std::uint64_t vtx0 = net.sum_dif_counter(dif, "spf_vertices_recomputed");
  std::uint64_t spf0 = net.sum_dif_counter(dif, "spf_runs");
  std::uint64_t drops0 = net.sum_dif_counter(dif, "rmt_drops");
  for (std::uint64_t e = 0; e < flap_events; ++e) {
    int r = static_cast<int>(splitmix64(rng) %
                             static_cast<std::uint64_t>(s.regions));
    int m = 1 + static_cast<int>(splitmix64(rng) %
                                 static_cast<std::uint64_t>(s.per_region - 1));
    (void)net.set_link_state(anchor(r), spoke(r, m), false);
    net.run_for(SimTime::from_ms(60));
    (void)net.set_link_state(anchor(r), spoke(r, m), true);
    net.run_for(SimTime::from_ms(60));
  }
  if (std::uint64_t drops = net.sum_dif_counter(dif, "rmt_drops") - drops0) {
    std::fprintf(stderr,
                 "c9: %llu RMT drops in the flap window (%d members, %s): a "
                 "resync outgrew a port's egress queue\n",
                 static_cast<unsigned long long>(drops), s.members(), mode_name(mode));
    std::abort();
  }
  out.flap_bytes_per_event =
      static_cast<double>(net.sum_dif_counter(dif, "mgmt_bytes_sent") -
                          fbytes0) /
      static_cast<double>(flap_events);
  out.spf_vertices_per_event =
      static_cast<double>(net.sum_dif_counter(dif, "spf_vertices_recomputed") -
                          vtx0) /
      static_cast<double>(flap_events);
  out.spf_runs_per_event =
      static_cast<double>(net.sum_dif_counter(dif, "spf_runs") - spf0) /
      static_cast<double>(flap_events);
  out.dups_suppressed = net.sum_dif_counter(dif, "lsus_dup_suppressed") +
                        net.sum_dif_counter(dif, "dir_dups_suppressed");

  // --- resolution latency: 12 allocations from rotating far-region
  // clients; every 3rd repeats the previous target, so the hier rows
  // mix cold query-up walks with warm cache hits. ---
  Histogram lat_ms;
  int prev_target = 0;
  for (int k = 0; k < 12; ++k) {
    int i = k % 3 == 2
                ? prev_target
                : static_cast<int>(splitmix64(rng) %
                                   static_cast<std::uint64_t>(apps));
    prev_target = i;
    // A client two regions away from the app's home, on spoke 1.
    int cr = (home[i].region + 2) % s.regions;
    SimTime t0 = net.now();
    flow::Flow f = net.node(spoke(cr, 1)).allocate_flow_on(
        dif, naming::AppName{"cli" + std::to_string(k)}, svc(i),
        flow::QosSpec{});
    if (!net.run_until([&] { return !f.is_allocating(); }, SimTime::from_sec(8)))
      std::abort();
    if (!f.is_open()) std::abort();
    lat_ms.add((net.now() - t0).to_ms());
  }
  out.res_p50_ms = lat_ms.p50();
  out.res_p99_ms = lat_ms.p99();
  return out;
}

void emit_json(const std::vector<Out>& rows) {
  const char* path = std::getenv("RINA_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "RINA_BENCH_JSON: cannot open %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"c9_control\",\n");
  std::fprintf(f, "  \"duration_scale\": %g,\n  \"rows\": [\n",
               duration_scale());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Out& r = rows[i];
    std::fprintf(f,
                 "    {\"members\": %d, \"arrangement\": \"%s\", "
                 "\"bringup_kb\": %.1f, \"dir_bytes_per_event\": %.1f, "
                 "\"flap_bytes_per_event\": %.1f, "
                 "\"converge_ms\": %.1f, \"res_p50_ms\": %.3f, "
                 "\"res_p99_ms\": %.3f, \"spf_runs_per_event\": %.2f, "
                 "\"spf_vertices_per_event\": %.1f, "
                 "\"dups_suppressed\": %llu, \"dir_events\": %llu, "
                 "\"flap_events\": %llu}%s\n",
                 r.members, mode_name(r.mode), r.bringup_kb,
                 r.dir_bytes_per_event, r.flap_bytes_per_event, r.converge_ms,
                 r.res_p50_ms, r.res_p99_ms, r.spf_runs_per_event,
                 r.spf_vertices_per_event,
                 static_cast<unsigned long long>(r.dups_suppressed),
                 static_cast<unsigned long long>(r.churn_events),
                 static_cast<unsigned long long>(r.flap_events),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path);
}

}  // namespace

int main() {
  std::printf(
      "C9 — control-plane cost proportional to change, not size\n"
      "(seeded app mobility + link flaps; all columns deterministic)\n");

  std::vector<Shape> shapes{{12, 20}, {21, 48}};  // 240, 1008 members
  if (const char* v = std::getenv("RINA_C9_MEMBERS")) {
    int want = std::atoi(v);
    if (want >= 2000) {
      // Scaled-arrangements-only point: regions of 100, as many as asked.
      shapes.push_back({std::max(20, want / 100), 100});
    }
  }
  constexpr int kFlatCap = 1100;

  std::vector<Out> rows;
  TablePrinter t({"members", "arrangement", "bring-up KB", "move B/evt",
                  "flap B/evt", "converge ms", "res p50 ms", "res p99 ms",
                  "SPF vtx/evt", "dups supp"});
  for (const Shape& s : shapes) {
    for (Mode mode : {Mode::flat, Mode::hier}) {
      if (mode == Mode::flat && s.members() > kFlatCap) {
        std::fprintf(stderr, "flat point N=%d skipped (cap %d)\n",
                     s.members(), kFlatCap);
        continue;
      }
      Out o = run_point(s, mode);
      rows.push_back(o);
      t.add_row({TablePrinter::integer(o.members), mode_name(o.mode),
                 TablePrinter::num(o.bringup_kb, 1),
                 TablePrinter::num(o.dir_bytes_per_event, 1),
                 TablePrinter::num(o.flap_bytes_per_event, 1),
                 TablePrinter::num(o.converge_ms, 1),
                 TablePrinter::num(o.res_p50_ms, 3),
                 TablePrinter::num(o.res_p99_ms, 3),
                 TablePrinter::num(o.spf_vertices_per_event, 1),
                 TablePrinter::integer(o.dups_suppressed)});
    }
  }
  t.print("C9 control-plane economy under churn");
  std::printf(
      "\nflat floods every directory change to all N members as a Sync of\n"
      "one record (no DirUpd floods) and every member re-derives all N\n"
      "routes per LSU; a returning link resyncs its two ends (one Sync of\n"
      "directory and LSDB records each, whose news floods on as one Sync,\n"
      "not one message per record), part of flap B/evt; no flap may cost\n"
      "an RMT drop.\n"
      "hier additionally confines registrations to the anchor/root chain,\n"
      "resolves by querying up with TTL caches at the edge, and\n"
      "invalidates down the recorded query tree — its win is move B/evt,\n"
      "O(interest) instead of O(N). Routing is the same in both rows:\n"
      "a flap makes every member re-derive all N routes as the link goes\n"
      "down and again as it returns, so SPF vtx/evt is ~2N^2.\n"
      "The claim: hier's move B/evt stays ~flat as N grows 240 -> 1008,\n"
      "while flat's grows with N; the price is the first-touch walk up\n"
      "the resolver chain: hier's res p50/p99 is 0.6-0.8/1.1-1.5 ms at\n"
      "either size and scale, flat's 0.404 ms (+0.2-1.1 ms).\n");
  emit_json(rows);
  return 0;
}
