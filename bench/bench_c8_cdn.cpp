// bench_c8_cdn — ROADMAP item 4: content distribution as a per-DIF
// policy. ICN architectures ("IP Over ICN", "Internames") rebuild the
// whole stack to get in-network caching; the paper's claim is that a
// DIF is a reusable IPC service that policy alone specializes for a
// job. Here the job is a CDN serving a Zipf catalog:
//
//   c1..c6  -- e1 ==backbone== core ==backbone== origin
//   c7..c12 -- e2 ==backbone==/
//
// Each client node aggregates many end users (an access network's worth
// of browsers), modeled as a seeded Zipf(α) request stream. Three
// arrangements serve the same workload:
//   RINA no-cache DIF — one DIF, every interest rides to the origin;
//   RINA caching DIF  — the *same* DIF with rmt_content_store_objects:
//                       relay RMTs answer interest hits from an ARC
//                       store and insert passing data PDUs. No client,
//                       origin or topology change — config only;
//   baseline + CDN    — classic TCP/IP with an explicit caching proxy
//                       (CdnCache middlebox) on each edge router;
//                       clients must be pointed at the box.
//
// Metrics: origin load (requests served by the origin), backbone bytes
// (both backbone hops + the origin link), cache hit ratio, p50/p99
// fetch latency, failed fetches.
//
// Set RINA_BENCH_JSON=<path> to also emit the table as JSON (the CI
// perf-smoke artifact).
#include <memory>

#include "baseline/middlebox.hpp"
#include "baseline/net.hpp"
#include "common.hpp"
#include "content/protocol.hpp"

using namespace rina;
using namespace rina::benchx;

namespace {

constexpr int kClientsPerEdge = 6;
constexpr int kClients = 2 * kClientsPerEdge;
constexpr std::size_t kObjects = 2000;      // catalog size
constexpr std::size_t kObjBytes = 1200;     // object payload
constexpr std::size_t kCacheObjects = 256;  // per-relay / per-box store
constexpr double kZipfAlpha = 1.0;
constexpr double kReqPerClient = 60.0;  // aggregated users per client node
constexpr double kAccessMbps = 200.0;
constexpr double kBackboneMbps = 100.0;
constexpr std::uint64_t kZipfSeedBase = 7100;

SimTime load_dur() { return SimTime::from_sec(3.0 * duration_scale()); }

const std::string kOriginApp = "origin";

std::string client_name(int i) { return "c" + std::to_string(i + 1); }
std::string edge_of(int i) { return i < kClientsPerEdge ? "e1" : "e2"; }

/// The origin's catalog: deterministic bytes per object id.
std::optional<Bytes> provide(const std::string& name, std::uint64_t id) {
  if (name != kOriginApp || id >= kObjects) return std::nullopt;
  return Bytes(kObjBytes, static_cast<std::uint8_t>(0x30 + (id & 0x3F)));
}

struct Out {
  std::uint64_t fetches = 0;
  std::uint64_t fetch_ok = 0;
  std::uint64_t failures = 0;       // timeouts, nacks, teardown
  std::uint64_t origin_requests = 0;
  std::uint64_t cache_replies = 0;  // interests answered before the origin
  double backbone_mb = 0;
  double hit_pct = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

void finish(Out& out, const Histogram& lat) {
  out.failures = out.fetches - out.fetch_ok;
  std::uint64_t answered = out.cache_replies + out.origin_requests;
  out.hit_pct = answered > 0 ? 100.0 * static_cast<double>(out.cache_replies) /
                                   static_cast<double>(answered)
                             : 0.0;
  out.p50_ms = lat.p50();
  out.p99_ms = lat.p99();
}

Out run_rina(bool caching) {
  Network net(caching ? 9082 : 9081);
  node::LinkOpts access;
  access.rate_bps = kAccessMbps * 1e6;
  access.delay = SimTime::from_ms(1);
  node::LinkOpts backbone;
  backbone.rate_bps = kBackboneMbps * 1e6;
  backbone.delay = SimTime::from_ms(10);
  node::LinkOpts origin_link;
  origin_link.rate_bps = kBackboneMbps * 1e6;
  origin_link.delay = SimTime::from_ms(5);

  std::vector<std::string> members{"e1", "e2", "core", "origin"};
  for (int i = 0; i < kClients; ++i) {
    net.add_link(client_name(i), edge_of(i), access);
    members.push_back(client_name(i));
  }
  net.add_link("e1", "core", backbone);
  net.add_link("e2", "core", backbone);
  net.add_link("core", "origin", origin_link);

  // One DIF over everything; the two configurations differ ONLY in the
  // RMT content-store policy knob — that is the experiment.
  node::DifSpec spec = mk_dif("cdn", members);
  spec.cfg.rmt_content_store_objects = caching ? kCacheObjects : 0;
  naming::DifName dif{"cdn"};
  if (auto r = net.build_link_dif(std::move(spec)); !r.ok()) {
    std::fprintf(stderr, "c8: build_link_dif failed: %s\n",
                 r.error().to_string().c_str());
    std::abort();
  }
  net.run_for(SimTime::from_ms(300));  // converge routing

  content::ContentServer server(provide);
  if (auto r = net.node("origin").register_app(naming::AppName(kOriginApp), dif,
                                               server.accept_fn());
      !r.ok()) {
    std::fprintf(stderr, "c8: register_app failed: %s\n",
                 r.error().to_string().c_str());
    std::abort();
  }
  net.run_for(SimTime::from_ms(100));  // flood the directory entry

  // Content flows ride the unreliable class: a relay's cache reply wears
  // the origin's endpoint identity, which only an unreliable receiver
  // accepts verbatim (see content/protocol.hpp).
  std::vector<std::unique_ptr<content::ContentClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    flow::Flow f = must_open_flow(net, client_name(i),
                                  naming::AppName(client_name(i)),
                                  naming::AppName(kOriginApp),
                                  flow::QosSpec::unreliable());
    clients.push_back(std::make_unique<content::ContentClient>(
        net.sched(), std::move(f), kOriginApp));
  }

  sim::Link* bb1 = net.link_between("e1", "core");
  sim::Link* bb2 = net.link_between("e2", "core");
  sim::Link* ol = net.link_between("core", "origin");
  std::uint64_t bytes_before = bb1->counter("tx_bytes") +
                               bb2->counter("tx_bytes") +
                               ol->counter("tx_bytes");

  Out out;
  Histogram lat_ms;
  std::vector<ZipfGen> zipf;
  for (int i = 0; i < kClients; ++i)
    zipf.emplace_back(kObjects, kZipfAlpha,
                      kZipfSeedBase + static_cast<std::uint64_t>(i));

  SimTime end = net.now() + load_dur();
  SimTime gap = SimTime::from_sec(1.0 / kReqPerClient);
  while (net.now() < end) {
    for (int i = 0; i < kClients; ++i) {
      ++out.fetches;
      SimTime t0 = net.now();
      clients[static_cast<std::size_t>(i)]->fetch(
          zipf[static_cast<std::size_t>(i)].next(),
          [&out, &lat_ms, t0, &net](Result<Bytes> r) {
            if (!r.ok()) return;
            ++out.fetch_ok;
            lat_ms.add((net.now() - t0).to_ms());
          });
    }
    net.run_for(gap);
  }
  settle(net, SimTime::from_sec(2));

  out.origin_requests = server.stats().get("requests_served");
  out.cache_replies = net.sum_dif_counter(dif, "cs_replies");
  out.backbone_mb =
      static_cast<double>(bb1->counter("tx_bytes") +
                          bb2->counter("tx_bytes") +
                          ol->counter("tx_bytes") - bytes_before) /
      1e6;
  finish(out, lat_ms);
  return out;
}

Out run_baseline() {
  using namespace rina::baseline;
  BaselineNet net(9083);
  BLinkOpts access;
  access.rate_bps = kAccessMbps * 1e6;
  access.delay = SimTime::from_ms(1);
  BLinkOpts backbone;
  backbone.rate_bps = kBackboneMbps * 1e6;
  backbone.delay = SimTime::from_ms(10);
  BLinkOpts origin_link;
  origin_link.rate_bps = kBackboneMbps * 1e6;
  origin_link.delay = SimTime::from_ms(5);

  for (int i = 0; i < kClients; ++i)
    net.add_link(client_name(i), edge_of(i), access);
  net.add_link("e1", "core", backbone);
  net.add_link("e2", "core", backbone);
  auto [core_addr, origin_addr] = net.add_link("core", "origin", origin_link);
  (void)core_addr;
  net.enable_routing();

  // Clients talk to *their edge's cache box*, not the origin — the
  // explicit-infrastructure half of the comparison: the address of the
  // box is configuration every client must carry. (The transport sources
  // segments from the node's primary address, so that is the address to
  // dial.)
  IpAddr box_addr[2] = {net.node("e1").primary_addr(),
                        net.node("e2").primary_addr()};

  // Origin: a plain TCP content responder.
  std::uint64_t origin_served = 0;
  auto& origin_ts = net.transport("origin");
  (void)origin_ts.listen(80, [&](SockId s) {
    origin_ts.set_on_data(s, [&](SockId sock, Bytes&& msg) {
      auto m = content::decode(BytesView{msg});
      if (!m.ok() || m.value().type != content::MsgType::interest) return;
      const content::Message& in = m.value();
      std::optional<Bytes> obj = provide(in.name, in.object_id);
      Bytes reply =
          obj ? content::encode_data(in.request_id, in.name, in.object_id,
                                     BytesView{*obj})
              : content::encode_nack(in.request_id, in.name, in.object_id);
      if (obj) ++origin_served;
      (void)origin_ts.send(sock, BytesView{reply});
    });
  });

  CdnCache::Config cache_cfg;
  cache_cfg.origin = origin_addr;
  cache_cfg.capacity_objects = kCacheObjects;
  CdnCache cache1(net.node("e1"), net.sched(), net.transport("e1"), cache_cfg);
  CdnCache cache2(net.node("e2"), net.sched(), net.transport("e2"), cache_cfg);

  struct Client {
    SockId sock = 0;
    std::uint64_t next_req = 1;
    std::map<std::uint64_t, SimTime> issued;
  };
  std::vector<Client> cl(static_cast<std::size_t>(kClients));
  Out out;
  Histogram lat_ms;
  int connected = 0;
  for (int i = 0; i < kClients; ++i) {
    auto& ts = net.transport(client_name(i));
    Client& c = cl[static_cast<std::size_t>(i)];
    c.sock = ts.connect(box_addr[i < kClientsPerEdge ? 0 : 1],
                        cache_cfg.listen_port, {}, [&](Result<SockId> r) {
                          if (r.ok()) ++connected;
                        });
    ts.set_on_data(c.sock, [&](SockId, Bytes&& msg) {
      auto m = content::decode(BytesView{msg});
      if (!m.ok()) return;
      auto it = c.issued.find(m.value().request_id);
      if (it == c.issued.end()) return;
      if (m.value().type == content::MsgType::data) {
        ++out.fetch_ok;
        lat_ms.add((net.sched().now() - it->second).to_ms());
      }
      c.issued.erase(it);
    });
  }
  if (!net.run_until([&] { return connected == kClients; },
                     SimTime::from_sec(5))) {
    std::fprintf(stderr, "c8: baseline clients failed to connect (%d/%d)\n",
                 connected, kClients);
    std::abort();
  }

  std::uint64_t bytes_before =
      net.link_between("e1", "core")->counter("tx_bytes") +
      net.link_between("e2", "core")->counter("tx_bytes") +
      net.link_between("core", "origin")->counter("tx_bytes");

  std::vector<ZipfGen> zipf;
  for (int i = 0; i < kClients; ++i)
    zipf.emplace_back(kObjects, kZipfAlpha,
                      kZipfSeedBase + static_cast<std::uint64_t>(i));

  SimTime end = net.now() + load_dur();
  SimTime gap = SimTime::from_sec(1.0 / kReqPerClient);
  while (net.now() < end) {
    for (int i = 0; i < kClients; ++i) {
      Client& c = cl[static_cast<std::size_t>(i)];
      std::uint64_t req = c.next_req++;
      c.issued[req] = net.now();
      ++out.fetches;
      (void)net.transport(client_name(i))
          .send(c.sock,
                BytesView{content::encode_interest(
                    req, kOriginApp,
                    zipf[static_cast<std::size_t>(i)].next())});
    }
    net.run_for(gap);
  }
  net.run_for(SimTime::from_sec(2.0 * duration_scale()));

  out.origin_requests = origin_served;
  out.cache_replies =
      cache1.stats().get("cache_hits") + cache2.stats().get("cache_hits");
  out.backbone_mb =
      static_cast<double>(
          net.link_between("e1", "core")->counter("tx_bytes") +
          net.link_between("e2", "core")->counter("tx_bytes") +
          net.link_between("core", "origin")->counter("tx_bytes") -
          bytes_before) /
      1e6;
  finish(out, lat_ms);
  return out;
}

struct Row {
  std::string config;
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
  std::fprintf(f, "{\n  \"bench\": \"c8_cdn\",\n");
  std::fprintf(f, "  \"duration_scale\": %g,\n  \"rows\": [\n",
               duration_scale());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"fetches\": %llu, "
                 "\"fetch_ok\": %llu, \"failures\": %llu, "
                 "\"origin_requests\": %llu, \"cache_replies\": %llu, "
                 "\"hit_pct\": %.2f, \"backbone_mb\": %.3f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 r.config.c_str(),
                 static_cast<unsigned long long>(r.out.fetches),
                 static_cast<unsigned long long>(r.out.fetch_ok),
                 static_cast<unsigned long long>(r.out.failures),
                 static_cast<unsigned long long>(r.out.origin_requests),
                 static_cast<unsigned long long>(r.out.cache_replies),
                 r.out.hit_pct, r.out.backbone_mb, r.out.p50_ms, r.out.p99_ms,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main() {
  std::printf(
      "C8 — content distribution: %d client nodes, %zu-object Zipf(%.1f) "
      "catalog, %zu-object caches\n",
      kClients, kObjects, kZipfAlpha, kCacheObjects);
  TablePrinter t({"configuration", "fetches", "ok", "failed", "origin reqs",
                  "cache replies", "hit %", "backbone MB", "p50 (ms)",
                  "p99 (ms)"});
  std::vector<Row> rows;
  auto add = [&](const std::string& name, const Out& o) {
    rows.push_back({name, o});
    t.add_row({name, std::to_string(o.fetches), std::to_string(o.fetch_ok),
               std::to_string(o.failures), std::to_string(o.origin_requests),
               std::to_string(o.cache_replies), TablePrinter::num(o.hit_pct, 1),
               TablePrinter::num(o.backbone_mb, 2),
               TablePrinter::num(o.p50_ms, 2), TablePrinter::num(o.p99_ms, 2)});
  };
  add("RINA no-cache DIF", run_rina(false));
  add("RINA caching DIF (RMT policy)", run_rina(true));
  add("baseline + CDN middlebox", run_baseline());
  t.print("C8 CDN workload");
  std::printf(
      "\nExpected shape: the no-cache DIF sends every request across both\n"
      "backbone hops to the origin (hit %% = 0, origin reqs = fetches). The\n"
      "caching DIF answers the Zipf head at the edge/core RMTs: origin\n"
      "requests and backbone bytes drop by the hit ratio and p50 falls to\n"
      "the client-edge RTT — with zero change to clients or origin, only\n"
      "the DIF's policy knob. The baseline gets a similar hit ratio but\n"
      "needs the explicit proxy boxes clients must be configured against.\n");
  emit_json(rows);
  return 0;
}
