// workloads.cpp — the four workloads. README.md says why each exists
// and which layers it stresses or bypasses.
#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>

#include "cap/capacity.hpp"
#include "cap/trial.hpp"
#include "histogram.hpp"

namespace rina::bench {
namespace {

using node::Network;
using Span = Tracer::Span;

node::DifSpec dif_spec(const std::string& name, std::vector<std::string> members) {
  node::DifSpec s;
  s.cfg.name = naming::DifName{name};
  s.members = std::move(members);
  return s;
}

std::string failure(const std::string& what, const Result<void>& r) {
  return what + ": " + r.error().to_string();
}

/// Network ownership, the IPCPs the snapshot sums over, and the set-up
/// calls wrapped in spans.
class Base : public Workload {
 public:
  Base(std::uint64_t seed, Tracer& tracer) : seed_(seed), tr_(tracer) {}

  Network& net() override { return *net_; }

  Snapshot snapshot() override {
    Snapshot s;
    for (const Member& m : members_) {
      ipcp::Ipcp* p = net_->node(m.node).ipcp(m.dif);
      if (p == nullptr) continue;
      auto c = [p](const char* name) { return p->counter_sum(name); };
      if (m.rank < kMaxRank) {
        Snapshot::Rank& r = s.rank[m.rank];
        r.pdus_tx += c("pdus_tx");
        r.acks_tx += c("acks_tx");
        r.pdus_retx += c("pdus_retx");
        r.pdus_dup += c("pdus_dup");
        r.reorder_drops += c("reorder_drops");
        r.relayed += c("relayed");
        r.pdus_out += c("pdus_out");
      }
      s.rmt_queue_peak = std::max(s.rmt_queue_peak, c("rmt_queue_peak"));
      s.srtt_us = std::max(s.srtt_us, c("srtt_us"));
      s.cwnd_pdus = std::max(s.cwnd_pdus, c("cwnd_pdus"));
      s.rmt_drops += c("rmt_drops");
      s.ecn_marked += c("ecn_marked");
      s.rto_fired += c("rto_fired");
      s.would_block += c("write_would_block");
      s.mgmt_bytes += c("mgmt_bytes_sent");
      s.lsus_flooded += c("lsus_flooded");
      s.riep_sent += c("riep_sent");
      s.keepalives_sent += c("keepalives_sent");
      s.hellos_sent += c("hellos_sent");
      s.spf_runs += c("spf_runs");
      s.spf_vertices += c("spf_vertices_recomputed");
      s.dir_cache_hits += c("dir_cache_hits");
      s.deltas_originated += c("deltas_originated");
      s.digest_rounds += c("digest_rounds");
    }
    s.link_tx_frames = net_->sum_link_counter("tx_frames");
    s.link_tx_bytes = net_->sum_link_counter("tx_bytes");
    s.link_queue_drops = net_->sum_link_counter("queue_drops");
    s.events = net_->events_executed();
    s.pending_timers = net_->timers_pending();
    s.ops = progress();
    s.packet = packet_counters();
    return s;
  }

 protected:
  struct Member {
    std::string node;
    naming::DifName dif;
    int rank;
  };

  void note_members(const node::DifSpec& spec, int rank) {
    for (const auto& n : spec.members) members_.push_back({n, spec.cfg.name, rank});
  }

  bool build_link(node::DifSpec spec, int rank, Checks& checks) {
    note_members(spec, rank);
    Span s(tr_, SpanName::build_link_dif);
    auto r = net_->build_link_dif(std::move(spec));
    if (!r.ok()) checks.fail("setup", failure("build_link_dif", r));
    return r.ok();
  }

  bool build_overlay(node::DifSpec spec, std::vector<Network::OverlayAdj> adjs, int rank,
                     Checks& checks) {
    note_members(spec, rank);
    Span s(tr_, SpanName::build_overlay_dif);
    auto r = net_->build_overlay_dif(std::move(spec), std::move(adjs));
    if (!r.ok()) checks.fail("setup", failure("build_overlay_dif", r));
    return r.ok();
  }

  void converge(SimTime d) {
    Span s(tr_, SpanName::converge);
    net_->run_for(d);
  }

  void run_slice(SimTime d) {
    Span s(tr_, SpanName::run_for);
    net_->run_for(d);
  }

  void require_ok(const Result<void>& r, Checks& checks, const char* check,
                  const std::string& what) {
    if (!r.ok()) checks.fail(check, failure(what, r));
  }

  std::uint64_t seed_;
  Tracer& tr_;
  std::unique_ptr<Network> net_;
  std::vector<Member> members_;
};

// ---------------------------------------------------------------------
// Data workloads: open-loop CBR sources and checking sinks.

class Datapath : public Base {
 public:
  using Base::Base;

  void start() override {
    std::uint64_t s = seed_ ^ 0x50A2CEull;
    for (auto& fp : flows_) {
      Flow* fl = fp.get();
      // Seeded phase per flow: the seed moves where flows interleave,
      // not how much they offer.
      SimTime phase{1 + static_cast<std::int64_t>(splitmix64(s) % static_cast<std::uint64_t>(gap_.ns))};
      fl->source = net_->sched().periodic(gap_, [this, fl] { tick(*fl); });
      (void)fl->source.rearm_at(net_->now() + phase);
    }
  }

  void reference(Report& report, Digest& digest, Checks& checks) override {
    recording_ = false;
    auto n = static_cast<std::int64_t>(latency_.count());
    checks.require(latency_.beyond(99.9) >= 10, "latency_samples",
                   "p99.9 needs 10 samples beyond it, reference window has " +
                       std::to_string(n));
    report.e2e("latency_p50_ms", static_cast<double>(latency_.percentile(50)) / 1e6, "ms",
               true, n);
    report.e2e("latency_p999_ms", static_cast<double>(latency_.percentile(99.9)) / 1e6,
               "ms", true, n);
    for (const auto& f : flows_) {
      digest.add(f->ledger.accepted_count());
      digest.add(f->ledger.delivered());
    }
    const auto& b = latency_.buckets();
    for (std::size_t i = 0; i < b.size(); ++i)
      if (b[i] != 0) {
        digest.add(i);
        digest.add(b[i]);
      }
    digest.add(net_->sum_link_counter("tx_bytes"));
    digest.add(net_->sum_link_counter("tx_frames"));
  }

  void finish() override {
    for (auto& f : flows_) f->source.cancel();
    (void)net_->run_until(
        [this] {
          for (const auto& f : flows_)
            if (f->ledger.delivered() < f->ledger.accepted_count()) return false;
          return true;
        },
        SimTime::from_sec(5));
  }

  void verify(Checks& checks, const Snapshot& run) override {
    for (const auto& f : flows_) {
      std::string label = "flow " + std::to_string(f->id);
      f->ledger.verify(checks, label);
      checks.require(f->write_errors == 0, "write_error",
                     label + ": " + std::to_string(f->write_errors) +
                         " writes failed other than would_block");
    }
    checks.require_nonzero("link tx_frames", run.link_tx_frames);
    verify_layers(checks, run);
  }

  [[nodiscard]] Ops ops() const override {
    Ops o;
    for (const auto& f : flows_) {
      o.attempted += f->ledger.offered();
      o.failed += f->ledger.refused_count() +
                  (f->ledger.accepted_count() - std::min(f->ledger.accepted_count(),
                                                         f->ledger.delivered()));
    }
    return o;
  }

  [[nodiscard]] std::uint64_t progress() const override { return delivered_; }

 protected:
  struct Flow {
    Flow(std::uint64_t seed, std::uint32_t flow_id, std::size_t sdu)
        : ledger(seed, flow_id, sdu), id(flow_id) {}
    FlowLedger ledger;
    std::uint32_t id;
    flow::Flow handle;
    sim::Timer source;
    std::uint64_t write_errors = 0;
  };

  /// Counters this workload's layers must move during the run.
  virtual void verify_layers(Checks& checks, const Snapshot& run) = 0;

  /// One CBR firing: offer the SDU that is due now.
  virtual void tick(Flow& fl) { send(fl); }

  void add_flows(std::size_t n, std::size_t sdu_bytes, SimTime gap) {
    gap_ = gap;
    for (std::size_t i = 0; i < n; ++i)
      flows_.push_back(std::make_unique<Flow>(seed_, static_cast<std::uint32_t>(i + 1),
                                              sdu_bytes));
  }

  static naming::AppName src_app(std::size_t i) {
    return naming::AppName("src" + std::to_string(i));
  }
  static naming::AppName sink_app(std::size_t i) {
    return naming::AppName("sink" + std::to_string(i));
  }

  bool register_sink(std::size_t i, const std::string& node, const naming::DifName& dif,
                     Checks& checks) {
    Flow* fl = flows_[i].get();
    Span s(tr_, SpanName::register_app);
    auto r = net_->node(node).register_app(sink_app(i), dif, [this, fl](flow::Flow f) {
      f.on_readable([this, fl](flow::Flow& h) { drain(*fl, h); });
    });
    require_ok(r, checks, "setup", "register_app " + sink_app(i).to_string());
    return r.ok();
  }

  /// Name-only allocation of every flow from its source node; one wait
  /// for all (per-flow waits would serialize the round trips).
  bool open_flows(const std::vector<std::string>& from, const flow::QosSpec& spec,
                  Checks& checks) {
    Span s(tr_, SpanName::allocate);
    for (std::size_t i = 0; i < flows_.size(); ++i)
      flows_[i]->handle = net_->node(from[i]).allocate_flow(src_app(i), sink_app(i), spec);
    (void)net_->run_until(
        [this] {
          for (const auto& f : flows_)
            if (f->handle.is_allocating()) return false;
          return true;
        },
        SimTime::from_sec(30));
    bool ok = true;
    for (const auto& f : flows_) {
      if (f->handle.is_open()) continue;
      checks.fail("setup", "flow " + std::to_string(f->id) + " did not open: " +
                               (f->handle.is_allocating() ? std::string("timeout")
                                                          : f->handle.error().to_string()));
      ok = false;
    }
    return ok;
  }

  void send(Flow& fl) {
    Span s(tr_, SpanName::bench_source, fl.id);
    BytesView sdu = fl.ledger.next(net_->now());
    Result<void> r;
    {
      Span w(tr_, SpanName::flow_write, fl.id);
      r = fl.handle.write(sdu);
    }
    if (r.ok()) {
      fl.ledger.accepted();
      return;
    }
    fl.ledger.refused();
    if (r.error().code != Err::would_block) ++fl.write_errors;
  }

  void drain(Flow& fl, flow::Flow& h) {
    Span s(tr_, SpanName::bench_sink, fl.id);
    for (;;) {
      std::optional<Bytes> sdu;
      {
        Span r(tr_, SpanName::flow_read, fl.id);
        sdu = h.read();
      }
      if (!sdu) return;
      std::int64_t lat = fl.ledger.receive(BytesView{*sdu}, net_->now());
      if (lat < 0) continue;
      ++delivered_;
      if (recording_) latency_.add(static_cast<std::uint64_t>(lat));
    }
  }

  std::vector<std::unique_ptr<Flow>> flows_;
  SimTime gap_{};
  LogHistogram latency_;
  bool recording_ = true;
  std::uint64_t delivered_ = 0;
};

// ---------------------------------------------------------------------
// stack_datapath: hostA — b1 — b2 — hostB, lossless 1 Gb/s wires.
// depth 1: one flat DIF; depth >= 2: rank 0 is one DIF per wire, rank 1
// a path DIF relayed at b1 and b2, ranks 2.. 2-member DIFs stacked on
// the rank below. The workload is depth 3; the ledger sweeps 1..4.

class StackDatapath : public Datapath {
 public:
  static constexpr std::size_t kFlows = 4;
  static constexpr std::size_t kSdu = 64;
  // ~25% of a 1 Gb/s wire at depth 3: 4 x 51k SDU/s of 152-byte frames.
  static constexpr double kSduPerSec = 51000;

  StackDatapath(std::uint64_t seed, Tracer& tracer, int depth)
      : Datapath(seed, tracer), depth_(depth) {}

  void setup(Checks& checks) override {
    net_ = std::make_unique<Network>(seed_);
    node::LinkOpts wire;
    wire.rate_bps = 1e9;
    net_->add_link("hostA", "b1", wire);
    net_->add_link("b1", "b2", wire);
    net_->add_link("b2", "hostB", wire);
    add_flows(kFlows, kSdu, SimTime::from_sec(1.0 / kSduPerSec));

    if (depth_ == 1) {
      if (!build_link(dif_spec("flat", {"hostA", "b1", "b2", "hostB"}), 0, checks)) return;
      top_ = naming::DifName{"flat"};
    } else {
      if (!build_link(dif_spec("w0", {"hostA", "b1"}), 0, checks) ||
          !build_link(dif_spec("w1", {"b1", "b2"}), 0, checks) ||
          !build_link(dif_spec("w2", {"b2", "hostB"}), 0, checks))
        return;
      if (!build_overlay(dif_spec("path", {"hostA", "b1", "b2", "hostB"}),
                         {{"hostA", "b1", naming::DifName{"w0"}, {}},
                          {"b1", "b2", naming::DifName{"w1"}, {}},
                          {"b2", "hostB", naming::DifName{"w2"}, {}}},
                         1, checks))
        return;
      top_ = naming::DifName{"path"};
      for (int rank = 2; rank < depth_; ++rank) {
        std::string name = "app" + std::to_string(rank);
        if (!build_overlay(dif_spec(name, {"hostA", "hostB"}),
                           {{"hostA", "hostB", top_, {}}}, rank, checks))
          return;
        top_ = naming::DifName{name};
      }
    }
    for (std::size_t i = 0; i < kFlows; ++i)
      if (!register_sink(i, "hostB", top_, checks)) return;
    converge(SimTime::from_ms(60));
    open_flows(std::vector<std::string>(kFlows, "hostA"), flow::QosSpec::reliable_default(),
               checks);
  }

  void step() override { run_slice(SimTime::from_ms(1)); }
  [[nodiscard]] std::uint64_t reference_steps() const override { return 200; }

  [[nodiscard]] LayerProbe probe() const override {
    LayerProbe p;
    p.relay_node = "b1";
    p.relay_dif = naming::DifName{depth_ == 1 ? "flat" : "path"};
    p.graph_dif = p.relay_dif;
    p.graph_edges = {{"hostA", "b1"}, {"b1", "b2"}, {"b2", "hostB"}};
    p.dir_node = "hostA";
    p.dir_dif = top_;
    p.pdu_bytes = kSdu;
    return p;
  }

 protected:
  void verify_layers(Checks& checks, const Snapshot& run) override {
    int ranks = std::min(depth_, kMaxRank);
    for (int k = 0; k < ranks; ++k)
      checks.require_nonzero("efcp rank " + std::to_string(k) + " pdus_tx",
                             run.rank[k].pdus_tx);
    checks.require_nonzero("rmt rank " + std::to_string(depth_ == 1 ? 0 : 1) + " relayed",
                           run.rank[depth_ == 1 ? 0 : 1].relayed);
    if (depth_ <= kMaxRank)
      checks.require_nonzero("efcp top rank acks_tx", run.rank[depth_ - 1].acks_tx);
  }

 private:
  int depth_;
  naming::DifName top_;
};

// ---------------------------------------------------------------------
// capacity_knee: the c10 dumbbell, h1..h3 — r1 ==bottleneck== r2 —
// s1..s3, one DIF with CUBIC on the bulk cube and ECN marking at 48.

class CapacityKnee : public Datapath {
 public:
  static constexpr int kFlows = 3;
  static constexpr std::size_t kSdu = 1000;
  static constexpr double kBottleneckBps = 300e6;
  static constexpr double kLoad = 0.9;  // the fixed trial, share of the bottleneck

  static double bottleneck_pps() { return kBottleneckBps / 8.0 / kSdu; }

  using Datapath::Datapath;

  void setup(Checks& checks) override {
    net_ = std::make_unique<Network>(seed_);
    add_flows(kFlows, kSdu, SimTime::from_sec(kFlows / (kLoad * bottleneck_pps())));
    node::DifSpec spec = wire_dumbbell(*net_);
    if (!build_link(std::move(spec), 0, checks)) return;
    for (int i = 0; i < kFlows; ++i)
      if (!register_sink(static_cast<std::size_t>(i), sink_node(i), kDif, checks)) return;
    converge(SimTime::from_ms(60));
    std::vector<std::string> from;
    for (int i = 0; i < kFlows; ++i) from.push_back(src_node(i));
    open_flows(from, flow::QosSpec::reliable_default(), checks);
  }

  void step() override { run_slice(SimTime::from_ms(5)); }
  [[nodiscard]] std::uint64_t reference_steps() const override { return 200; }

  /// The CapacitySearch over fresh seeded dumbbells: the highest
  /// aggregate rate holding >= 99.5% delivery, to 0.5% of the bottleneck.
  void extra(Report& report, Digest& digest, Checks& checks, bool traced) override {
    cap::FlowTrialConfig tcfg;
    tcfg.warmup = SimTime::from_ms(500);
    tcfg.measure = SimTime::from_sec(2);
    tcfg.drain = SimTime::from_ms(500);
    tcfg.sdu_bytes = kSdu;
    std::uint64_t trial_seed = seed_ ^ 0xC10ull;
    std::uint64_t trial_bad = 0;
    auto trial = [&](double pps) -> cap::TrialResult {
      Span s(tr_, SpanName::cap_trial);
      Network net(trial_seed);
      if (!net.build_link_dif(wire_dumbbell(net)).ok()) {
        ++trial_bad;
        return {};
      }
      std::vector<cap::SeqSink> sinks(kFlows);
      for (int i = 0; i < kFlows; ++i) {
        cap::SeqSink* sink = &sinks[static_cast<std::size_t>(i)];
        auto r = net.node(sink_node(i)).register_app(
            sink_app(static_cast<std::size_t>(i)), kDif, [sink](flow::Flow f) {
              f.on_readable([sink](flow::Flow& h) {
                while (auto sdu = h.read()) sink->deliver(BytesView{*sdu});
              });
            });
        if (!r.ok()) ++trial_bad;
      }
      net.run_for(SimTime::from_ms(60));
      std::vector<flow::Flow> flows;
      for (int i = 0; i < kFlows; ++i)
        flows.push_back(net.node(src_node(i)).allocate_flow(
            src_app(static_cast<std::size_t>(i)), sink_app(static_cast<std::size_t>(i)),
            flow::QosSpec::reliable_default()));
      (void)net.run_until(
          [&] {
            for (const auto& f : flows)
              if (f.is_allocating()) return false;
            return true;
          },
          SimTime::from_sec(10));
      for (const auto& f : flows)
        if (!f.is_open()) ++trial_bad;
      cap::TrialResult t = cap::run_flow_trial(net, flows, sinks, pps, tcfg);
      for (const auto& sk : sinks) trial_bad += sk.duplicates() + sk.corrupt();
      return t;
    };

    cap::SearchConfig scfg;
    scfg.min_pps = 0.5 * bottleneck_pps();
    scfg.max_pps = 1.1 * bottleneck_pps();
    scfg.uncertainty_pps = 0.005 * bottleneck_pps();
    scfg.delivery_threshold = 0.995;
    cap::SearchResult res = cap::CapacitySearch(scfg).run(trial);
    checks.require(trial_bad == 0, "capacity_trial",
                   std::to_string(trial_bad) +
                       " trial faults (set-up failures, duplicate or corrupt SDUs)");
    checks.require(res.converged(scfg) && !res.floor_unsustained && !res.ceiling_sustained,
                   "capacity_search",
                   "search did not bracket the knee (probes " +
                       std::to_string(res.probes) + ")");
    report.e2e("capacity_pps", res.capacity_pps, "PDU/s", true);
    digest.add(static_cast<std::uint64_t>(res.capacity_pps * 1000.0));
    if (traced) {
      const Tracer::Stat& st = tr_.stat(SpanName::cap_trial);
      report.metric("cap.probes", res.probes, true);
      report.metric("cap.trial_s",
                      st.count == 0 ? 0.0 : static_cast<double>(st.total_ns) / 1e9 /
                                                static_cast<double>(st.count));
    }
  }

  [[nodiscard]] LayerProbe probe() const override {
    LayerProbe p;
    p.relay_node = "r1";
    p.relay_dif = kDif;
    p.graph_dif = kDif;
    p.graph_edges = {{"r1", "r2"}};
    for (int i = 0; i < kFlows; ++i) {
      p.graph_edges.emplace_back(src_node(i), "r1");
      p.graph_edges.emplace_back("r2", sink_node(i));
    }
    p.dir_node = src_node(0);
    p.dir_dif = kDif;
    p.pdu_bytes = kSdu;
    return p;
  }

 protected:
  void verify_layers(Checks& checks, const Snapshot& run) override {
    checks.require_nonzero("efcp rank 0 pdus_tx", run.rank[0].pdus_tx);
    checks.require_nonzero("efcp rank 0 acks_tx", run.rank[0].acks_tx);
    checks.require_nonzero("rmt rank 0 relayed", run.rank[0].relayed);
  }

 private:
  inline static const naming::DifName kDif{"cap"};
  static std::string src_node(int i) { return "h" + std::to_string(i + 1); }
  static std::string sink_node(int i) { return "s" + std::to_string(i + 1); }

  /// Wire the dumbbell into `net` and return its DIF's blueprint.
  static node::DifSpec wire_dumbbell(Network& net) {
    node::LinkOpts access;
    access.rate_bps = 1e9;
    node::LinkOpts bottleneck;
    bottleneck.rate_bps = kBottleneckBps;
    bottleneck.delay = SimTime::from_ms(2);
    std::vector<std::string> members{"r1", "r2"};
    for (int i = 0; i < kFlows; ++i) {
      net.add_link(src_node(i), "r1", access);
      net.add_link("r2", sink_node(i), access);
      members.push_back(src_node(i));
      members.push_back(sink_node(i));
    }
    net.add_link("r1", "r2", bottleneck);
    node::DifSpec spec = dif_spec(kDif.value, members);
    flow::QosCube bulk;
    bulk.id = 0;
    bulk.name = "bulk";
    bulk.efcp_policy = "reliable";
    bulk.dtcp_policy = "cubic";
    bulk.reliable = true;
    bulk.in_order = true;
    spec.cfg.cubes = {bulk};
    spec.cfg.rmt_ecn_threshold = 48;
    return spec;
  }
};

// ---------------------------------------------------------------------
// timer_scale: bench_c5's C5b shape — independent 10-node star regions
// (border + 7 spokes + 2 hosts), each its own keepalive-enabled DIF, on
// one scheduler. Every node runs a 1 ms housekeeping tick and standing
// soft-state timers; every flow an idle timer rearmed per SDU. C5b's
// 10k-node point holds ~660k pending timers; set-up there grows with the
// square of the region count (each region's build runs every earlier
// region's keepalives), so this point keeps 2,500 nodes and carries 256
// soft-state timers per node to hold the pending set at that size.

class TimerScale : public Datapath {
 public:
  static constexpr int kRegions = 250;
  static constexpr int kSpokes = 7;
  static constexpr int kNodesPerRegion = kSpokes + 3;
  static constexpr int kSoftPerNode = 256;
  static constexpr std::size_t kSdu = 64;

  using Datapath::Datapath;

  void setup(Checks& checks) override {
    net_ = std::make_unique<Network>(seed_);
    add_flows(kRegions, kSdu, SimTime::from_ms(20));
    for (int r = 0; r < kRegions; ++r) {
      std::vector<std::string> members{border(r)};
      for (int m = 1; m <= kSpokes; ++m) {
        net_->add_link(border(r), spoke(r, m));
        members.push_back(spoke(r, m));
      }
      net_->add_link(host_a(r), spoke(r, 1));
      net_->add_link(host_b(r), border(r));
      members.push_back(host_a(r));
      members.push_back(host_b(r));
      node::DifSpec spec = dif_spec(region_dif(r).value, std::move(members));
      spec.cfg.keepalive_enabled = true;
      if (!build_link(std::move(spec), 0, checks)) return;
    }
    converge(SimTime::from_ms(400));
    for (int r = 0; r < kRegions; ++r)
      if (!register_sink(static_cast<std::size_t>(r), host_b(r), region_dif(r), checks))
        return;
    converge(SimTime::from_ms(200));
    std::vector<std::string> from;
    for (int r = 0; r < kRegions; ++r) from.push_back(host_a(r));
    if (!open_flows(from, flow::QosSpec{}, checks)) return;

    // The standing timer population. Ticks are staggered over 16 phases
    // of their period; soft-state periods spread over 1.0-2.875 s, each
    // first firing at a hashed phase within its period, so refreshes are
    // desynchronized and the load is steady from the first millisecond.
    const SimTime tick = SimTime::from_ms(1);
    const int nodes = kRegions * kNodesPerRegion;
    ticks_.reserve(static_cast<std::size_t>(nodes));
    soft_.reserve(static_cast<std::size_t>(nodes) * kSoftPerNode);
    std::uint64_t phase_rng = 0x50F7ull;
    for (int i = 0; i < nodes; ++i) {
      sim::Timer t = net_->sched().periodic(tick, [this] { ++tick_fires_; });
      (void)t.rearm_at(net_->now() + SimTime{tick.ns * ((i % 16) + 1) / 16});
      ticks_.push_back(std::move(t));
      for (int j = 0; j < kSoftPerNode; ++j) {
        SimTime period{SimTime::from_sec(1).ns +
                       ((i * kSoftPerNode + j) % 16) * SimTime::from_ms(125).ns};
        sim::Timer s = net_->sched().periodic(period, [this] { ++soft_fires_; });
        auto phase = static_cast<std::int64_t>(splitmix64(phase_rng) %
                                               static_cast<std::uint64_t>(period.ns));
        (void)s.rearm_at(net_->now() + SimTime{1 + phase});
        soft_.push_back(std::move(s));
      }
    }
    idles_.resize(flows_.size());
    for (auto& t : idles_) t = idle_timer();
  }

  void step() override { run_slice(SimTime::from_ms(10)); }
  [[nodiscard]] std::uint64_t reference_steps() const override { return 100; }

  void reference(Report& report, Digest& digest, Checks& checks) override {
    Datapath::reference(report, digest, checks);
    digest.add(tick_fires_);
    digest.add(soft_fires_);
    digest.add(idle_fires_);
  }

  [[nodiscard]] LayerProbe probe() const override {
    LayerProbe p;
    p.relay_node = spoke(0, 1);
    p.relay_dif = region_dif(0);
    p.graph_dif = region_dif(0);
    for (int m = 1; m <= kSpokes; ++m) p.graph_edges.emplace_back(border(0), spoke(0, m));
    p.graph_edges.emplace_back(host_a(0), spoke(0, 1));
    p.graph_edges.emplace_back(host_b(0), border(0));
    p.dir_node = host_a(0);
    p.dir_dif = region_dif(0);
    p.pdu_bytes = kSdu;
    return p;
  }

 protected:
  void tick(Flow& fl) override {
    send(fl);
    sim::Timer& idle = idles_[fl.id - 1];
    if (!idle.rearm(kIdleTimeout)) idle = idle_timer();
  }

  void verify_layers(Checks& checks, const Snapshot& run) override {
    checks.require_nonzero("efcp rank 0 pdus_tx", run.rank[0].pdus_tx);
    checks.require_nonzero("rmt rank 0 relayed", run.rank[0].relayed);
    checks.require_nonzero("ipcp keepalives_sent", run.keepalives_sent);
    checks.require_nonzero("housekeeping ticks", tick_fires_);
    checks.require_nonzero("soft-state timer firings", soft_fires_);
  }

 private:
  static constexpr SimTime kIdleTimeout = SimTime::from_ms(25);

  static std::string border(int r) { return "b" + std::to_string(r); }
  static std::string spoke(int r, int m) {
    return "s" + std::to_string(r) + "_" + std::to_string(m);
  }
  static std::string host_a(int r) { return "hA" + std::to_string(r); }
  static std::string host_b(int r) { return "hB" + std::to_string(r); }
  static naming::DifName region_dif(int r) {
    return naming::DifName{"reg" + std::to_string(r)};
  }

  sim::Timer idle_timer() {
    return net_->sched().schedule_after(kIdleTimeout, [this] { ++idle_fires_; });
  }

  std::vector<sim::Timer> ticks_, soft_, idles_;
  std::uint64_t tick_fires_ = 0, soft_fires_ = 0, idle_fires_ = 0;
};

// ---------------------------------------------------------------------
// control_churn: bench_c9's one-DIF region ring (anchor + spokes per
// region, anchors in a ring) with the default DifConfig, so it measures
// whichever control plane is the default. One churn cycle is 4 seeded
// app moves, 2 ring-link flaps (rerouting without partition: every
// member reruns SPF), then 250 name-only allocations from far-region
// clients (every third repeats the previous target), each deallocated
// again. The reference window is the first 4 cycles: 16 moves, 8 flaps
// and 1000 allocations. A cycle is also the unit rina_bench times, so
// every timed chunk holds the same mix of churn and allocation.

class ControlChurn : public Base {
 public:
  static constexpr int kRegions = 12;
  static constexpr int kPerRegion = 20;  // anchor included
  static constexpr int kApps = 2 * kRegions;
  static constexpr int kMoves = 4;
  static constexpr int kFlaps = 2;
  static constexpr int kAllocs = 250;
  static constexpr int kCycle = kMoves + kFlaps + kAllocs;
  static constexpr int kRefCycles = 4;

  using Base::Base;

  void setup(Checks& checks) override {
    net_ = std::make_unique<Network>(seed_);
    rng_ = seed_ * 0x9E3779B97F4A7C15ull ^ 0xC9ull;
    node::DifSpec spec = dif_spec(kDif.value, {});
    for (int r = 0; r < kRegions; ++r) {
      auto reg = static_cast<std::uint16_t>(r + 1);
      spec.members.push_back(anchor(r));
      spec.addresses[anchor(r)] = naming::Address{reg, 1};
      for (int m = 1; m < kPerRegion; ++m) {
        net_->add_link(anchor(r), spoke(r, m));
        spec.members.push_back(spoke(r, m));
        spec.addresses[spoke(r, m)] = naming::Address{reg, static_cast<std::uint16_t>(m + 1)};
      }
      net_->add_link(anchor(r), anchor((r + 1) % kRegions));
    }
    addresses_ = spec.addresses;
    member_names_ = spec.members;
    if (!build_link(std::move(spec), 0, checks)) return;
    converge(SimTime::from_ms(600));
    homes_.resize(kApps);
    for (int i = 0; i < kApps; ++i) {
      homes_[static_cast<std::size_t>(i)] = {i % kRegions, 1 + pick(kPerRegion - 1)};
      if (!register_svc(i, checks)) return;
    }
    converge(SimTime::from_ms(300));
  }

  void step() override {
    int at = static_cast<int>(steps_ % kCycle);
    bool in_ref = steps_ < reference_steps();
    if (at < kMoves + kFlaps) {
      std::uint64_t bytes0 = in_ref ? mgmt_bytes() : 0;
      if (at < kMoves) move(in_ref && steps_ / kCycle == kRefCycles - 1 && at == kMoves - 1);
      else flap();
      if (in_ref) churn_bytes_ += mgmt_bytes() - bytes0;
    } else {
      allocate_one();
    }
    ++steps_;
  }
  [[nodiscard]] std::uint64_t reference_steps() const override {
    return static_cast<std::uint64_t>(kRefCycles) * kCycle;
  }
  [[nodiscard]] std::uint64_t chunk_steps() const override { return kCycle; }

  void reference(Report& report, Digest& digest, Checks& checks) override {
    recording_ = false;
    auto n = static_cast<std::int64_t>(resolve_.count());
    checks.require(resolve_.beyond(99) >= 10, "latency_samples",
                   "p99 needs 10 samples beyond it, reference window has " +
                       std::to_string(n));
    report.e2e("converge_ms", converge_ms_, "ms", true);
    report.e2e("resolve_p50_ms", static_cast<double>(resolve_.percentile(50)) / 1e6, "ms",
               true, n);
    report.e2e("resolve_p99_ms", static_cast<double>(resolve_.percentile(99)) / 1e6, "ms",
               true, n);
    report.e2e("control_bytes_per_event",
               static_cast<double>(churn_bytes_) / (kRefCycles * (kMoves + kFlaps)), "B", true);
    const auto& b = resolve_.buckets();
    for (std::size_t i = 0; i < b.size(); ++i)
      if (b[i] != 0) {
        digest.add(i);
        digest.add(b[i]);
      }
    digest.add(churn_bytes_);
    digest.add(static_cast<std::uint64_t>(converge_ms_ * 1e6));
    digest.add(tally_.opened);
    digest.add(net_->sum_link_counter("tx_bytes"));
  }

  void finish() override { run_slice(SimTime::from_ms(100)); }

  void verify(Checks& checks, const Snapshot& run) override {
    tally_.verify(checks);
    checks.require_nonzero("ipcp mgmt_bytes_sent", run.mgmt_bytes);
    checks.require_nonzero("ipcp lsus_flooded", run.lsus_flooded);
    checks.require_nonzero("routing spf_runs", run.spf_runs);
    checks.require_nonzero("ipcp riep_sent", run.riep_sent);
    for (const Failure& f : faults_) checks.fail(f.check, f.detail);
  }

  [[nodiscard]] Ops ops() const override {
    return {tally_.attempted, tally_.attempted - tally_.opened};
  }
  [[nodiscard]] std::uint64_t progress() const override { return tally_.opened; }

  [[nodiscard]] LayerProbe probe() const override {
    LayerProbe p;
    p.relay_node = anchor(0);
    p.relay_dif = kDif;
    p.graph_dif = kDif;
    for (int r = 0; r < kRegions; ++r) {
      for (int m = 1; m < kPerRegion; ++m) p.graph_edges.emplace_back(anchor(r), spoke(r, m));
      p.graph_edges.emplace_back(anchor(r), anchor((r + 1) % kRegions));
    }
    p.dir_node = spoke(0, 1);
    p.dir_dif = kDif;
    p.pdu_bytes = 96;  // a FlowReq RIEP message with its names
    return p;
  }

 private:
  struct Home {
    int region;
    int idx;  // spoke index, 1..kPerRegion-1
  };

  inline static const naming::DifName kDif{"ctl"};
  static std::string anchor(int r) { return "a" + std::to_string(r); }
  static std::string spoke(int r, int m) {
    return "n" + std::to_string(r) + "_" + std::to_string(m);
  }
  static naming::AppName svc(int i) { return naming::AppName("svc" + std::to_string(i)); }
  [[nodiscard]] std::string home_node(int app) const {
    const Home& h = homes_[static_cast<std::size_t>(app)];
    return spoke(h.region, h.idx);
  }

  int pick(int n) { return static_cast<int>(splitmix64(rng_) % static_cast<std::uint64_t>(n)); }

  std::uint64_t mgmt_bytes() { return net_->sum_dif_counter(kDif, "mgmt_bytes_sent"); }

  void fault(const char* check, std::string detail) {
    if (faults_.size() < 16) faults_.push_back({check, std::move(detail)});
  }

  bool register_svc(int i, Checks& checks) {
    std::string at = home_node(i);
    Span s(tr_, SpanName::register_app);
    auto r = net_->node(at).register_app(svc(i), kDif, [this, i, at](flow::Flow f) {
      if (home_node(i) == at) ++tally_.accepted_at_home;
      else ++tally_.accepted_elsewhere;
      f.on_closed([this](flow::Flow&) { ++tally_.server_closed; });
    });
    require_ok(r, checks, "setup", "register_app " + svc(i).to_string());
    return r.ok();
  }

  /// Does every member's directory map `app` to its current home?
  /// Scans from the first member that did not yet; flooding only ever
  /// adds the new binding, so agreement is monotone within a move.
  bool directory_agrees(int app, std::size_t& from) {
    std::optional<naming::Address> want = addresses_.at(home_node(app));
    for (; from < member_names_.size(); ++from) {
      ipcp::Ipcp* p = net_->node(member_names_[from]).ipcp(kDif);
      if (p->directory().lookup(svc(app)) != want) return false;
    }
    return true;
  }

  void move(bool clock_convergence) {
    int i = pick(kApps);
    Result<void> r;
    {
      Span u(tr_, SpanName::unregister_app);
      r = net_->node(home_node(i)).ipcp(kDif)->fa().unregister_app(svc(i));
    }
    if (!r.ok()) fault("move", failure("unregister_app " + svc(i).to_string(), r));
    run_slice(SimTime::from_ms(30));
    homes_[static_cast<std::size_t>(i)] = {pick(kRegions), 1 + pick(kPerRegion - 1)};
    Checks local;
    if (!register_svc(i, local)) fault("move", local.failures().front().detail);
    const SimTime settle = SimTime::from_ms(60);
    std::size_t from = 0;
    if (clock_convergence) {
      // bench_c9's definition: from the re-registration until every
      // member's directory serves the new binding.
      SimTime t0 = net_->now();
      {
        Span s(tr_, SpanName::run_for);
        (void)net_->run_until([&] { return directory_agrees(i, from); }, settle);
      }
      SimTime took = net_->now() - t0;
      converge_ms_ = took.to_ms();
      if (took < settle) run_slice(settle - took);
    } else {
      run_slice(settle);
    }
    if (!directory_agrees(i, from))
      fault("directory", member_names_[from] + " does not resolve " + svc(i).to_string() +
                             " to its new home after " + std::to_string(settle.to_ms()) +
                             " ms");
  }

  void flap() {
    int r = pick(kRegions);
    std::string a = anchor(r), b = anchor((r + 1) % kRegions);
    for (bool up : {false, true}) {
      Result<void> res;
      {
        Span s(tr_, SpanName::set_link_state);
        res = net_->set_link_state(a, b, up);
      }
      if (!res.ok()) fault("flap", failure("set_link_state " + a + "-" + b, res));
      run_slice(SimTime::from_ms(60));
    }
  }

  void allocate_one() {
    int k = static_cast<int>(tally_.attempted);
    int i = k % 3 == 2 ? prev_target_ : pick(kApps);
    prev_target_ = i;
    int region = (homes_[static_cast<std::size_t>(i)].region + 2) % kRegions;
    ++tally_.attempted;
    SimTime t0 = net_->now();
    flow::Flow f;
    {
      Span s(tr_, SpanName::allocate);
      f = net_->node(spoke(region, 1))
              .allocate_flow(naming::AppName("cli" + std::to_string(k)), svc(i),
                             flow::QosSpec{});
      (void)net_->run_until([&] { return !f.is_allocating(); }, SimTime::from_sec(8));
    }
    if (!f.is_open()) {
      fault("allocation", "cli" + std::to_string(k) + " -> " + svc(i).to_string() + ": " +
                              (f.is_allocating() ? std::string("timeout")
                                                 : f.error().to_string()));
      return;
    }
    ++tally_.opened;
    if (recording_) resolve_.add(static_cast<std::uint64_t>((net_->now() - t0).ns));
    std::uint64_t closed_target = tally_.server_closed + 1;
    Span s(tr_, SpanName::deallocate);
    f.deallocate();
    (void)net_->run_until(
        [&] {
          return f.state() == flow::FlowState::closed && tally_.server_closed >= closed_target;
        },
        SimTime::from_sec(2));
  }

  std::uint64_t rng_ = 0;
  std::map<std::string, naming::Address> addresses_;
  std::vector<std::string> member_names_;
  std::vector<Home> homes_;
  std::uint64_t steps_ = 0;
  int prev_target_ = 0;
  AllocTally tally_;
  std::uint64_t churn_bytes_ = 0;  // mgmt bytes of the reference moves and flaps
  double converge_ms_ = 0;
  LogHistogram resolve_;
  bool recording_ = true;
  std::vector<Failure> faults_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Tracer& tracer) {
  if (name == "stack_datapath") return std::make_unique<StackDatapath>(seed, tracer, 3);
  if (name == "capacity_knee") return std::make_unique<CapacityKnee>(seed, tracer);
  if (name == "timer_scale") return std::make_unique<TimerScale>(seed, tracer);
  if (name == "control_churn") return std::make_unique<ControlChurn>(seed, tracer);
  return nullptr;
}

DepthCost measure_depth(int depth, std::uint64_t seed, Tracer& tracer, Checks& checks) {
  StackDatapath w(seed, tracer, depth);
  Checks local;
  w.setup(local);
  DepthCost out;
  if (local.ok()) {
    w.start();
    w.net().run_for(SimTime::from_ms(10));  // past the first window's ramp
    Snapshot s0 = w.snapshot();
    std::vector<double> ns;
    for (int i = 0; i < 3; ++i) {
      std::uint64_t d0 = w.progress();
      auto t0 = std::chrono::steady_clock::now();
      w.net().run_for(SimTime::from_ms(20));
      double wall = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      std::uint64_t d = w.progress() - d0;
      ns.push_back(d == 0 ? 0.0 : wall / static_cast<double>(d));
    }
    Snapshot s1 = w.snapshot();
    std::sort(ns.begin(), ns.end());
    out.ns_per_sdu = ns[1];
    std::uint64_t sdus = s1.ops - s0.ops;
    out.bytes_per_sdu = sdus == 0 ? 0.0
                                  : static_cast<double>(s1.link_tx_bytes - s0.link_tx_bytes) /
                                        static_cast<double>(sdus);
    w.finish();
    w.verify(local, w.snapshot());
  }
  for (const Failure& f : local.failures())
    checks.fail(f.check, "depth " + std::to_string(depth) + ": " + f.detail);
  return out;
}

}  // namespace rina::bench
