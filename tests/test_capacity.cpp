// test_capacity — the capacity-search subsystem and the policy depth
// under it: the RttEstimator (Karn's rule, RTO backoff/decay, SRTT
// convergence on a known delay trace), CUBIC window dynamics
// (grow/halve/fast-convergence), delay_based (Vegas) backoff on rising
// SRTT, the CapacitySearch harness invariants (monotone bisection,
// uncertainty-bound termination, endpoint outcomes, determinism), the
// SeqSink range accounting a trial's delivery ratio stands on, and the
// estimator gauges + typed misconfiguration through a real DIF.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "cap/capacity.hpp"
#include "cap/trial.hpp"
#include "efcp/connection.hpp"
#include "efcp/rtt.hpp"
#include "efcp_pair_harness.hpp"
#include "node/network.hpp"
#include "test_util.hpp"

using namespace rina;
using rina::testx::EfcpPair;

// ---- RttEstimator ----

static efcp::RttEstimator::Config est_cfg() {
  efcp::RttEstimator::Config c;
  c.initial_rto = SimTime::from_ms(100);
  c.min_rto = SimTime::from_ms(20);
  c.max_rto = SimTime::from_sec(2);
  return c;
}

static void rtt_karn_rule_ignores_retransmitted_samples() {
  efcp::RttEstimator est(est_cfg());
  CHECK(!est.has_sample());
  CHECK(est.rto().ns == SimTime::from_ms(100).ns);  // initial RTO pre-sample

  CHECK(est.on_sample(SimTime::from_ms(10), false));
  SimTime srtt = est.srtt();
  SimTime rto = est.rto();
  CHECK(srtt.ns == SimTime::from_ms(10).ns);  // first sample seeds SRTT

  // A wildly different sample over a retransmitted PDU: refused, and
  // nothing about the filter moves.
  CHECK(!est.on_sample(SimTime::from_ms(900), true));
  CHECK(est.srtt().ns == srtt.ns);
  CHECK(est.rttvar().ns == SimTime::from_ms(5).ns);
  CHECK(est.rto().ns == rto.ns);
  CHECK(est.samples() == 1);
}

static void rtt_backoff_doubles_and_decays() {
  efcp::RttEstimator est(est_cfg());
  CHECK(est.on_sample(SimTime::from_ms(10), false));
  SimTime base = est.rto();  // srtt + 4*rttvar = 10 + 20 = 30 ms
  CHECK(base.ns == SimTime::from_ms(30).ns);

  est.on_timeout();
  CHECK(est.rto().ns == 2 * base.ns);
  est.on_timeout();
  CHECK(est.rto().ns == 4 * base.ns);
  // The doubling count caps (here 30 ms * 2^6 = 1.92 s, inside max_rto).
  for (int i = 0; i < 10; ++i) est.on_timeout();
  CHECK(est.backoff() == 6);
  CHECK(est.rto().ns == 64 * base.ns);
  // An advancing ack edge decays the backoff immediately.
  est.reset_backoff();
  CHECK(est.rto().ns == base.ns);
  CHECK(est.base_rto().ns == base.ns);

  // A longer base RTO hits the max_rto clamp instead of doubling freely.
  efcp::RttEstimator slow(est_cfg());
  CHECK(slow.on_sample(SimTime::from_ms(200), false));  // base = 3*200 = 600 ms
  CHECK(slow.rto().ns == SimTime::from_ms(600).ns);
  slow.on_timeout();
  CHECK(slow.rto().ns == SimTime::from_ms(1200).ns);
  slow.on_timeout();
  CHECK(slow.rto().ns == SimTime::from_sec(2).ns);  // 2.4 s raw, 2 s cap
  slow.on_timeout();
  CHECK(slow.rto().ns == SimTime::from_sec(2).ns);  // still the cap
}

static void rtt_srtt_converges_on_known_trace() {
  efcp::RttEstimator est(est_cfg());
  // Constant 40 ms trace: SRTT must pin to it exactly, RTTVAR decay to 0,
  // and the RTO ride down toward srtt + 4*rttvar.
  for (int i = 0; i < 64; ++i) CHECK(est.on_sample(SimTime::from_ms(40), false));
  CHECK(est.srtt().ns == SimTime::from_ms(40).ns);
  CHECK(est.rttvar().to_ms() < 1.0);
  CHECK(est.rto().to_ms() < 45.0);
  CHECK(est.rto().ns >= SimTime::from_ms(40).ns);  // never below SRTT here
  CHECK(est.min_rtt().ns == SimTime::from_ms(40).ns);

  // Alternating 30/50 ms keeps SRTT near the 40 ms mean with nonzero
  // variance, and the floor tracks the lowest accepted sample.
  for (int i = 0; i < 64; ++i)
    CHECK(est.on_sample(SimTime::from_ms(i % 2 == 0 ? 30 : 50), false));
  CHECK_NEAR(est.srtt().to_ms(), 40.0, 5.0);
  CHECK(est.rttvar().to_ms() > 1.0);
  CHECK(est.min_rtt().ns == SimTime::from_ms(30).ns);
}

// ---- CUBIC ----

static efcp::EfcpPolicies cubic_pol() {
  efcp::EfcpPolicies pol;
  CHECK(pol.set_tx_policy("cubic").ok());
  pol.initial_cwnd = 16.0;
  pol.window = 1024;
  return pol;
}

/// Feed `dtcp` a plausible ack clock: `acks` acks of one PDU each,
/// advancing the scheduler by `tick` between them.
static void ack_clock(sim::Scheduler& sched, efcp::Dtcp& dtcp, int acks,
                      SimTime tick) {
  for (int i = 0; i < acks; ++i) {
    sched.run_until(sched.now() + tick);
    dtcp.on_ack_advance(1);
  }
}

static void cubic_slow_start_then_cut_then_regrow() {
  sim::Scheduler sched;
  efcp::EfcpPolicies pol = cubic_pol();
  efcp::Dtcp dtcp(sched, pol);
  (void)dtcp.on_rtt_sample(SimTime::from_ms(10), false);

  // Pre-cut: slow start, one PDU per ack.
  ack_clock(sched, dtcp, 16, SimTime::from_ms(1));
  CHECK_NEAR(dtcp.cwnd(), 32.0, 0.001);

  // First congestion: multiplicative decrease by beta = 0.7 and the
  // plateau W_max records the pre-cut window.
  CHECK(dtcp.on_congestion(100, 200));
  CHECK_NEAR(dtcp.cwnd(), 32.0 * 0.7, 0.001);
  CHECK_NEAR(dtcp.cubic_wmax(), 32.0, 0.001);

  // Within the same outstanding window a second signal must not cut.
  CHECK(!dtcp.on_congestion(150, 220));
  CHECK_NEAR(dtcp.cwnd(), 32.0 * 0.7, 0.001);

  // Concave regrowth toward the plateau: strictly increasing, and after
  // enough RTTs the window is back near W_max and then past it.
  double before = dtcp.cwnd();
  ack_clock(sched, dtcp, 50, SimTime::from_ms(10));
  double mid = dtcp.cwnd();
  CHECK(mid > before);
  ack_clock(sched, dtcp, 400, SimTime::from_ms(10));
  CHECK(dtcp.cwnd() > 32.0);  // probed past the old plateau
  CHECK(dtcp.cwnd() <= static_cast<double>(pol.window));
}

static void cubic_fast_convergence_releases_plateau() {
  sim::Scheduler sched;
  efcp::EfcpPolicies pol = cubic_pol();
  efcp::Dtcp dtcp(sched, pol);
  (void)dtcp.on_rtt_sample(SimTime::from_ms(10), false);

  ack_clock(sched, dtcp, 48, SimTime::from_ms(1));  // slow start to 64
  CHECK(dtcp.on_congestion(10, 20));                // W_max = 64, cwnd = 44.8
  CHECK_NEAR(dtcp.cubic_wmax(), 64.0, 0.001);

  // Second episode hits while cwnd is still below the old plateau:
  // capacity shrank, so fast convergence releases W_max below the
  // current window instead of pinning it at the stale 64.
  CHECK(dtcp.on_congestion(25, 40));
  CHECK_NEAR(dtcp.cubic_wmax(), 44.8 * (2.0 - 0.7) / 2.0, 0.001);
  CHECK(dtcp.cubic_wmax() < 44.8);
  CHECK_NEAR(dtcp.cwnd(), 44.8 * 0.7, 0.001);

  // With fast convergence off, the plateau pins at the cut window.
  efcp::EfcpPolicies nofc = cubic_pol();
  nofc.cubic_fast_convergence = false;
  efcp::Dtcp d2(sched, nofc);
  (void)d2.on_rtt_sample(SimTime::from_ms(10), false);
  ack_clock(sched, d2, 48, SimTime::from_ms(1));
  CHECK(d2.on_congestion(10, 20));
  CHECK(d2.on_congestion(25, 40));
  CHECK_NEAR(d2.cubic_wmax(), 44.8, 0.001);
}

// ---- delay_based (Vegas) ----

static void delay_based_backs_off_on_rising_srtt() {
  sim::Scheduler sched;
  efcp::EfcpPolicies pol;
  CHECK(pol.set_tx_policy("delay_based").ok());
  pol.initial_cwnd = 32.0;
  efcp::Dtcp dtcp(sched, pol);

  // Propagation-bound: SRTT sits on the floor, the window grows.
  for (int i = 0; i < 8; ++i) (void)dtcp.on_rtt_sample(SimTime::from_ms(10), false);
  double w0 = dtcp.cwnd();
  dtcp.on_ack_advance(8);
  CHECK(dtcp.cwnd() > w0);

  // Queue building: SRTT rises well above the 10 ms floor, pushing the
  // queue estimate cwnd*(srtt-base)/srtt past vegas_beta — the window
  // must shrink, without any loss or ECN signal.
  for (int i = 0; i < 64; ++i) (void)dtcp.on_rtt_sample(SimTime::from_ms(40), false);
  CHECK(dtcp.rtt().min_rtt().ns == SimTime::from_ms(10).ns);
  double w1 = dtcp.cwnd();
  for (int i = 0; i < 16; ++i) dtcp.on_ack_advance(4);
  CHECK(dtcp.cwnd() < w1);
  CHECK(dtcp.cwnd() >= static_cast<double>(pol.min_cwnd));

  // Loss is still loss: a congestion signal halves the window.
  double w2 = dtcp.cwnd();
  CHECK(dtcp.on_congestion(1000, 2000));
  CHECK_NEAR(dtcp.cwnd(), w2 / 2.0 < 2.0 ? 2.0 : w2 / 2.0, 0.001);
}

// ---- CapacitySearch harness ----

/// Synthetic step-capacity trial: delivery is perfect at or below
/// `knee`, degrading linearly above it. Counts calls for determinism
/// checks.
struct StepTrial {
  explicit StepTrial(double k) : knee(k) {}
  double knee;
  std::uint64_t offered_per_trial = 10000;
  std::vector<double> probed;

  cap::TrialResult operator()(double pps) {
    probed.push_back(pps);
    cap::TrialResult t;
    t.offered_pps = pps;
    t.offered = offered_per_trial;
    double ratio = pps <= knee ? 1.0 : knee / pps;
    t.delivered = static_cast<std::uint64_t>(ratio * static_cast<double>(t.offered));
    t.per_flow_delivered = {t.delivered / 2, t.delivered - t.delivered / 2};
    return t;
  }
};

static void search_converges_within_uncertainty() {
  cap::SearchConfig cfg;
  cfg.min_pps = 100.0;
  cfg.max_pps = 10000.0;
  cfg.uncertainty_pps = 25.0;
  cap::CapacitySearch search(cfg);

  StepTrial trial{3741.0};
  cap::SearchResult res = search.run([&](double pps) { return trial(pps); });

  CHECK(!res.floor_unsustained);
  CHECK(!res.ceiling_sustained);
  CHECK(res.converged(cfg));
  CHECK(res.uncertainty() <= cfg.uncertainty_pps);
  // The search converges on the threshold crossing: with ratio knee/pps
  // past the knee, rates up to knee/threshold still sustain 99.5%.
  double crossing = trial.knee / cfg.delivery_threshold;
  CHECK(res.capacity_pps <= crossing);
  CHECK(res.bracket_pps > crossing - cfg.uncertainty_pps);
  CHECK_NEAR(res.capacity_pps, crossing, cfg.uncertainty_pps);
  CHECK(res.probes == static_cast<int>(res.trace.size()));
  CHECK(res.at_capacity.offered_pps == res.capacity_pps);
  CHECK(res.at_capacity.delivery_ratio() >= cfg.delivery_threshold);
}

static void search_bisection_is_monotone() {
  cap::SearchConfig cfg;
  cfg.min_pps = 100.0;
  cfg.max_pps = 10000.0;
  cfg.uncertainty_pps = 10.0;
  cap::CapacitySearch search(cfg);
  StepTrial trial{2000.0};
  cap::SearchResult res = search.run([&](double pps) { return trial(pps); });

  // Bisection invariant: every sustained probe sits at or below every
  // unsustained probe (a violation would mean the search assumed
  // non-monotone feasibility), and the bracket only ever narrows.
  double max_ok = 0.0, min_bad = 1e18;
  for (const cap::Probe& p : res.trace) {
    if (p.sustained) {
      if (p.rate_pps > max_ok) max_ok = p.rate_pps;
    } else {
      if (p.rate_pps < min_bad) min_bad = p.rate_pps;
    }
  }
  CHECK(max_ok < min_bad);
  CHECK(res.capacity_pps == max_ok);
  CHECK(res.bracket_pps == min_bad);
  // After the two endpoint probes, each bisection probe lands strictly
  // inside the current bracket, so the bracket halves each time.
  double lo = cfg.min_pps, hi = cfg.max_pps;
  for (std::size_t i = 2; i < res.trace.size(); ++i) {
    const cap::Probe& p = res.trace[i];
    CHECK(p.rate_pps > lo);
    CHECK(p.rate_pps < hi);
    if (p.sustained)
      lo = p.rate_pps;
    else
      hi = p.rate_pps;
  }
  CHECK(hi - lo <= cfg.uncertainty_pps);
}

static void search_endpoint_outcomes_are_typed() {
  cap::SearchConfig cfg;
  cfg.min_pps = 1000.0;
  cfg.max_pps = 4000.0;
  cfg.uncertainty_pps = 50.0;
  cap::CapacitySearch search(cfg);

  // Knee below the floor: even min_pps fails — typed, two probes never run.
  StepTrial low{500.0};
  cap::SearchResult r1 = search.run([&](double pps) { return low(pps); });
  CHECK(r1.floor_unsustained);
  CHECK(r1.capacity_pps == 0.0);
  CHECK(r1.probes == 1);
  CHECK(r1.converged(cfg));

  // Knee above the ceiling: max_pps holds — capacity >= ceiling, typed.
  StepTrial high{9000.0};
  cap::SearchResult r2 = search.run([&](double pps) { return high(pps); });
  CHECK(r2.ceiling_sustained);
  CHECK(r2.capacity_pps == cfg.max_pps);
  CHECK(r2.probes == 2);
  CHECK(r2.converged(cfg));
}

static void search_is_deterministic() {
  cap::SearchConfig cfg;
  cfg.min_pps = 100.0;
  cfg.max_pps = 10000.0;
  cfg.uncertainty_pps = 25.0;
  cap::CapacitySearch search(cfg);

  StepTrial a{3741.0}, b{3741.0};
  cap::SearchResult ra = search.run([&](double pps) { return a(pps); });
  cap::SearchResult rb = search.run([&](double pps) { return b(pps); });
  CHECK(a.probed == b.probed);  // identical probe sequence, in order
  CHECK(ra.capacity_pps == rb.capacity_pps);
  CHECK(ra.bracket_pps == rb.bracket_pps);
  CHECK(ra.probes == rb.probes);
  for (std::size_t i = 0; i < ra.trace.size(); ++i) {
    CHECK(ra.trace[i].rate_pps == rb.trace[i].rate_pps);
    CHECK(ra.trace[i].ratio == rb.trace[i].ratio);
  }
}

static void jain_fairness_index() {
  CHECK_NEAR(cap::jain_fairness({100, 100, 100}), 1.0, 1e-12);
  CHECK_NEAR(cap::jain_fairness({300, 0, 0}), 1.0 / 3.0, 1e-12);
  CHECK_NEAR(cap::jain_fairness({}), 1.0, 1e-12);
  CHECK_NEAR(cap::jain_fairness({0, 0}), 1.0, 1e-12);  // vacuously fair
  double mixed = cap::jain_fairness({100, 50});
  CHECK(mixed > 1.0 / 2.0);
  CHECK(mixed < 1.0);
}

// ---- SeqSink range accounting ----

static void seq_sink_counts_by_range() {
  cap::SeqSink sink;
  auto sdu = [](std::uint64_t seq) {
    BufWriter w(16);
    w.put_u64(seq);
    w.put_u64(0);
    return std::move(w).take();
  };
  for (std::uint64_t s : {0ULL, 1ULL, 3ULL, 5ULL, 6ULL}) {
    Bytes b = sdu(s);
    sink.deliver(BytesView{b});
  }
  Bytes dup = sdu(3);
  sink.deliver(BytesView{dup});  // duplicate: counted once in any range
  Bytes runt(8, 0x00);
  sink.deliver(BytesView{runt});  // too short for the stamp: corrupt

  CHECK(sink.unique_in(0, 7) == 5);
  CHECK(sink.unique_in(2, 6) == 2);   // 3 and 5
  CHECK(sink.unique_in(4, 100) == 2); // 5 and 6; range past the bitmap is fine
  CHECK(sink.unique_in(7, 9) == 0);
  CHECK(sink.duplicates() == 1);
  CHECK(sink.corrupt() == 1);
  CHECK(sink.sdus() == 7);
}

// ---- the new policy names stay typed, never silent ----

static void new_policy_names_resolve_and_typos_error() {
  for (const char* name : {"cubic", "delay_based"}) {
    auto p = efcp::EfcpPolicies::from_policy_name(name);
    CHECK(p.ok());
    efcp::EfcpPolicies q;
    CHECK(q.set_tx_policy(name).ok());
  }
  CHECK(efcp::EfcpPolicies::from_policy_name("cubic").value().tx_policy ==
        efcp::TxPolicy::cubic);
  CHECK(efcp::EfcpPolicies::from_policy_name("delay_based").value().tx_policy ==
        efcp::TxPolicy::delay_based);
  // Near-miss spellings must error, not silently default.
  for (const char* typo : {"cubbic", "CUBIC", "delay-based", "vegas", "delay"}) {
    CHECK(!efcp::EfcpPolicies::from_policy_name(typo).ok());
    efcp::EfcpPolicies q;
    CHECK(!q.set_tx_policy(typo).ok());
    CHECK(q.tx_policy == efcp::TxPolicy::static_window);  // untouched
  }
}

static void misconfigured_cube_is_counted_through_a_dif() {
  node::Network net(777);
  net.add_link("a", "b", {});
  node::DifSpec spec;
  spec.cfg.name = naming::DifName{"oops"};
  spec.members = {"a", "b"};
  flow::QosCube bad;
  bad.id = 0;
  bad.name = "bad";
  bad.dtcp_policy = "cubbic";  // typo: must surface, flow still works
  bad.reliable = true;
  bad.in_order = true;
  spec.cfg.cubes = {bad};
  CHECK(net.build_link_dif(std::move(spec)).ok());

  std::uint64_t delivered = 0;
  CHECK(net.node("b")
            .register_app(naming::AppName("sink"), naming::DifName{"oops"},
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
  CHECK(f.write(BytesView{to_bytes("still works")}).ok());
  net.run_for(SimTime::from_ms(50));
  CHECK(delivered == 1);
  // Typed misconfiguration: both endpoints counted the unknown name and
  // fell back to static_window, not to silence.
  CHECK(net.sum_dif_counter(naming::DifName{"oops"}, "efcp_policy_unknown") >= 2);
}

// ---- estimator gauges through a real DIF (no DTCP internals) ----

static void estimator_gauges_visible_in_stats() {
  node::Network net(778);
  node::LinkOpts link;
  link.delay = SimTime::from_ms(5);  // RTT floor = 10 ms + serialization
  net.add_link("a", "b", link);
  node::DifSpec spec;
  spec.cfg.name = naming::DifName{"gauge"};
  spec.members = {"a", "b"};
  flow::QosCube qc;
  qc.id = 0;
  qc.name = "cubic";
  qc.dtcp_policy = "cubic";
  qc.reliable = true;
  qc.in_order = true;
  spec.cfg.cubes = {qc};
  CHECK(net.build_link_dif(std::move(spec)).ok());

  std::uint64_t delivered = 0;
  CHECK(net.node("b")
            .register_app(naming::AppName("sink"), naming::DifName{"gauge"},
                          [&delivered](flow::Flow f) {
                            f.on_readable([&delivered](flow::Flow& fl) {
                              while (fl.read()) ++delivered;
                            });
                          })
            .ok());
  net.run_for(SimTime::from_ms(60));
  // Two reliable flows from a, 50 SDUs each.
  std::vector<flow::Flow> flows;
  for (const char* src : {"src", "src2"}) {
    flow::Flow f = net.node("a").allocate_flow(naming::AppName(src),
                                               naming::AppName("sink"),
                                               flow::QosSpec::reliable_default());
    net.run_until([&] { return !f.is_allocating(); }, SimTime::from_sec(5));
    CHECK(f.is_open());
    for (int i = 0; i < 50; ++i) {
      (void)f.write(BytesView{to_bytes("g" + std::to_string(i))});
      net.run_for(SimTime::from_ms(2));
    }
    flows.push_back(f);
  }
  net.run_for(SimTime::from_sec(1));
  CHECK(delivered == 100);

  naming::DifName dif{"gauge"};
  // The gauges read like counters: SRTT at least the 10 ms propagation
  // floor and under a generous bound, RTO >= SRTT, and a live window.
  std::uint64_t srtt_us = net.max_dif_counter(dif, "srtt_us");
  std::uint64_t rto_us = net.max_dif_counter(dif, "rto_us");
  CHECK(srtt_us >= 10000);
  CHECK(srtt_us < 100000);
  CHECK(rto_us >= srtt_us);
  CHECK(net.max_dif_counter(dif, "cwnd_pdus") >= 2);
  // A clean run never feeds the filter ambiguous samples.
  CHECK(net.sum_dif_counter(dif, "rtt_samples_karn_ignored") == 0);

  // A gauge is the largest value over the IPCP's live connections, not
  // their sum.
  ipcp::Ipcp* a = net.node("a").ipcp(dif);
  const efcp::Connection* c1 = a->fa().connection(flows[0].port());
  const efcp::Connection* c2 = a->fa().connection(flows[1].port());
  CHECK(c1 != nullptr && c2 != nullptr);
  if (c1 == nullptr || c2 == nullptr) return;
  auto srtt = [](const efcp::Connection* c) {
    return static_cast<std::uint64_t>(c->rtt().srtt().ns / 1000);
  };
  CHECK(a->counter_sum("cwnd_pdus") == std::max(c1->tx_window(), c2->tx_window()));
  CHECK(a->counter_sum("srtt_us") == std::max(srtt(c1), srtt(c2)));
  CHECK(a->counter_sum("pdus_tx") == 100);

  // Closed flows leave no gauge behind, while their counts stay.
  for (flow::Flow& f : flows) f.deallocate();
  net.run_for(SimTime::from_sec(1));
  for (const char* gauge : {"cwnd_pdus", "srtt_us", "rttvar_us", "rto_us"})
    CHECK(a->counter_sum(gauge) == 0);
  CHECK(a->counter_sum("pdus_tx") == 100);
}

int main() {
  rtt_karn_rule_ignores_retransmitted_samples();
  rtt_backoff_doubles_and_decays();
  rtt_srtt_converges_on_known_trace();
  cubic_slow_start_then_cut_then_regrow();
  cubic_fast_convergence_releases_plateau();
  delay_based_backs_off_on_rising_srtt();
  search_converges_within_uncertainty();
  search_bisection_is_monotone();
  search_endpoint_outcomes_are_typed();
  search_is_deterministic();
  jain_fairness_index();
  seq_sink_counts_by_range();
  new_policy_names_resolve_and_typos_error();
  misconfigured_cube_is_counted_through_a_dif();
  estimator_gauges_visible_in_stats();
  return TEST_MAIN_RESULT();
}
