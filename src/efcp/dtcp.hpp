// dtcp.hpp — Data Transfer Control Protocol: the transmission-control
// half of EFCP, split out of the DTP machine (connection.hpp).
//
// DTP moves and repairs PDUs; DTCP decides *when the sender may
// transmit*. The decision procedure is a pluggable policy (policies.hpp):
//
//   static_window — a fixed cap on PDUs in flight; overload becomes
//       backpressure to the layer above (the historical default);
//   aimd_ecn      — a congestion window opened one PDU per RTT and
//       halved when the receiver echoes an explicit congestion mark set
//       by a congested RMT queue *inside this DIF* (or on loss). This is
//       the paper's scoped congestion control: the DIF whose resource is
//       congested detects and resolves it; upper DIFs only ever see
//       backpressure;
//   rate_based    — token-bucket pacing at a configured rate, for hops
//       whose capacity is known a priori (e.g. a wireless link class);
//   cubic         — CUBIC window growth (RFC 8312): after a cut to β·W
//       the window follows C·(t−K)³ + W_max, replotting toward the old
//       plateau and probing past it, with the TCP-friendly region as a
//       floor and fast convergence when capacity shrank. Congestion
//       signals are the same in-DIF marks/loss aimd_ecn reacts to;
//   delay_based   — Vegas-style: the flow's own queue estimate
//       cwnd·(srtt − min_rtt)/srtt steers the window between an α/β
//       band, backing off on rising SRTT *before* queues overflow.
//
// DTCP also owns the connection's RttEstimator (rtt.hpp): DTP feeds it
// every ack-measured sample (Karn-filtered) and timeout, arms its
// retransmit timer from rto(), and the delay/time-driven policies read
// SRTT and the RTT floor from the same filter — one estimator per
// connection, no parallel bookkeeping.
//
// Dtcp holds no PDUs and sends nothing: the DTP machine consults it at
// each admission point and feeds it ack/mark/loss events.
#pragma once

#include <cmath>
#include <cstdint>

#include "efcp/policies.hpp"
#include "efcp/rtt.hpp"
#include "sim/scheduler.hpp"

namespace rina::efcp {

class Dtcp {
 public:
  Dtcp(sim::Scheduler& sched, const EfcpPolicies& pol)
      : sched_(sched),
        pol_(pol),
        rtt_(RttEstimator::Config{pol.initial_rto, pol.min_rto, pol.max_rto}),
        cwnd_(pol.initial_cwnd),
        ssthresh_(static_cast<double>(pol.window)),
        tokens_(pol.bucket_pdus),
        last_refill_(sched.now()) {}

  /// Current window: how many PDUs may be in flight at once.
  [[nodiscard]] std::size_t window() const {
    if (windowed()) {
      auto w = static_cast<std::size_t>(cwnd_);
      if (w < pol_.min_cwnd) w = pol_.min_cwnd;
      return w < pol_.window ? w : pol_.window;
    }
    return pol_.window;
  }

  [[nodiscard]] double cwnd() const { return cwnd_; }

  [[nodiscard]] bool window_open(std::size_t inflight) const {
    return inflight < window();
  }

  /// Rate admission: true when a pacing token is available (always true
  /// for the window-based policies).
  [[nodiscard]] bool rate_ready() const {
    if (pol_.tx_policy != TxPolicy::rate_based) return true;
    refill();
    return tokens_ >= 1.0;
  }

  /// The one admission predicate: may the DTP transmit a new PDU now?
  [[nodiscard]] bool can_send(std::size_t inflight) const {
    return window_open(inflight) && rate_ready();
  }

  /// A new PDU went out (consumes a pacing token under rate_based).
  void on_sent() {
    if (pol_.tx_policy == TxPolicy::rate_based) tokens_ -= 1.0;
  }

  /// Delay until the next pacing token matures (zero for window
  /// policies or when a token is already available).
  [[nodiscard]] SimTime next_ready_delay() const {
    if (rate_ready()) return SimTime{};
    double missing = 1.0 - tokens_;
    auto ns = static_cast<std::int64_t>(missing / pol_.rate_pps * 1e9) + 1;
    return SimTime{ns};
  }

  // ---- RTT estimation (fed by DTP, read by the policies) ----

  /// Ack-measured sample; Karn's rule refuses retransmitted ones.
  /// Returns whether the estimator accepted it.
  bool on_rtt_sample(SimTime rtt, bool retransmitted) {
    return rtt_.on_sample(rtt, retransmitted);
  }

  /// The cumulative ack edge advanced: RTO backoff decays immediately.
  void on_ack_edge_advance() { rtt_.reset_backoff(); }

  /// A retransmission timer fired: one more RTO doubling.
  void on_rto_timeout() { rtt_.on_timeout(); }

  /// Retransmit timeout for DTP's timer (filtered RTO + backoff).
  [[nodiscard]] SimTime rto() const { return rtt_.rto(); }

  [[nodiscard]] const RttEstimator& rtt() const { return rtt_; }

  /// Cumulative ack advanced by `newly_acked` PDUs: the window-growth
  /// step of the policy in force.
  void on_ack_advance(std::size_t newly_acked) {
    switch (pol_.tx_policy) {
      case TxPolicy::aimd_ecn:
        // Additive increase: one PDU per window's worth of acks.
        cwnd_ += static_cast<double>(newly_acked) / cwnd_;
        break;
      case TxPolicy::cubic:
        cubic_on_ack(newly_acked);
        break;
      case TxPolicy::delay_based:
        vegas_on_ack(newly_acked);
        break;
      default:
        return;
    }
    clamp_cwnd();
  }

  /// Congestion signal (an echoed ECN mark, or loss inferred from RTO /
  /// fast retransmit). `acked_edge` is the sender's cumulative-ack edge
  /// and `highest_sent` its next unused sequence number: the window is
  /// cut at most once per window in flight (a burst of marks from one
  /// congestion episode must not collapse cwnd to the floor). Returns
  /// true when the window was actually cut.
  bool on_congestion(std::uint64_t acked_edge, std::uint64_t highest_sent) {
    if (!windowed()) return false;
    if (acked_edge < recover_) return false;  // still reacting to the last cut
    recover_ = highest_sent;
    if (pol_.tx_policy == TxPolicy::cubic) {
      cubic_on_congestion();
    } else {
      // aimd_ecn and delay_based: multiplicative decrease. Vegas keeps
      // its delay steering for the steady state but loss is still loss.
      cwnd_ /= 2.0;
    }
    clamp_cwnd();
    ssthresh_ = cwnd_;
    return true;
  }

  /// CUBIC's window plateau (tests observe fast convergence through it).
  [[nodiscard]] double cubic_wmax() const { return cubic_wmax_; }

 private:
  [[nodiscard]] bool windowed() const {
    return pol_.tx_policy == TxPolicy::aimd_ecn ||
           pol_.tx_policy == TxPolicy::cubic ||
           pol_.tx_policy == TxPolicy::delay_based;
  }

  void clamp_cwnd() {
    double floor = static_cast<double>(pol_.min_cwnd);
    double cap = static_cast<double>(pol_.window);
    if (cwnd_ < floor) cwnd_ = floor;
    if (cwnd_ > cap) cwnd_ = cap;
  }

  // ---- CUBIC (RFC 8312) ----

  void cubic_on_ack(std::size_t newly_acked) {
    double n = static_cast<double>(newly_acked);
    if (cwnd_ < ssthresh_) {  // slow start until the first cut
      cwnd_ += n;
      return;
    }
    if (epoch_start_.ns == 0) {
      // First congestion-avoidance ack of this epoch: plot the cubic.
      epoch_start_ = sched_.now();
      if (cwnd_ < cubic_wmax_) {
        k_ = std::cbrt((cubic_wmax_ - cwnd_) / pol_.cubic_c);
      } else {
        k_ = 0.0;
        cubic_wmax_ = cwnd_;
      }
    }
    double srtt_s = rtt_.srtt().to_sec();
    // Aim one RTT ahead (RFC 8312 §4.1: W_cubic(t + RTT) is the target).
    double t = (sched_.now() - epoch_start_).to_sec() + srtt_s;
    double d = t - k_;
    double target = cubic_wmax_ + pol_.cubic_c * d * d * d;
    // TCP-friendly region: never grow slower than an AIMD flow would.
    if (srtt_s > 0.0) {
      double b = pol_.cubic_beta;
      double w_est = cubic_wmax_ * b + (3.0 * (1.0 - b) / (1.0 + b)) * (t / srtt_s);
      if (target < w_est) target = w_est;
    }
    if (target > cwnd_) cwnd_ += (target - cwnd_) / cwnd_ * n;
    // target <= cwnd: the plateau — CUBIC holds flat near W_max.
  }

  void cubic_on_congestion() {
    epoch_start_ = SimTime{};  // replot on the next ack
    if (pol_.cubic_fast_convergence && cwnd_ < cubic_wmax_) {
      // Capacity shrank since the last episode: release the plateau
      // early so the freed share converges to the new flows faster.
      cubic_wmax_ = cwnd_ * (2.0 - pol_.cubic_beta) / 2.0;
    } else {
      cubic_wmax_ = cwnd_;
    }
    cwnd_ *= pol_.cubic_beta;
  }

  // ---- delay_based (Vegas) ----

  void vegas_on_ack(std::size_t newly_acked) {
    double n = static_cast<double>(newly_acked);
    double srtt_s = rtt_.srtt().to_sec();
    if (srtt_s <= 0.0 || !rtt_.has_sample()) {
      // No delay estimate yet: grow additively until one exists.
      cwnd_ += n / cwnd_;
      return;
    }
    // The flow's own standing queue, in PDUs: cwnd·(srtt − base)/srtt.
    double base_s = rtt_.min_rtt().to_sec();
    double queued = cwnd_ * (srtt_s - base_s) / srtt_s;
    if (queued > pol_.vegas_beta) {
      cwnd_ -= n / cwnd_;  // drain: SRTT is rising above the floor
    } else if (queued < pol_.vegas_alpha) {
      cwnd_ += n / cwnd_;  // headroom: the path is still propagation-bound
    }
    // Between α and β: hold — the equilibrium Vegas aims for.
  }

  sim::Scheduler& sched_;
  const EfcpPolicies& pol_;
  RttEstimator rtt_;
  double cwnd_;
  double ssthresh_;              // slow-start threshold (cubic)
  std::uint64_t recover_ = 0;    // cut again only past this seq
  // CUBIC epoch state: the plateau W_max, the replot time K, and the
  // epoch origin (ns 0 = replot on next ack).
  double cubic_wmax_ = 0.0;
  double k_ = 0.0;
  SimTime epoch_start_{};
  mutable double tokens_;
  mutable SimTime last_refill_;

  /// Token refill is observation-driven (no timer): tokens accrue with
  /// simulated time, capped at the bucket depth. Mutable so admission
  /// checks stay const for callers.
  void refill() const {
    SimTime now = sched_.now();
    if (last_refill_ < now) {
      tokens_ += (now - last_refill_).to_sec() * pol_.rate_pps;
      if (tokens_ > pol_.bucket_pdus) tokens_ = pol_.bucket_pdus;
      last_refill_ = now;
    }
  }
};

}  // namespace rina::efcp
