// rtt.hpp — round-trip time estimation for EFCP's retransmit timers and
// the delay-sensing DTCP policies.
//
// The estimator is the classic SRTT/RTTVAR filter (RFC 6298 shape:
// srtt += err/8, rttvar += (|err| - rttvar)/4, rto = srtt + 4*rttvar,
// clamped to the policy's [min_rto, max_rto]) with two rules layered on:
//
//   Karn's rule — a sample measured over a retransmitted PDU is
//       ambiguous (did the ack answer the first transmission or the
//       retry?) and must never update the filter; callers pass the
//       retransmission flag and the estimator refuses the sample.
//   Exponential backoff — each timeout doubles the effective RTO (capped
//       at max_rto and at max_backoff doublings); an advancing ack edge
//       resets the backoff, decaying the RTO back to the filtered value.
//
// One estimator serves one connection; DTCP owns it (dtcp.hpp) so the
// cubic and delay_based policies can read SRTT and the observed RTT
// floor without a side channel, and DTP (connection.hpp) arms its
// retransmit timer from rto() instead of keeping private timer state.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace rina::efcp {

class RttEstimator {
 public:
  struct Config {
    SimTime initial_rto = SimTime::from_ms(100);
    SimTime min_rto = SimTime::from_ms(20);
    SimTime max_rto = SimTime::from_sec(2);
  };
  static constexpr int max_backoff = 6;  // cap on RTO doublings after repeated timeouts

  RttEstimator() : RttEstimator(Config{}) {}
  explicit RttEstimator(const Config& cfg) : cfg_(cfg), rto_(cfg.initial_rto) {}

  /// Feed one ack-measured sample. Karn's rule: samples over
  /// retransmitted PDUs are refused. Returns whether the sample was
  /// applied (callers count refusals; the filter never sees them).
  bool on_sample(SimTime rtt, bool retransmitted) {
    if (retransmitted) return false;
    ++samples_;
    if (!has_min_ || rtt.ns < min_rtt_.ns) {
      min_rtt_ = rtt;
      has_min_ = true;
    }
    if (srtt_.ns == 0) {
      srtt_ = rtt;
      rttvar_ = SimTime{rtt.ns / 2};
    } else {
      std::int64_t err = rtt.ns - srtt_.ns;
      srtt_.ns += err / 8;
      rttvar_.ns += ((err < 0 ? -err : err) - rttvar_.ns) / 4;
    }
    std::int64_t rto = srtt_.ns + 4 * rttvar_.ns;
    if (rto < cfg_.min_rto.ns) rto = cfg_.min_rto.ns;
    if (rto > cfg_.max_rto.ns) rto = cfg_.max_rto.ns;
    rto_ = SimTime{rto};
    return true;
  }

  /// A retransmission timer fired: back the RTO off one doubling.
  void on_timeout() {
    if (backoff_ < max_backoff) ++backoff_;
  }

  /// The cumulative ack edge advanced: fresh evidence the path delivers,
  /// so the backoff decays immediately back to the filtered RTO.
  void reset_backoff() { backoff_ = 0; }

  /// Retransmission timeout with the current backoff applied.
  [[nodiscard]] SimTime rto() const {
    SimTime t = rto_;
    for (int i = 0; i < backoff_; ++i) t = t + t;
    if (cfg_.max_rto < t) t = cfg_.max_rto;
    return t;
  }

  /// The filtered RTO before backoff (what rto() decays back to).
  [[nodiscard]] SimTime base_rto() const { return rto_; }
  [[nodiscard]] SimTime srtt() const { return srtt_; }
  [[nodiscard]] SimTime rttvar() const { return rttvar_; }
  /// Lowest accepted sample — the propagation-delay floor the
  /// delay_based policy measures queueing against.
  [[nodiscard]] SimTime min_rtt() const { return min_rtt_; }
  [[nodiscard]] bool has_sample() const { return samples_ > 0; }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] int backoff() const { return backoff_; }

 private:
  Config cfg_;
  SimTime srtt_{};
  SimTime rttvar_{};
  SimTime min_rtt_{};
  SimTime rto_;
  bool has_min_ = false;
  int backoff_ = 0;
  std::uint64_t samples_ = 0;
};

}  // namespace rina::efcp
