// policies.hpp — the per-DIF policy set of one EFCP connection.
//
// The paper's separation of mechanism and policy: every DIF runs the
// same DTP machine (sequencing, retransmission, reordering — see
// connection.hpp) and the same DTCP machine (transmission control — see
// dtcp.hpp); what differs between DIFs is only this struct. A lossy
// radio hop tightens the timers; a congested backbone segment swaps the
// static window for an ECN-driven AIMD window; a paced wireless uplink
// uses token-bucket rate control. Policy names are validated — an
// unknown name is an error the caller must see, never a silent default.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.hpp"
#include "sim/time.hpp"

namespace rina::efcp {

/// DTCP transmission-control discipline (how the sender decides it may
/// transmit), selected per QoS cube.
enum class TxPolicy : std::uint8_t {
  static_window,  // fixed window of PDUs in flight (the classic default)
  aimd_ecn,       // congestion window driven by explicit congestion marks
  rate_based,     // token-bucket pacing (e.g. a known-rate wireless hop)
  cubic,          // CUBIC window growth (RFC 8312) off congestion signals
  delay_based,    // Vegas-style backoff on rising SRTT above the RTT floor
};

struct EfcpPolicies {
  // ---- DTP: error control ----
  bool reliable = true;
  bool in_order = true;
  std::size_t send_queue = 256;   // PDUs held while the window is closed
  std::size_t reorder_buf = 1024; // out-of-order PDUs held at the receiver
  SimTime initial_rto = SimTime::from_ms(100);
  SimTime min_rto = SimTime::from_ms(20);
  SimTime max_rto = SimTime::from_sec(2);
  int fast_retx_dups = 3;

  // ---- DTCP: transmission control ----
  TxPolicy tx_policy = TxPolicy::static_window;
  std::size_t window = 256;       // max PDUs in flight (cap for every policy)
  // aimd_ecn: additive increase of one PDU per RTT, multiplicative
  // decrease on an echoed congestion mark (or on loss).
  double initial_cwnd = 16.0;
  std::size_t min_cwnd = 2;
  // rate_based: sustained rate and burst tolerance of the token bucket.
  double rate_pps = 50000.0;
  double bucket_pdus = 32.0;
  // cubic: RFC 8312 constants — the cubic coefficient C, the
  // multiplicative-decrease factor β, and fast convergence (release the
  // window plateau early when capacity shrank since the last episode).
  double cubic_c = 0.4;
  double cubic_beta = 0.7;
  bool cubic_fast_convergence = true;
  // delay_based: Vegas-style queue estimate q = cwnd·(srtt − min_rtt)/srtt
  // (PDUs the flow itself keeps queued in the network). Grow below
  // vegas_alpha, back off above vegas_beta, hold in between.
  double vegas_alpha = 2.0;
  double vegas_beta = 4.0;

  /// Mechanism profile by policy name: a DTP profile, or a DTCP
  /// discipline (set_tx_policy) on the default one. Unknown names are an
  /// error — a typo in a DIF config must surface at connection setup,
  /// not run silently with default timers.
  static Result<EfcpPolicies> from_policy_name(const std::string& name) {
    EfcpPolicies p;
    if (name == "reliable") return p;
    if (name == "unreliable") {
      p.reliable = false;
      p.in_order = false;
      return p;
    }
    if (name == "wireless-hop") {
      // Scope-local recovery: the RTT is one radio hop, so the timers can
      // be three orders of magnitude tighter than an end-to-end policy.
      p.initial_rto = SimTime::from_ms(2);
      p.min_rto = SimTime::from_us(500);
      p.max_rto = SimTime::from_ms(50);
      return p;
    }
    if (!p.set_tx_policy(name).ok())
      return {Err::not_found, "unknown EFCP policy name: " + name};
    return p;
  }

  /// Select the DTCP discipline by name (the QoS cube's dtcp_policy
  /// knob), keeping the DTP profile already configured. Unknown names
  /// are an error for the same reason as above.
  Result<void> set_tx_policy(const std::string& name) {
    if (name.empty() || name == "static_window") {
      tx_policy = TxPolicy::static_window;
    } else if (name == "aimd_ecn") {
      tx_policy = TxPolicy::aimd_ecn;
    } else if (name == "rate_based") {
      tx_policy = TxPolicy::rate_based;
    } else if (name == "cubic") {
      tx_policy = TxPolicy::cubic;
    } else if (name == "delay_based") {
      tx_policy = TxPolicy::delay_based;
    } else {
      return {Err::not_found, "unknown DTCP policy name: " + name};
    }
    return Ok();
  }
};

}  // namespace rina::efcp
