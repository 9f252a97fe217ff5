// qos.hpp — what an application asks of a flow, and what a DIF offers.
//
// A QosSpec is the application's request (all names, no mechanism); a
// QosCube is a class of service the DIF's policies implement. Flow
// allocation matches spec to cube, and the cube id rides in every PDU so
// the RMT can schedule by class.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "efcp/types.hpp"
#include "naming/names.hpp"

namespace rina::flow {

/// Application-visible flow handle, unique per node.
using PortId = std::uint32_t;

/// A class of service offered by a DIF.
struct QosCube {
  efcp::QosId id = 0;
  std::string name;
  std::string efcp_policy = "reliable";  // reliable | unreliable | wireless-hop
  /// DTCP transmission-control policy for flows in this cube:
  /// "" (= static_window) | "static_window" | "aimd_ecn" | "rate_based" |
  /// "cubic" | "delay_based".
  std::string dtcp_policy;
  /// rate_based parameters: sustained rate and burst tolerance of the
  /// token bucket. 0 keeps the policy defaults (policies.hpp).
  double rate_pps = 0.0;
  double rate_burst_pdus = 0.0;
  std::uint8_t priority = 1;             // lower = more urgent (RMT priority)
  bool reliable = true;
  bool in_order = true;
};

/// What the application requests at allocation time.
struct QosSpec {
  std::string cube_hint;  // match a cube by name; empty = match by `reliable`
  bool reliable = false;

  static QosSpec reliable_default() {
    QosSpec s;
    s.reliable = true;
    return s;
  }
  static QosSpec unreliable() { return QosSpec{}; }
};

/// Result of a successful flow allocation.
struct FlowInfo {
  PortId port = 0;
  QosCube cube;
  naming::AppName local;
  naming::AppName remote;
  naming::DifName dif;
};

/// Internal allocator plumbing (the app-facing surface is flow/flow.hpp's
/// Flow handle; the Network façade uses this for overlay adjacencies).
using AllocateCallback = std::function<void(Result<FlowInfo>)>;

}  // namespace rina::flow
