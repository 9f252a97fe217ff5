// config.hpp — everything that makes one DIF *this* DIF: its name, the
// service classes it offers, its admission (enrollment) policy, liveness
// probing, scheduling discipline and address aggregation. Two DIFs with
// different configs are different networks even over the same wires.
#pragma once

#include <string>
#include <vector>

#include "flow/qos.hpp"
#include "naming/names.hpp"
#include "relay/forwarding.hpp"
#include "sim/time.hpp"

namespace rina::dif {

struct DifConfig {
  naming::DifName name;

  /// Service classes on offer. Empty = the default pair (reliable id 0,
  /// unreliable id 1), installed at DIF build time.
  std::vector<flow::QosCube> cubes;

  /// Admission policy: "none", "password", "psk-challenge".
  std::string auth_policy = "none";
  std::string auth_secret;

  /// Liveness probing of adjacencies (needed when the lower level cannot
  /// signal carrier loss, i.e. for overlay DIFs); 3 silent intervals kill one.
  bool keepalive_enabled = false;
  SimTime keepalive_interval = SimTime::from_ms(100);

  /// RMT egress discipline. Queues are bounded per QoS class (one shared
  /// class under fifo); a class queue deeper than rmt_ecn_threshold sets
  /// the ECN bit on the data PDUs it admits — the in-DIF congestion
  /// signal the aimd_ecn DTCP policy reacts to. 0 disables marking.
  relay::RmtSched rmt_sched = relay::RmtSched::fifo;
  std::size_t rmt_queue_pdus = 512;
  std::size_t rmt_ecn_threshold = 0;

  /// RMT content-store policy: when non-zero, a member relaying content
  /// PDUs (src/content/protocol.hpp) through this DIF keeps an ARC cache
  /// of up to this many objects (live entries, no expiry). Interests
  /// that hit are answered from the relay — the PDU never continues
  /// toward the origin — and data PDUs passing through are inserted
  /// opportunistically. Pure per-DIF policy: nothing above or below this
  /// DIF can tell, which is the paper's point about specializing a DIF
  /// for a job (here: CDN). 0 = no store.
  std::size_t rmt_content_store_objects = 0;

  /// Route on region prefixes instead of full addresses (one FIB entry
  /// per foreign region).
  bool aggregate_regions = false;

  /// --- Control plane at scale (default off: flat flooding) ---

  /// Hierarchical directory resolution. Registrations go *only* to the
  /// member's region anchor (address {region, 1}) and the DIF root (the
  /// anchor of region 1); everyone else resolves on miss by querying up
  /// (member -> anchor -> root), caching answers for 5 s, and honoring
  /// unregister/mobility invalidations. Replaces the flat mode's full
  /// directory flood; both modes apply every record by its stamp.
  bool dir_hierarchical = false;
};

inline std::vector<flow::QosCube> default_cubes() {
  flow::QosCube rel;
  rel.id = 0;
  rel.name = "reliable";
  rel.efcp_policy = "reliable";
  rel.reliable = true;
  rel.in_order = true;
  flow::QosCube unrel;
  unrel.id = 1;
  unrel.name = "unreliable";
  unrel.efcp_policy = "unreliable";
  unrel.reliable = false;
  unrel.in_order = false;
  return {rel, unrel};
}

}  // namespace rina::dif
