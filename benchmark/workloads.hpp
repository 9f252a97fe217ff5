// workloads.hpp — the benchmark's four workloads behind one interface.
//
// A workload builds its network (set-up, timed), then advances its
// measured phase one step at a time until rina_bench's wall-clock budget
// is spent. The first reference_steps() steps are the reference window:
// a fixed stretch of simulated time (or, for control_churn, a fixed
// churn script) whose sim-derived results and counts are deterministic
// for a given seed. All loads are open-loop in simulated time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "common/packet.hpp"
#include "node/network.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace rina::bench {

inline constexpr int kMaxRank = 3;  // efcp.r0..r2 / rmt.r0..r2

/// Counters read through the public accessors, summed per rank. Taken
/// at the start of the measured phase, at the end of the reference
/// window and after the drain.
struct Snapshot {
  struct Rank {
    std::uint64_t pdus_tx = 0, acks_tx = 0, pdus_retx = 0, pdus_dup = 0,
                  reorder_drops = 0, relayed = 0, pdus_out = 0;
  };
  Rank rank[kMaxRank];
  std::uint64_t rmt_queue_peak = 0, rmt_drops = 0, ecn_marked = 0, rto_fired = 0;
  std::uint64_t srtt_us = 0, cwnd_pdus = 0, would_block = 0;
  std::uint64_t mgmt_bytes = 0, lsus_flooded = 0, riep_sent = 0, keepalives_sent = 0,
                hellos_sent = 0;
  std::uint64_t spf_runs = 0, spf_vertices = 0, dir_cache_hits = 0,
                deltas_originated = 0, digest_rounds = 0;
  std::uint64_t link_tx_frames = 0, link_tx_bytes = 0, link_queue_drops = 0;
  std::uint64_t events = 0, pending_timers = 0;
  std::uint64_t ops = 0;  // operations completed (SDUs delivered / flows opened)
  PacketCounters packet;

  /// Counter deltas since `b`; gauges (peaks, srtt, cwnd, pending) keep
  /// this snapshot's reading.
  [[nodiscard]] Snapshot since(const Snapshot& b) const {
    Snapshot d = *this;
    for (int k = 0; k < kMaxRank; ++k) {
      Rank& r = d.rank[k];
      const Rank& o = b.rank[k];
      r.pdus_tx -= o.pdus_tx;
      r.acks_tx -= o.acks_tx;
      r.pdus_retx -= o.pdus_retx;
      r.pdus_dup -= o.pdus_dup;
      r.reorder_drops -= o.reorder_drops;
      r.relayed -= o.relayed;
      r.pdus_out -= o.pdus_out;
    }
    using Field = std::pair<std::uint64_t*, std::uint64_t>;
    const Field counters[] = {
        {&d.rmt_drops, b.rmt_drops},
        {&d.ecn_marked, b.ecn_marked},
        {&d.rto_fired, b.rto_fired},
        {&d.would_block, b.would_block},
        {&d.mgmt_bytes, b.mgmt_bytes},
        {&d.lsus_flooded, b.lsus_flooded},
        {&d.riep_sent, b.riep_sent},
        {&d.keepalives_sent, b.keepalives_sent},
        {&d.hellos_sent, b.hellos_sent},
        {&d.spf_runs, b.spf_runs},
        {&d.spf_vertices, b.spf_vertices},
        {&d.dir_cache_hits, b.dir_cache_hits},
        {&d.deltas_originated, b.deltas_originated},
        {&d.digest_rounds, b.digest_rounds},
        {&d.link_tx_frames, b.link_tx_frames},
        {&d.link_tx_bytes, b.link_tx_bytes},
        {&d.link_queue_drops, b.link_queue_drops},
        {&d.events, b.events},
        {&d.ops, b.ops},
    };
    for (const auto& [mine, theirs] : counters) *mine -= theirs;
    d.packet.allocs -= b.packet.allocs;
    d.packet.payload_copies -= b.packet.payload_copies;
    d.packet.cow_copies -= b.packet.cow_copies;
    d.packet.headroom_reallocs -= b.packet.headroom_reallocs;
    d.packet.arena_hits -= b.packet.arena_hits;
    d.packet.arena_returns -= b.packet.arena_returns;
    return d;
  }
};

struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// A relay IPCP, a DIF's adjacency list and a directory to replay the
/// routing, relay and naming layers on inputs shaped like the workload's.
struct LayerProbe {
  std::string relay_node;
  naming::DifName relay_dif;
  naming::DifName graph_dif;
  std::vector<std::pair<std::string, std::string>> graph_edges;  // member pairs
  std::string dir_node;
  naming::DifName dir_dif;
  std::size_t pdu_bytes = 64;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Topology, enrollment, convergence, registrations and flow
  /// allocation: everything before the measured phase. Failures are
  /// recorded in `checks`; rina_bench stops on them.
  virtual void setup(Checks& checks) = 0;
  /// Arm the offered load.
  virtual void start() {}
  /// Advance the measured phase by one step.
  virtual void step() = 0;
  [[nodiscard]] virtual std::uint64_t reference_steps() const = 0;
  /// Timed chunks end only on a multiple of this many steps, so a
  /// workload whose steps differ in kind is timed over whole mixes.
  [[nodiscard]] virtual std::uint64_t chunk_steps() const { return 1; }
  /// Called once, right after the reference window's last step: record
  /// the deterministic end-to-end metrics and feed the digest.
  virtual void reference(Report& report, Digest& digest, Checks& checks) = 0;
  /// Operations completed so far: SDUs delivered, or flows opened.
  [[nodiscard]] virtual std::uint64_t progress() const = 0;
  /// Stop the load and let in-flight work land.
  virtual void finish() = 0;
  /// Outcome checks after finish(). `run` holds the measured phase's
  /// counter deltas, for the counters this workload must exercise.
  virtual void verify(Checks& checks, const Snapshot& run) = 0;
  [[nodiscard]] virtual Ops ops() const = 0;
  /// Work after the measured phase that has its own metrics (the
  /// capacity search); untimed for the e2e metrics.
  virtual void extra(Report& report, Digest& digest, Checks& checks, bool traced) {
    (void)report, (void)digest, (void)checks, (void)traced;
  }

  [[nodiscard]] virtual Snapshot snapshot() = 0;
  [[nodiscard]] virtual LayerProbe probe() const = 0;
  virtual node::Network& net() = 0;
};

/// The workload names, in BENCHMARK.json order.
inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames{"stack_datapath", "capacity_knee",
                                               "timer_scale", "control_churn"};
  return kNames;
}

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Tracer& tracer);

/// The layer ledger: stack_datapath's topology and load at `depth`
/// stacked ranks (1 = one flat DIF ... 4 = one more 2-member rank over
/// the workload's three), for a fixed stretch of simulated time.
struct DepthCost {
  double ns_per_sdu = 0;
  double bytes_per_sdu = 0;
};
DepthCost measure_depth(int depth, std::uint64_t seed, Tracer& tracer, Checks& checks);

}  // namespace rina::bench
