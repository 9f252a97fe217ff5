// report.hpp — the metric catalogue and the JSON lines a run prints.
//
// Every metric is one line:
//   {"workload":..,"seed":..,"metric":..,"value":..,"unit":..,
//    "kind":"e2e"|"layer","det":true|false[,"samples":n]}
// det marks a value derived from simulated time or counts: it repeats
// exactly for a given seed and code, so rina_bench_compare requires it
// to be identical. Then one {"workload","seed","digest","ok"} line, and
// last the summary object that BENCHMARK.json's runners read:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// whose metrics are kEndToEnd (untraced run) or kPerLayer (traced run).
// BENCHMARK.json lists the same two tables; test_catalogue keeps them
// in step.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace rina::bench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

/// Wall-clock end-to-end metrics, reported by every workload's untraced run.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"sim_rate", "sim_s/s", "higher"},
    {"peak_rss_mb", "MB", "lower"},
    {"delivery_ratio", "ratio", "higher"},
};

/// Per-layer metrics, reported by every workload's traced run. Counts
/// cover set-up plus the reference window; *_per_op ratios cover the
/// reference window alone; *_ns and *_s are wall time.
inline constexpr MetricDef kPerLayer[] = {
    {"packet.copies_per_op", "count", "lower"},
    {"packet.allocs_per_op", "count", "lower"},
    {"packet.arena_hit_rate", "ratio", "higher"},
    {"packet.encode_ns", "ns", "lower"},
    {"packet.decode_ns", "ns", "lower"},
    {"efcp.r0.pdus_tx", "count", "lower"},
    {"efcp.r1.pdus_tx", "count", "lower"},
    {"efcp.r2.pdus_tx", "count", "lower"},
    {"efcp.r0.acks_tx", "count", "lower"},
    {"efcp.r1.acks_tx", "count", "lower"},
    {"efcp.r2.acks_tx", "count", "lower"},
    {"efcp.r0.pdus_retx", "count", "lower"},
    {"efcp.r1.pdus_retx", "count", "lower"},
    {"efcp.r2.pdus_retx", "count", "lower"},
    {"efcp.r0.pdus_dup", "count", "lower"},
    {"efcp.r1.pdus_dup", "count", "lower"},
    {"efcp.r2.pdus_dup", "count", "lower"},
    {"efcp.r0.reorder_drops", "count", "lower"},
    {"efcp.r1.reorder_drops", "count", "lower"},
    {"efcp.r2.reorder_drops", "count", "lower"},
    {"efcp.useful_ratio", "ratio", "higher"},
    {"efcp.srtt_us", "us", "lower"},
    {"efcp.cwnd_pdus", "count", "higher"},
    {"efcp.rto_fired", "count", "lower"},
    {"rmt.r0.relayed", "count", "lower"},
    {"rmt.r1.relayed", "count", "lower"},
    {"rmt.r2.relayed", "count", "lower"},
    {"rmt.r0.pdus_out", "count", "lower"},
    {"rmt.r1.pdus_out", "count", "lower"},
    {"rmt.r2.pdus_out", "count", "lower"},
    {"rmt.queue_peak", "count", "lower"},
    {"rmt.drops", "count", "lower"},
    {"rmt.ecn_marked", "count", "lower"},
    {"relay.lookup_ns", "ns", "lower"},
    {"link.tx_frames", "count", "lower"},
    {"link.queue_drops", "count", "lower"},
    {"link.bytes_per_op", "B", "lower"},
    {"flow.write_ns", "ns", "lower"},
    {"flow.read_ns", "ns", "lower"},
    {"flow.would_block", "count", "lower"},
    {"flow.allocate_s", "s", "lower"},
    {"sim.events", "count", "lower"},
    {"sim.events_per_op", "count", "lower"},
    {"sim.pending_timers", "count", "lower"},
    {"sim.events_per_s", "1/s", "higher"},
    {"sim.ns_per_event", "ns", "lower"},
    {"sim.run_self_ns_per_op", "ns", "lower"},
    {"node.build_dif_s", "s", "lower"},
    {"node.converge_s", "s", "lower"},
    {"ipcp.mgmt_bytes", "B", "lower"},
    {"ipcp.lsus_flooded", "count", "lower"},
    {"ipcp.riep_sent", "count", "lower"},
    {"ipcp.keepalives_sent", "count", "lower"},
    {"ipcp.hellos_sent", "count", "lower"},
    {"routing.spf_runs", "count", "lower"},
    {"routing.spf_vertices", "count", "lower"},
    {"routing.dijkstra_ms", "ms", "lower"},
    {"naming.dir_lookup_ns", "ns", "lower"},
    {"naming.dir_cache_hits", "count", "higher"},
    {"rib.deltas_originated", "count", "lower"},
    {"rib.digest_rounds", "count", "lower"},
    {"stack.d1.ns_per_sdu", "ns", "lower"},
    {"stack.d2.ns_per_sdu", "ns", "lower"},
    {"stack.d3.ns_per_sdu", "ns", "lower"},
    {"stack.d4.ns_per_sdu", "ns", "lower"},
    {"stack.d1.bytes_per_sdu", "B", "lower"},
    {"stack.d2.bytes_per_sdu", "B", "lower"},
    {"stack.d3.bytes_per_sdu", "B", "lower"},
    {"stack.d4.bytes_per_sdu", "B", "lower"},
    {"stack.rank_ns", "ns", "lower"},
    {"stack.rank_bytes", "B", "lower"},
    {"cap.probes", "count", "lower"},
    {"cap.trial_s", "s", "lower"},
    {"trace.overhead_pct", "%", "lower"},
};

/// FNV-1a over a sequence of integers: the run's behaviour fingerprint.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

class Report {
 public:
  struct Line {
    std::string metric;
    double value;
    std::string unit;
    bool e2e;
    bool det;
    std::int64_t samples;  // -1 = not a percentile
  };

  Report(std::string workload, std::uint64_t seed)
      : workload_(std::move(workload)), seed_(seed) {}

  /// An end-to-end metric outside the catalogue (sim-derived).
  void e2e(const std::string& name, double v, const char* unit, bool det,
           std::int64_t samples = -1) {
    lines_.push_back({name, v, unit, true, det, samples});
  }
  /// A metric from kEndToEnd or kPerLayer; the unit comes from the table.
  void metric(const std::string& name, double v, bool det = false) {
    for (const MetricDef& d : kEndToEnd)
      if (name == d.name) return lines_.push_back({name, v, d.unit, true, det, -1});
    for (const MetricDef& d : kPerLayer)
      if (name == d.name) return lines_.push_back({name, v, d.unit, false, det, -1});
    std::fprintf(stderr, "rina_bench: metric %s is not in the catalogue\n", name.c_str());
    std::abort();
  }

  [[nodiscard]] const Line* find(const std::string& name) const {
    for (const Line& l : lines_)
      if (l.metric == name) return &l;
    return nullptr;
  }

  void print_lines(std::FILE* f) const {
    for (const Line& l : lines_) {
      std::fprintf(f,
                   "{\"workload\":\"%s\",\"seed\":%llu,\"metric\":\"%s\",\"value\":%.17g,"
                   "\"unit\":\"%s\",\"kind\":\"%s\",\"det\":%s",
                   workload_.c_str(), static_cast<unsigned long long>(seed_),
                   l.metric.c_str(), l.value, l.unit.c_str(), l.e2e ? "e2e" : "layer",
                   l.det ? "true" : "false");
      if (l.samples >= 0) std::fprintf(f, ",\"samples\":%lld", static_cast<long long>(l.samples));
      std::fprintf(f, "}\n");
    }
  }

  void print_digest(std::FILE* f, const std::string& digest, bool ok) const {
    std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"digest\":\"%s\",\"ok\":%s}\n",
                 workload_.c_str(), static_cast<unsigned long long>(seed_),
                 digest.c_str(), ok ? "true" : "false");
  }

  /// The run's last line. The metrics are exactly one catalogue
  /// table; a missing entry is a benchmark bug, reported by returning
  /// false before anything is printed.
  bool print_summary(std::FILE* f, bool traced, bool correct, std::uint64_t attempted,
                     std::uint64_t failed) const {
    std::string body;
    auto add = [&](const MetricDef& d) {
      const Line* l = find(d.name);
      if (l == nullptr) {
        std::fprintf(stderr, "rina_bench: metric %s was not measured\n", d.name);
        return false;
      }
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    body.empty() ? "" : ",", d.name, l->value, d.unit);
      body += buf;
      return true;
    };
    if (traced) {
      for (const MetricDef& d : kPerLayer)
        if (!add(d)) return false;
    } else {
      for (const MetricDef& d : kEndToEnd)
        if (!add(d)) return false;
    }
    std::fprintf(f,
                 "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
                 correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed), body.c_str());
    return true;
  }

 private:
  std::string workload_;
  std::uint64_t seed_;
  std::vector<Line> lines_;
};

}  // namespace rina::bench
