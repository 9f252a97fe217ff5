// forwarding.hpp — the two-step forwarding table.
//
// Step 1 (routing): destination address -> set of next-hop *nodes*
// (equal-cost). Step 2 (late binding): next-hop node -> the point of
// attachment (port) used *right now*. Because step 2 is resolved per-PDU
// against live port state, losing one PoA to a still-reachable neighbor
// moves traffic on the very next PDU with zero routing activity — the
// paper's Figure 4 claim.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/packet.hpp"
#include "naming/names.hpp"

namespace rina::relay {

/// RMT-level port handle: one lower-level attachment (wire or N-1 flow).
using PortIndex = std::uint32_t;

/// One entry in an RMT egress queue: the PDU already encoded into its
/// wire frame (the PCI was prepended in place exactly once; drain
/// retries re-transmit the same Packet instead of re-encoding), plus the
/// QoS class priority it was queued under.
struct EgressFrame {
  std::uint8_t priority = 0;
  Packet frame;
};

enum class PoaPolicy {
  first_up,     // deterministic: first live PoA in discovery order
  round_robin,  // spread PDUs across live PoAs
};

enum class RmtSched {
  fifo,      // single egress queue per port
  priority,  // queue ordered by QoS class (lower qos_id first)
};

/// One port's RMT egress queues: bounded per QoS class, drained by the
/// DIF's scheduling discipline, with an explicit-congestion marking
/// threshold. This is where the paper's scoped congestion control is
/// anchored: depth past the threshold means *this DIF's* resource is
/// congested, so the RMT sets the ECN bit on the PDUs it queues and the
/// DIF's own EFCP senders back off — the signal never leaves the DIF.
/// Under `fifo` all classes share one bounded queue (class 0); under
/// `priority` each class gets its own bounded queue and the lowest
/// class value drains first.
class EgressQueues {
 public:
  struct Config {
    RmtSched sched = RmtSched::fifo;
    std::size_t capacity_pdus = 512;  // bound per class queue
    std::size_t mark_threshold = 0;   // depth that sets ECN; 0 = no marking
  };

  void configure(const Config& cfg) { cfg_ = cfg; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Should a PDU joining class `prio` carry a congestion mark?
  [[nodiscard]] bool should_mark(std::uint8_t prio) const {
    return cfg_.mark_threshold != 0 && depth(prio) >= cfg_.mark_threshold;
  }

  /// Would a frame of class `prio` be tail-dropped right now?
  [[nodiscard]] bool full(std::uint8_t prio) const {
    return depth(prio) >= cfg_.capacity_pdus;
  }

  /// Account a tail-drop of class `prio` (no per-drop allocation).
  void note_drop(std::uint8_t prio) {
    ++klass(cls(prio)).drops;
    ++total_drops_;
  }

  /// Queue a frame under class `prio`. False = that class's queue is
  /// full and the frame was NOT consumed; the drop is accounted here
  /// per class.
  [[nodiscard]] bool push(std::uint8_t prio, Packet& frame) {
    ClassQ& k = klass(cls(prio));
    if (k.q.size() >= cfg_.capacity_pdus) {
      note_drop(prio);
      return false;
    }
    k.q.push_back(EgressFrame{prio, std::move(frame)});
    ++total_;
    if (total_ > peak_) peak_ = total_;
    return true;
  }

  /// Tail-drop accounting, per class and total.
  [[nodiscard]] std::uint64_t drops(std::uint8_t prio) const {
    const ClassQ* k = find(cls(prio));
    return k == nullptr ? 0 : k->drops;
  }
  [[nodiscard]] std::uint64_t total_drops() const { return total_drops_; }

  [[nodiscard]] bool empty() const { return total_ == 0; }
  [[nodiscard]] std::size_t size() const { return total_; }
  /// High-water mark of the total queued depth since construction.
  [[nodiscard]] std::size_t peak() const { return peak_; }
  [[nodiscard]] std::size_t depth(std::uint8_t prio) const {
    const ClassQ* k = find(cls(prio));
    return k == nullptr ? 0 : k->q.size();
  }

  /// Next frame per the discipline: the most urgent non-empty class
  /// (classes_ is sorted by class value), FIFO within a class.
  /// Precondition: !empty().
  [[nodiscard]] EgressFrame& front() {
    for (ClassQ& k : classes_)
      if (!k.q.empty()) return k.q.front();
    static EgressFrame dummy;  // unreachable when the precondition holds
    return dummy;
  }

  void pop() {
    for (ClassQ& k : classes_) {
      if (k.q.empty()) continue;
      k.q.pop_front();
      --total_;
      return;
    }
  }

 private:
  /// Per-class queue + drop counter. A DIF uses a handful of QoS classes
  /// (one under fifo), so the class set is a small sorted vector scanned
  /// linearly — cheaper than a map node walk on the per-PDU path, and
  /// entries persist once created (stable drop counters, no churn).
  struct ClassQ {
    std::uint8_t cls = 0;
    std::deque<EgressFrame> q;
    std::uint64_t drops = 0;
  };

  [[nodiscard]] std::uint8_t cls(std::uint8_t prio) const {
    return cfg_.sched == RmtSched::fifo ? 0 : prio;
  }

  [[nodiscard]] const ClassQ* find(std::uint8_t c) const {
    for (const ClassQ& k : classes_)
      if (k.cls == c) return &k;
    return nullptr;
  }

  [[nodiscard]] ClassQ& klass(std::uint8_t c) {
    std::size_t i = 0;
    for (; i < classes_.size(); ++i) {
      if (classes_[i].cls == c) return classes_[i];
      if (classes_[i].cls > c) break;
    }
    ClassQ k;
    k.cls = c;
    classes_.insert(classes_.begin() + static_cast<std::ptrdiff_t>(i),
                    std::move(k));
    return classes_[i];
  }

  std::vector<ClassQ> classes_;  // sorted by cls; most urgent first
  std::uint64_t total_drops_ = 0;
  std::size_t total_ = 0;
  std::size_t peak_ = 0;
  Config cfg_;
};

class ForwardingTable {
 public:
  void set_next_hops(naming::Address dest, std::vector<naming::Address> hops) {
    next_hops_[dest] = std::move(hops);
    memo_hops_ = nullptr;
    memo_ports_ = nullptr;
  }

  /// Replace every route with `routes` — items with a `dest` and an
  /// iterable `hops`, dests strictly ascending — in one sorted merge. A
  /// route that stays keeps its map node and its vector's capacity, so
  /// re-installing an unchanged route set allocates nothing.
  template <typename Routes>
  void replace_routes(const Routes& routes) {
    auto it = next_hops_.begin();
    for (const auto& r : routes) {
      while (it != next_hops_.end() && it->first < r.dest) it = next_hops_.erase(it);
      if (it == next_hops_.end() || r.dest < it->first)
        it = next_hops_.emplace_hint(it, r.dest, std::vector<naming::Address>{});
      it->second.assign(r.hops.begin(), r.hops.end());
      ++it;
    }
    next_hops_.erase(it, next_hops_.end());
    memo_hops_ = nullptr;
    memo_ports_ = nullptr;
  }

  void set_neighbor_ports(naming::Address neighbor, std::vector<PortIndex> ports) {
    neighbor_ports_[neighbor] = std::move(ports);
    memo_hops_ = nullptr;
    memo_ports_ = nullptr;
  }

  void set_poa_policy(PoaPolicy p) { policy_ = p; }

  [[nodiscard]] std::size_t entry_count() const { return next_hops_.size(); }

  /// Two-step lookup: pick a next-hop node for `dest` (falling back to the
  /// region-wildcard entry if the DIF aggregates), then bind to a live
  /// port toward it. `up` reports current port liveness. Templated on the
  /// filter so per-PDU callers pass a raw lambda and the liveness probe
  /// inlines — this runs for every routed PDU and every writability poll.
  template <typename UpFn>
  [[nodiscard]] std::optional<PortIndex> lookup(naming::Address dest,
                                                const UpFn& up) const {
    // One-entry memo: per-PDU traffic overwhelmingly resolves the same
    // destination back to back (a host talks to one peer; a relay's
    // transit flows converge on a few next hops), so remembering the
    // last map resolution skips both tree walks on the hot path. The
    // memo caches only the dest -> hops binding — port liveness and
    // round-robin state are still evaluated fresh per call — and every
    // table mutation drops it, so results are bit-identical.
    const std::vector<naming::Address>* hops;
    if (memo_hops_ != nullptr && memo_dest_ == dest) {
      hops = memo_hops_;
    } else {
      hops = find_hops(dest);
      if (hops == nullptr) hops = find_hops(dest.region_wildcard());
      if (hops == nullptr) return std::nullopt;
      memo_dest_ = dest;
      memo_hops_ = hops;
      memo_ports_ = nullptr;
    }
    for (const naming::Address& nh : *hops) {
      const std::vector<PortIndex>* pv;
      if (memo_ports_ != nullptr && memo_nh_ == nh) {
        pv = memo_ports_;
      } else {
        auto pit = neighbor_ports_.find(nh);
        pv = pit == neighbor_ports_.end() ? nullptr : &pit->second;
        memo_nh_ = nh;
        memo_ports_ = pv;
      }
      if (pv == nullptr || pv->empty()) continue;
      const auto& ports = *pv;
      if (policy_ == PoaPolicy::round_robin) {
        std::size_t n = ports.size();
        std::size_t& rr = rr_state_[nh];
        for (std::size_t i = 0; i < n; ++i) {
          PortIndex p = ports[(rr + i) % n];
          if (up(p)) {
            rr = (rr + i + 1) % n;
            return p;
          }
        }
      } else {
        for (PortIndex p : ports)
          if (up(p)) return p;
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] const std::map<naming::Address, std::vector<naming::Address>>&
  routes() const {
    return next_hops_;
  }

 private:
  [[nodiscard]] const std::vector<naming::Address>* find_hops(
      naming::Address key) const {
    auto it = next_hops_.find(key);
    return it == next_hops_.end() ? nullptr : &it->second;
  }

  std::map<naming::Address, std::vector<naming::Address>> next_hops_;
  std::map<naming::Address, std::vector<PortIndex>> neighbor_ports_;
  PoaPolicy policy_ = PoaPolicy::first_up;
  mutable std::map<naming::Address, std::size_t> rr_state_;
  // lookup()'s one-entry memo (see there). Pointers into the maps above
  // stay valid until a mutating call, which nulls them.
  mutable naming::Address memo_dest_{};
  mutable const std::vector<naming::Address>* memo_hops_ = nullptr;
  mutable naming::Address memo_nh_{};
  mutable const std::vector<PortIndex>* memo_ports_ = nullptr;
};

}  // namespace rina::relay
