// checks.hpp — the correctness checks the benchmark applies from
// outside the stack.
//
// Every SDU the benchmark offers is [seq u64][due_ns u64] followed by a
// seeded per-flow byte pattern. The sender stamps the time the SDU was
// due (open-loop: a stall delays everything queued behind it, and that
// wait counts); the receiving FlowLedger checks that each SDU is intact
// and the next in order. A failed check is recorded by name; the run
// then reports correct=false and exits non-zero.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "sim/time.hpp"

namespace rina::bench {

inline std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Failure {
  std::string check;
  std::string detail;
};

/// Named check failures collected over a run.
class Checks {
 public:
  void fail(std::string check, std::string detail) {
    failures_.push_back({std::move(check), std::move(detail)});
  }
  void require(bool ok, const char* check, const std::string& detail) {
    if (!ok) fail(check, detail);
  }
  /// A counter the workload must exercise. Stats::get returns 0 for an
  /// unknown name, so a renamed counter would otherwise silently zero
  /// the layer metric built on it.
  void require_nonzero(const std::string& what, std::uint64_t value) {
    require(value != 0, "counter_nonzero", what + " read 0");
  }

  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<Failure>& failures() const { return failures_; }

 private:
  std::vector<Failure> failures_;
};

/// The seeded SDU stream of one flow, seen from both ends. A refused
/// write consumes no sequence number — the next offer reuses it — so a
/// reliable in-order flow must deliver exactly seqs 0..accepted-1.
class FlowLedger {
 public:
  static constexpr std::size_t kHeader = 16;

  FlowLedger(std::uint64_t seed, std::uint32_t flow, std::size_t sdu_bytes)
      : pattern_(sdu_bytes < kHeader ? kHeader : sdu_bytes) {
    std::uint64_t s = seed * 0x100000001b3ULL ^ (0xF10Eull + flow);
    for (std::size_t i = 0; i < pattern_.size(); i += 8) {
      std::uint64_t w = splitmix64(s);
      for (std::size_t k = 0; k < 8 && i + k < pattern_.size(); ++k)
        pattern_[i + k] = static_cast<std::uint8_t>(w >> (8 * k));
    }
    tx_ = pattern_;
  }

  /// The next SDU to offer, due at `due`. Valid until the next call.
  BytesView next(SimTime due) {
    store_be64(tx_.data(), accepted_);
    store_be64(tx_.data() + 8, static_cast<std::uint64_t>(due.ns));
    return BytesView{tx_};
  }
  void accepted() {
    ++offered_;
    ++accepted_;
  }
  void refused() {
    ++offered_;
    ++refused_;
  }

  /// Classify one delivered SDU. Returns its one-way latency in ns (now
  /// minus its due stamp), or -1 when it is rejected: a wrong length or
  /// pattern byte (or a seq never accepted) is corrupt, a seq older than
  /// the next expected is a duplicate. A newer seq is delivered but
  /// counted as a gap in the order.
  std::int64_t receive(BytesView sdu, SimTime now) {
    if (sdu.size() != pattern_.size() ||
        std::memcmp(sdu.data() + kHeader, pattern_.data() + kHeader,
                    pattern_.size() - kHeader) != 0) {
      ++corrupt_;
      return -1;
    }
    BufReader r(sdu);
    std::uint64_t seq = r.get_u64();
    auto due = static_cast<std::int64_t>(r.get_u64());
    if (seq >= accepted_) {
      ++corrupt_;
      return -1;
    }
    if (seq < next_rx_) {
      ++dups_;
      return -1;
    }
    if (seq > next_rx_) ++gaps_;
    next_rx_ = seq + 1;
    ++delivered_;
    return now.ns - due;
  }

  /// After drain: every offer is either delivered or refused, each
  /// delivered SDU exactly once, in order and intact.
  void verify(Checks& c, const std::string& label) const {
    c.require(offered_ == delivered_ + refused_, "conservation",
              label + ": offered " + std::to_string(offered_) + " != delivered " +
                  std::to_string(delivered_) + " + refused " +
                  std::to_string(refused_));
    c.require(dups_ == 0, "duplicate", label + ": " + std::to_string(dups_) +
                                           " duplicate SDUs");
    c.require(corrupt_ == 0, "corrupt",
              label + ": " + std::to_string(corrupt_) + " corrupt SDUs");
    c.require(gaps_ == 0, "order",
              label + ": " + std::to_string(gaps_) + " out-of-order deliveries");
  }

  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  [[nodiscard]] std::uint64_t accepted_count() const { return accepted_; }
  [[nodiscard]] std::uint64_t refused_count() const { return refused_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

 private:
  Bytes pattern_;
  Bytes tx_;
  std::uint64_t offered_ = 0, accepted_ = 0, refused_ = 0;
  std::uint64_t next_rx_ = 0, delivered_ = 0;
  std::uint64_t dups_ = 0, corrupt_ = 0, gaps_ = 0;
};

/// control_churn's allocation outcomes: every name-only allocation must
/// open, land at the target's current home, and close at both ends
/// after its deallocation.
struct AllocTally {
  std::uint64_t attempted = 0;
  std::uint64_t opened = 0;
  std::uint64_t accepted_at_home = 0;
  std::uint64_t accepted_elsewhere = 0;
  std::uint64_t server_closed = 0;

  void verify(Checks& c) const {
    c.require(opened == attempted, "allocation",
              std::to_string(attempted - opened) + " of " + std::to_string(attempted) +
                  " allocations did not open");
    c.require(accepted_elsewhere == 0 && accepted_at_home == opened, "placement",
              std::to_string(accepted_at_home) + " accepts at the target's home, " +
                  std::to_string(accepted_elsewhere) + " elsewhere, for " +
                  std::to_string(opened) + " opened flows");
    c.require(server_closed == accepted_at_home + accepted_elsewhere, "release",
              std::to_string(accepted_at_home + accepted_elsewhere - server_closed) +
                  " accepted flows never closed");
  }
};

}  // namespace rina::bench
