// stats.hpp — named counters and a sample histogram.
//
// Stats is the one observability surface of the simulator: every component
// (RMT, enrollment, EFCP connections, links, baseline transports) exposes a
// Stats and the benches read it by counter name. get() on a missing name is
// 0, so benches can probe counters a configuration never increments.
//
// Sharding ownership rule: a Stats object belongs to the component that
// owns it, and every component lives on exactly ONE shard — so each
// Stats (and every slot() cell resolved from it) is written by a single
// worker thread only, with no atomics needed. Reads from other threads
// (benches, Network::sum_*) happen while workers are quiesced between
// scheduler windows; the window barrier orders the writes. The one
// component split across shards — the Link — keeps per-direction plain
// counters of its own instead of a Stats (see sim/link.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rina {

class Stats {
 public:
  void inc(const std::string& name, std::uint64_t by = 1) { counters_[name] += by; }

  /// Stable pointer to a counter's cell. std::map nodes never move, so a
  /// hot path can resolve the name once at construction and bump through
  /// the pointer afterwards, skipping the string lookup per event.
  [[nodiscard]] std::uint64_t* slot(const std::string& name) {
    return &counters_[name];
  }

  [[nodiscard]] std::uint64_t get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Fold another Stats into this one (used when aggregating per-connection
  /// stats into their allocator on teardown).
  void merge(const Stats& other) {
    for (const auto& [k, v] : other.counters_) counters_[k] += v;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
};

/// Unbinned sample histogram: stores every sample, sorts lazily on query.
/// Sample counts in the benches are small (≤ a few hundred thousand).
class Histogram {
 public:
  void add(double v) {
    samples_.push_back(v);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }

  [[nodiscard]] double mean() const {
    if (samples_.empty()) return 0.0;
    double s = 0;
    for (double v : samples_) s += v;
    return s / static_cast<double>(samples_.size());
  }

  [[nodiscard]] double max() const {
    if (samples_.empty()) return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
  }

  [[nodiscard]] double min() const {
    if (samples_.empty()) return 0.0;
    return *std::min_element(samples_.begin(), samples_.end());
  }

  [[nodiscard]] double percentile(double p) const {
    if (samples_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    auto lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  [[nodiscard]] double p50() const { return percentile(50.0); }
  [[nodiscard]] double p90() const { return percentile(90.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }

  void clear() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace rina
