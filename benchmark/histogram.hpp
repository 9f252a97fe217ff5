// histogram.hpp — bounded log-linear histogram for latency samples.
//
// HDR-style buckets over non-negative integers: every value below 128
// has a bucket of its own; above that, each power-of-two range
// [2^k, 2^(k+1)) is split into 64 equal buckets. A bucket is therefore
// at most 1/64 of its lower edge wide, and a percentile reports its
// bucket's midpoint, so it is within 1/128 (< 1%) of the exact sorted
// sample. Memory is fixed (~30 KB) whatever the sample count: millions
// of latency samples neither grow the peak RSS the benchmark reports
// nor cost a sort.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace rina::bench {

/// Nearest-rank definition shared by the histogram and its exact
/// reference: the 1-based rank of the p-th percentile of n samples,
/// ceil(p/100 * n) clamped to [1, n]. The epsilon keeps 99.9% of 10000
/// at rank 9990 despite 0.999 having no exact binary form.
inline std::uint64_t nearest_rank(double p, std::uint64_t n) {
  double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  if (r < 1.0) return 1;
  if (r > static_cast<double>(n)) return n;
  return static_cast<std::uint64_t>(r);
}

class LogHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kLinear = 1ull << kSubBits;  // exact buckets
  static constexpr std::uint64_t kPerOctave = kLinear / 2;
  static constexpr std::size_t kBuckets = kLinear + (64 - kSubBits) * kPerOctave;

  void add(std::uint64_t v) {
    ++counts_[index_of(v)];
    ++n_;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] std::uint64_t min() const { return n_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }

  /// Nearest-rank percentile, p in [0, 100]; 0 when empty. The result is
  /// the midpoint of the bucket holding that rank, clamped to the
  /// observed range.
  [[nodiscard]] std::uint64_t percentile(double p) const {
    if (n_ == 0) return 0;
    std::uint64_t rank = nearest_rank(p, n_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        std::uint64_t mid = lower_edge(i) + (width(i) - 1) / 2;
        return std::clamp(mid, min_, max_);
      }
    }
    return max_;
  }

  /// Samples strictly beyond the p-th percentile's rank — the guide's
  /// "at least ten samples beyond it" test for reporting a percentile.
  [[nodiscard]] std::uint64_t beyond(double p) const {
    return n_ == 0 ? 0 : n_ - nearest_rank(p, n_);
  }

  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const {
    return counts_;
  }

  static std::size_t index_of(std::uint64_t v) {
    if (v < kLinear) return static_cast<std::size_t>(v);
    int msb = 63 - __builtin_clzll(v);
    int shift = msb - (kSubBits - 1);  // >= 1
    std::uint64_t sub = v >> shift;    // in [kPerOctave, kLinear)
    return static_cast<std::size_t>(kLinear + static_cast<std::uint64_t>(shift - 1) * kPerOctave +
                                    (sub - kPerOctave));
  }
  static std::uint64_t lower_edge(std::size_t i) {
    if (i < kLinear) return i;
    std::size_t j = i - kLinear;
    int shift = static_cast<int>(j / kPerOctave) + 1;
    return (kPerOctave + j % kPerOctave) << shift;
  }
  static std::uint64_t width(std::size_t i) {
    if (i < kLinear) return 1;
    return 1ull << (static_cast<int>((i - kLinear) / kPerOctave) + 1);
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

}  // namespace rina::bench
