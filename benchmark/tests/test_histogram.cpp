// test_histogram — the bounded latency histogram against an exact sort.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "checks.hpp"
#include "histogram.hpp"

using namespace rina::bench;

namespace {

int failures = 0;

void expect(bool ok, const char* what, double p, double got, double want) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL %s: p%.1f got %.0f want %.0f\n", what, p, got, want);
}

/// Every percentile the benchmark reports (and the extremes) must sit
/// within 1% of the exact nearest-rank sample.
void check_against_sort(const char* what, const std::vector<std::uint64_t>& samples) {
  LogHistogram h;
  for (std::uint64_t v : samples) h.add(v);
  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  if (h.count() != sorted.size()) {
    ++failures;
    std::fprintf(stderr, "FAIL %s: count\n", what);
  }
  for (double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0}) {
    double exact = static_cast<double>(sorted[nearest_rank(p, sorted.size()) - 1]);
    double got = static_cast<double>(h.percentile(p));
    expect(std::fabs(got - exact) <= 0.01 * exact, what, p, got, exact);
  }
  expect(h.min() == sorted.front(), what, 0, static_cast<double>(h.min()),
         static_cast<double>(sorted.front()));
  expect(h.max() == sorted.back(), what, 100, static_cast<double>(h.max()),
         static_cast<double>(sorted.back()));
}

}  // namespace

int main() {
  std::uint64_t s = 42;
  const std::size_t n = 200000;

  std::vector<std::uint64_t> uniform, heavy, small, tight;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t r = splitmix64(s);
    uniform.push_back(r % 10'000'000'000ull);  // up to 10 s in ns
    // Log-uniform over 9 decades: every bucket scale gets samples.
    double u = static_cast<double>(r >> 11) * 0x1.0p-53;
    heavy.push_back(static_cast<std::uint64_t>(std::pow(10.0, 9.0 * u)));
    small.push_back(r % 300);                      // the exact buckets and the first octaves
    tight.push_back(250'000 + (r % 1000));         // a narrow latency band
  }
  check_against_sort("uniform", uniform);
  check_against_sort("log-uniform", heavy);
  check_against_sort("small", small);
  check_against_sort("tight", tight);
  check_against_sort("single", {123456789});

  // Below 128 every value is its own bucket: exact.
  LogHistogram exact;
  for (std::uint64_t v = 0; v < 128; ++v) exact.add(v);
  if (exact.percentile(50) != 63) {
    ++failures;
    std::fprintf(stderr, "FAIL exact buckets: p50 %llu\n",
                 static_cast<unsigned long long>(exact.percentile(50)));
  }

  // Fixed memory, whatever the sample count.
  static_assert(sizeof(LogHistogram) < 32 * 1024, "histogram must stay bounded");
  // Bucket edges tile the whole u64 range.
  for (std::size_t i = 0; i + 1 < LogHistogram::kBuckets; ++i)
    if (LogHistogram::lower_edge(i) + LogHistogram::width(i) != LogHistogram::lower_edge(i + 1)) {
      ++failures;
      std::fprintf(stderr, "FAIL bucket %zu does not meet bucket %zu\n", i, i + 1);
      break;
    }
  if (LogHistogram::index_of(~0ull) != LogHistogram::kBuckets - 1) {
    ++failures;
    std::fprintf(stderr, "FAIL top bucket\n");
  }

  // p99.9 of 10000 samples has exactly 10 beyond it.
  LogHistogram tenk;
  for (std::uint64_t v = 0; v < 10000; ++v) tenk.add(v);
  if (tenk.beyond(99.9) != 10) {
    ++failures;
    std::fprintf(stderr, "FAIL beyond(99.9) of 10000 = %llu\n",
                 static_cast<unsigned long long>(tenk.beyond(99.9)));
  }
  LogHistogram empty;
  if (empty.percentile(50) != 0 || empty.beyond(99.9) != 0) {
    ++failures;
    std::fprintf(stderr, "FAIL empty histogram\n");
  }

  if (failures != 0) return 1;
  std::printf("test_histogram: ok\n");
  return 0;
}
