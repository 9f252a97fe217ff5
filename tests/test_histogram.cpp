// test_histogram — percentile math, empty-set behavior, Stats counters.
#include "common/stats.hpp"

#include "test_util.hpp"

using namespace rina;

static void empty_histogram() {
  Histogram h;
  CHECK(h.count() == 0);
  CHECK(h.mean() == 0.0);
  CHECK(h.max() == 0.0);
  CHECK(h.p50() == 0.0);
  CHECK(h.p99() == 0.0);
}

static void percentiles() {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  CHECK_NEAR(h.p50(), 50.5, 0.01);
  CHECK_NEAR(h.p99(), 99.01, 0.05);
  CHECK_NEAR(h.percentile(0), 1.0, 1e-9);
  CHECK_NEAR(h.percentile(100), 100.0, 1e-9);
  CHECK_NEAR(h.mean(), 50.5, 1e-9);
  CHECK_NEAR(h.max(), 100.0, 1e-9);
  CHECK_NEAR(h.min(), 1.0, 1e-9);

  // Insertion order must not matter.
  Histogram rev;
  for (int i = 100; i >= 1; --i) rev.add(static_cast<double>(i));
  CHECK_NEAR(rev.p50(), h.p50(), 1e-9);
  CHECK_NEAR(rev.p90(), h.p90(), 1e-9);
}

static void single_sample() {
  Histogram h;
  h.add(42.0);
  CHECK_NEAR(h.p50(), 42.0, 1e-9);
  CHECK_NEAR(h.p99(), 42.0, 1e-9);
  h.clear();
  CHECK(h.count() == 0);
  h.add(1.0);  // add-after-query-after-clear
  CHECK_NEAR(h.p99(), 1.0, 1e-9);
}

static void interleaved_add_query() {
  Histogram h;
  h.add(10.0);
  CHECK_NEAR(h.p50(), 10.0, 1e-9);
  h.add(20.0);  // invalidates the sorted cache
  CHECK_NEAR(h.p50(), 15.0, 1e-9);
}

static void stats_counters() {
  Stats s;
  CHECK(s.get("missing") == 0);
  s.inc("a");
  s.inc("a", 4);
  s.inc("b");
  CHECK(s.get("a") == 5);
  CHECK(s.get("b") == 1);
  Stats t;
  t.inc("a", 10);
  t.inc("c", 2);
  s.merge(t);
  CHECK(s.get("a") == 15);
  CHECK(s.get("c") == 2);
}

int main() {
  empty_histogram();
  percentiles();
  single_sample();
  interleaved_add_query();
  stats_counters();
  return TEST_MAIN_RESULT();
}
