// test_compare — rina_bench_compare's rule on crafted run sets.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "compare.hpp"

using namespace rina::bench;

namespace {

int failures = 0;

const char* kBenchmark = R"({
  "end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "sim_rate", "unit": "sim_s/s", "better": "higher", "bound": 0.1}
  ]
})";

std::string metric(const char* w, int seed, const char* name, double v, bool det,
                   const char* kind = "e2e") {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"workload\":\"%s\",\"seed\":%d,\"metric\":\"%s\",\"value\":%.17g,"
                "\"unit\":\"u\",\"kind\":\"%s\",\"det\":%s}",
                w, seed, name, v, kind, det ? "true" : "false");
  return buf;
}

std::string digest(const char* w, int seed, const char* d, bool ok = true) {
  return std::string("{\"workload\":\"") + w + "\",\"seed\":" + std::to_string(seed) +
         ",\"digest\":\"" + d + "\",\"ok\":" + (ok ? "true" : "false") + "}";
}

/// One run's lines: wall metrics scaled by `speed`, fixed deterministic
/// ones, a digest, and the summary line.
std::vector<std::string> run(int seed, double speed, double latency = 0.25,
                             const char* dg = "00ff") {
  return {metric("wl", seed, "setup_s", 1.0 / speed, false),
          metric("wl", seed, "sim_rate", 2.0 * speed, false),
          metric("wl", seed, "latency_p50_ms", latency, true),
          metric("wl", seed, "sim.events", 1000 * speed, true, "layer"),
          digest("wl", seed, dg),
          "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{}}"};
}

std::vector<std::string> join(std::vector<std::vector<std::string>> runs) {
  std::vector<std::string> out;
  for (auto& r : runs) out.insert(out.end(), r.begin(), r.end());
  return out;
}

void expect(const char* scenario, std::vector<std::string> a, std::vector<std::string> b,
            bool want_ok) {
  auto bench = JsonParser::parse(kBenchmark);
  std::vector<std::string> sets[2] = {std::move(a), std::move(b)};
  CompareResult r = compare_runs(sets, *bench);
  if (r.ok == want_ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL %s: got %s, want %s\n%s", scenario, r.ok ? "pass" : "fail",
               want_ok ? "pass" : "fail", r.report.c_str());
}

}  // namespace

int main() {
  auto a = join({run(1, 1.00), run(1, 1.02), run(2, 0.98)});
  expect("same code", a, join({run(1, 0.99), run(2, 1.01), run(2, 1.03)}), true);
  expect("faster B", a, join({run(1, 1.5), run(2, 1.6)}), true);
  // sim_rate's bound is 10%, higher is better: 15% slower fails.
  expect("slower B beyond the bound", a, join({run(1, 0.85), run(2, 0.85)}), false);
  expect("slower B within the bound", a, join({run(1, 0.95), run(2, 0.95)}), true);
  expect("deterministic metric moved", a, join({run(1, 1.0, 0.26), run(2, 1.0)}), false);
  expect("deterministic metric at another seed may differ", a,
         join({run(3, 1.0, 0.5), run(2, 1.0)}), true);
  expect("digest moved", a, join({run(1, 1.0, 0.25, "00fe")}), false);
  auto failed = run(1, 1.0);
  failed[4] = digest("wl", 1, "00ff", false);
  expect("a run failed its checks", a, failed, false);
  auto wrong = run(1, 1.0);
  wrong.back() = "{\"correct\":false,\"attempted\":10,\"failed\":1,\"metrics\":{}}";
  expect("a run reported correct=false", a, wrong, false);
  auto missing = run(1, 1.0);
  missing.erase(missing.begin() + 1);  // no sim_rate
  expect("gated metric missing", a, missing, false);
  expect("garbage line", a, {"not json"}, false);
  expect("failed-check line", a,
         join({run(1, 1.0), {"{\"workload\":\"wl\",\"seed\":1,\"check\":\"order\",\"ok\":false}"}}),
         false);

  // Python's statistics.quantiles(data, n=4) on the same inputs.
  auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  if (std::fabs(q[0] - 2.75) > 1e-12 || std::fabs(q[1] - 5.5) > 1e-12 ||
      std::fabs(q[2] - 8.25) > 1e-12) {
    ++failures;
    std::fprintf(stderr, "FAIL quartiles of 1..10: %g %g %g\n", q[0], q[1], q[2]);
  }
  q = quartiles({3, 1, 2});
  if (q[0] != 1 || q[1] != 2 || q[2] != 3) {
    ++failures;
    std::fprintf(stderr, "FAIL quartiles of 1..3: %g %g %g\n", q[0], q[1], q[2]);
  }

  if (failures != 0) return 1;
  std::printf("test_compare: ok\n");
  return 0;
}
