// compare.hpp — the rule rina_bench_compare applies to two sets of runs.
//
// Each set is the concatenated stdout of rina_bench runs (any workloads,
// any seeds). For every (workload, metric) the report shows each set's
// median and quartiles (Python statistics.quantiles' default method).
// The comparison fails when
//   - a deterministic metric (det=true) takes more than one value for
//     one (workload, seed) across both sets;
//   - the digests of one (workload, seed) differ;
//   - a run in either set failed a check;
//   - a BENCHMARK.json end-to-end metric is missing from one set, or
//     its median in set B is worse than set A's by more than its bound.
// Per-layer metrics are reported, never gated.
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "json.hpp"

namespace rina::bench {

/// Quartiles of `v` as Python's statistics.quantiles(v, n=4) gives them
/// (method "exclusive"); a single value is its own quartiles.
inline std::vector<double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n == 0) return {0, 0, 0};
  if (n == 1) return {v[0], v[0], v[0]};
  std::vector<double> q;
  const long m = n + 1;
  for (long i = 1; i < 4; ++i) {
    long j = std::clamp(i * m / 4, 1L, n - 1);
    long delta = i * m - j * 4;
    q.push_back((v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                 v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

struct CompareResult {
  bool ok = true;
  bool input_error = false;
  std::string report;
};

inline CompareResult compare_runs(const std::vector<std::string> sets[2], const Json& benchmark) {
  CompareResult res;
  auto say = [&](const std::string& s) { res.report += s + "\n"; };
  auto fail = [&](const std::string& s) {
    res.ok = false;
    say("FAIL " + s);
  };

  struct Metric {
    std::string unit;
    bool e2e = false;
    bool det = false;
    std::vector<double> values[2];
    std::map<std::uint64_t, std::set<double>> by_seed;
  };
  std::map<std::pair<std::string, std::string>, Metric> metrics;
  std::map<std::pair<std::string, std::uint64_t>, std::set<std::string>> digests;
  std::set<std::string> workloads[2];

  for (int s = 0; s < 2; ++s) {
    const char* set_name = s == 0 ? "A" : "B";
    for (std::size_t n = 0; n < sets[s].size(); ++n) {
      const std::string& line = sets[s][n];
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      auto j = JsonParser::parse(line);
      if (!j || !j->is(Json::Type::object)) {
        res.input_error = true;
        fail(std::string("set ") + set_name + " line " + std::to_string(n + 1) +
             " is not a JSON object");
        continue;
      }
      if (const Json* c = j->get("correct")) {
        if (!c->boolean) fail(std::string("set ") + set_name + " has a run with correct=false");
        continue;
      }
      const Json* wl = j->get("workload");
      const Json* seed = j->get("seed");
      if (wl == nullptr || seed == nullptr) continue;  // machine notes and the like
      const std::string& w = wl->str;
      auto sd = static_cast<std::uint64_t>(seed->number);
      workloads[s].insert(w);
      if (const Json* chk = j->get("check")) {
        fail(std::string("set ") + set_name + " " + w + " seed " + std::to_string(sd) +
             " failed check " + chk->str);
        continue;
      }
      if (const Json* d = j->get("digest")) {
        digests[{w, sd}].insert(d->str);
        const Json* ok = j->get("ok");
        if (ok != nullptr && !ok->boolean)
          fail(std::string("set ") + set_name + " " + w + " seed " + std::to_string(sd) +
               " reported ok=false");
        continue;
      }
      const Json* name = j->get("metric");
      const Json* value = j->get("value");
      if (name == nullptr || value == nullptr) continue;
      Metric& m = metrics[{w, name->str}];
      if (const Json* u = j->get("unit")) m.unit = u->str;
      if (const Json* k = j->get("kind")) m.e2e = k->str == "e2e";
      if (const Json* d = j->get("det")) m.det = d->boolean;
      m.values[s].push_back(value->number);
      if (m.det) m.by_seed[sd].insert(value->number);
    }
  }

  for (const auto& [key, digest_set] : digests)
    if (digest_set.size() > 1)
      fail(key.first + " seed " + std::to_string(key.second) + ": " +
           std::to_string(digest_set.size()) + " different digests");

  auto fmt = [](const std::vector<double>& v) {
    if (v.empty()) return std::string("-");
    std::vector<double> q = quartiles(v);
    double lo = *std::min_element(v.begin(), v.end());
    double hi = *std::max_element(v.begin(), v.end());
    char buf[200];
    std::snprintf(buf, sizeof buf, "median %.6g [q1 %.6g, q3 %.6g] n=%zu spread %.1f%%", q[1],
                  q[0], q[2], v.size(), q[1] == 0 ? 0.0 : 100.0 * (hi - lo) / q[1]);
    return std::string(buf);
  };

  // Gated end-to-end metrics: every one must be present in both sets for
  // every workload either set ran.
  const Json* e2e = benchmark.get("end_to_end");
  if (e2e == nullptr || !e2e->is(Json::Type::array)) {
    res.input_error = true;
    fail("BENCHMARK.json has no end_to_end list");
    return res;
  }
  std::set<std::string> all_workloads = workloads[0];
  all_workloads.insert(workloads[1].begin(), workloads[1].end());
  for (const std::string& w : all_workloads) {
    for (const Json& def : e2e->items) {
      const Json* name = def.get("name");
      const Json* bound = def.get("bound");
      const Json* better = def.get("better");
      if (name == nullptr || bound == nullptr || better == nullptr) continue;
      auto it = metrics.find({w, name->str});
      if (it == metrics.end() || it->second.values[0].empty() ||
          it->second.values[1].empty()) {
        fail(w + " " + name->str + ": missing from set " +
             (it == metrics.end() || it->second.values[0].empty() ? "A" : "B"));
        continue;
      }
      double a = quartiles(it->second.values[0])[1];
      double b = quartiles(it->second.values[1])[1];
      double worse = better->str == "lower" ? (b - a) / a : (a - b) / a;
      if (a == 0 || worse > bound->number) {
        char buf[160];
        std::snprintf(buf, sizeof buf, ": B's median %.6g is %.1f%% worse than A's %.6g (bound %.1f%%)",
                      b, 100.0 * worse, a, 100.0 * bound->number);
        fail(w + " " + name->str + buf);
      }
    }
  }

  for (const auto& [key, m] : metrics) {
    std::string line = key.first + " " + key.second + " (" + m.unit + (m.det ? ", det" : "") +
                       (m.e2e ? ", e2e" : ", layer") + ")\n    A: " + fmt(m.values[0]) +
                       "\n    B: " + fmt(m.values[1]);
    say(line);
    if (!m.det) continue;
    for (const auto& [seed, vals] : m.by_seed)
      if (vals.size() > 1) {
        if (m.e2e)
          fail(key.first + " " + key.second + " seed " + std::to_string(seed) + ": " +
               std::to_string(vals.size()) + " different values of a deterministic metric");
        else
          say("    note: seed " + std::to_string(seed) + " has " +
              std::to_string(vals.size()) + " different values");
      }
  }
  say(res.ok ? "PASS" : "FAIL");
  return res;
}

}  // namespace rina::bench
