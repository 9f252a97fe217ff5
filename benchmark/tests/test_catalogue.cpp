// test_catalogue — BENCHMARK.json and the benchmark's own metric and
// workload tables must say the same thing: a metric renamed on one side
// only would leave the summary line without a value BENCHMARK.json lists.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "json.hpp"
#include "report.hpp"
#include "workloads.hpp"

using namespace rina::bench;

namespace {

int failures = 0;

void fail(const std::string& why) {
  ++failures;
  std::fprintf(stderr, "FAIL %s\n", why.c_str());
}

template <std::size_t N>
void same_table(const Json* list, const MetricDef (&table)[N], const char* what,
                bool bounded) {
  if (list == nullptr || !list->is(Json::Type::array) || list->items.size() != N) {
    fail(std::string(what) + ": size differs from the catalogue");
    return;
  }
  for (std::size_t i = 0; i < N; ++i) {
    const Json& m = list->items[i];
    std::set<std::string> keys;
    for (const auto& f : m.fields) keys.insert(f.first);
    std::set<std::string> want{"name", "unit", "better"};
    if (bounded) want.insert("bound");
    if (keys != want) fail(std::string(what) + "[" + std::to_string(i) + "]: keys");
    const Json* name = m.get("name");
    const Json* unit = m.get("unit");
    const Json* better = m.get("better");
    if (name == nullptr || name->str != table[i].name || unit == nullptr ||
        unit->str != table[i].unit || better == nullptr || better->str != table[i].better)
      fail(std::string(what) + "[" + std::to_string(i) + "]: expected " + table[i].name);
  }
}

}  // namespace

int main() {
  const char* path = std::getenv("RINA_BENCHMARK_JSON");
  std::ifstream in(path == nullptr ? "BENCHMARK.json" : path);
  std::stringstream text;
  text << in.rdbuf();
  auto j = JsonParser::parse(text.str());
  if (!j) {
    fail("BENCHMARK.json does not parse");
    return 1;
  }

  std::set<std::string> keys;
  for (const auto& f : j->fields) keys.insert(f.first);
  if (keys != std::set<std::string>{"command", "paths", "run_seconds", "workloads",
                                    "end_to_end", "per_layer"})
    fail("top-level keys");

  const Json* wl = j->get("workloads");
  const auto& names = workload_names();
  if (wl == nullptr || wl->items.size() != names.size()) {
    fail("workload count");
  } else {
    for (std::size_t i = 0; i < names.size(); ++i) {
      const Json* n = wl->items[i].get("name");
      if (n == nullptr || n->str != names[i]) fail("workload " + names[i]);
    }
  }

  same_table(j->get("end_to_end"), kEndToEnd, "end_to_end", true);
  same_table(j->get("per_layer"), kPerLayer, "per_layer", false);

  // setup_s carries the largest bound, and no bound exceeds 0.25.
  double setup_bound = 0, max_other = 0;
  if (const Json* e2e = j->get("end_to_end"))
    for (const Json& m : e2e->items) {
      const Json* b = m.get("bound");
      const Json* n = m.get("name");
      if (b == nullptr || n == nullptr) continue;
      if (!(b->number > 0 && b->number <= 0.25)) fail(n->str + ": bound out of (0, 0.25]");
      if (n->str == "setup_s") setup_bound = b->number;
      else max_other = std::max(max_other, b->number);
    }
  if (setup_bound < max_other) fail("setup_s must have the largest bound");

  if (failures != 0) return 1;
  std::printf("test_catalogue: ok\n");
  return 0;
}
