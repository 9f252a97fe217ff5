// rina_bench_compare — compare two sets of rina_bench runs.
//
//   rina_bench_compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//
// A and B are concatenated rina_bench stdout (e.g. the checked-in
// benchmark/baseline/<workload>.jsonl against fresh runs). Prints every
// metric's median and quartiles per set and exits 0 when the sets agree
// under compare.hpp's rule, 1 when they do not, 2 on unusable input.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "compare.hpp"

namespace {

bool read_lines(const std::string& path, std::vector<std::string>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::string bench_path = "BENCHMARK.json";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--benchmark" && i + 1 < argc) {
      bench_path = argv[++i];
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: rina_bench_compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]\n");
    return 2;
  }
  std::vector<std::string> sets[2];
  for (int s = 0; s < 2; ++s) {
    if (!read_lines(files[static_cast<std::size_t>(s)], sets[s])) {
      std::fprintf(stderr, "rina_bench_compare: cannot read %s\n",
                   files[static_cast<std::size_t>(s)].c_str());
      return 2;
    }
  }
  std::ifstream bj(bench_path);
  std::stringstream text;
  if (bj.is_open()) text << bj.rdbuf();
  auto benchmark = rina::bench::JsonParser::parse(text.str());
  if (!benchmark) {
    std::fprintf(stderr, "rina_bench_compare: cannot parse %s\n", bench_path.c_str());
    return 2;
  }
  rina::bench::CompareResult r = rina::bench::compare_runs(sets, *benchmark);
  std::cout << r.report;
  if (r.input_error) return 2;
  return r.ok ? 0 : 1;
}
