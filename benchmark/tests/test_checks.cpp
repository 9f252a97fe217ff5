// test_checks — every correctness check fires on a violating input and
// stays quiet on a clean one.
#include <cstdio>
#include <set>
#include <string>

#include "checks.hpp"

using namespace rina;
using namespace rina::bench;

namespace {

int failures = 0;

std::set<std::string> fired(const Checks& c) {
  std::set<std::string> names;
  for (const Failure& f : c.failures()) names.insert(f.check);
  return names;
}

void expect_fired(const char* scenario, const Checks& c, std::set<std::string> want) {
  if (fired(c) == want) return;
  ++failures;
  std::fprintf(stderr, "FAIL %s: fired {", scenario);
  for (const auto& n : fired(c)) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, " }, want {");
  for (const auto& n : want) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, " }\n");
}

/// Offer `n` SDUs (every one accepted) and return copies of them.
std::vector<Bytes> offer(FlowLedger& l, int n) {
  std::vector<Bytes> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(l.next(SimTime::from_us(10 * i)).to_bytes());
    l.accepted();
  }
  return out;
}

Checks verified(const FlowLedger& l) {
  Checks c;
  l.verify(c, "flow");
  return c;
}

}  // namespace

int main() {
  const SimTime now = SimTime::from_ms(5);
  {
    FlowLedger l(7, 1, 64);
    auto sdus = offer(l, 5);
    l.refused();  // a would_block: offered, never delivered
    for (const auto& s : sdus)
      if (l.receive(BytesView{s}, now) < 0) ++failures;
    expect_fired("clean stream with a refusal", verified(l), {});
    if (l.offered() != 6 || l.delivered() != 5) ++failures;
    // The latency is measured from the due stamp.
    FlowLedger m(7, 1, 64);
    auto one = offer(m, 1);
    if (m.receive(BytesView{one[0]}, now) != now.ns) ++failures;
  }
  {
    FlowLedger l(7, 1, 64);
    auto sdus = offer(l, 3);
    for (int i : {0, 1, 2}) (void)l.receive(BytesView{sdus[i]}, now);
    (void)l.receive(BytesView{sdus[1]}, now);
    expect_fired("duplicate", verified(l), {"duplicate"});
  }
  {
    FlowLedger l(7, 1, 64);
    auto sdus = offer(l, 3);
    for (int i : {0, 2, 1}) (void)l.receive(BytesView{sdus[i]}, now);
    // seq 1 after seq 2 looks like a duplicate of an already-passed seq;
    // the gap before seq 2 is the order fault, and seq 1 never counts as
    // delivered, so conservation fails too.
    expect_fired("reordered", verified(l), {"order", "duplicate", "conservation"});
  }
  {
    FlowLedger l(7, 1, 64);
    auto sdus = offer(l, 2);
    sdus[1][40] ^= 0x01;  // one payload bit
    for (const auto& s : sdus) (void)l.receive(BytesView{s}, now);
    expect_fired("flipped payload bit", verified(l), {"corrupt", "conservation"});
  }
  {
    FlowLedger l(7, 1, 64);
    auto sdus = offer(l, 2);
    sdus[1].pop_back();  // truncated
    for (const auto& s : sdus) (void)l.receive(BytesView{s}, now);
    expect_fired("truncated SDU", verified(l), {"corrupt", "conservation"});
  }
  {
    FlowLedger l(7, 1, 64);
    FlowLedger other(7, 2, 64);  // another flow's pattern
    auto sdus = offer(l, 1);
    auto foreign = offer(other, 1);
    (void)l.receive(BytesView{sdus[0]}, now);
    (void)l.receive(BytesView{foreign[0]}, now);
    expect_fired("SDU of another flow", verified(l), {"corrupt"});
  }
  {
    FlowLedger l(7, 1, 64);
    Bytes unsent = l.next(now).to_bytes();  // stamped but never accepted
    l.refused();
    (void)l.receive(BytesView{unsent}, now);
    expect_fired("seq never accepted", verified(l), {"corrupt"});
  }
  {
    FlowLedger l(7, 1, 64);
    auto sdus = offer(l, 3);
    (void)l.receive(BytesView{sdus[0]}, now);
    (void)l.receive(BytesView{sdus[1]}, now);
    expect_fired("lost SDU", verified(l), {"conservation"});
  }
  {
    Checks c;
    c.require_nonzero("rmt rank 1 relayed", 12);
    expect_fired("exercised counter", c, {});
    c.require_nonzero("rmt rank 1 relayed", 0);
    expect_fired("renamed or idle counter", c, {"counter_nonzero"});
  }
  {
    AllocTally t{10, 10, 10, 0, 10};
    Checks c;
    t.verify(c);
    expect_fired("clean allocations", c, {});
    Checks a;
    AllocTally{10, 9, 9, 0, 9}.verify(a);
    expect_fired("allocation that did not open", a, {"allocation"});
    Checks p;
    AllocTally{10, 10, 9, 1, 10}.verify(p);
    expect_fired("flow accepted away from home", p, {"placement"});
    Checks r;
    AllocTally{10, 10, 10, 0, 8}.verify(r);
    expect_fired("server side never closed", r, {"release"});
  }

  if (failures != 0) return 1;
  std::printf("test_checks: ok\n");
  return 0;
}
