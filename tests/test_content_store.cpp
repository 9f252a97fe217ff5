// test_content_store — ARC replacement mechanics: live/ghost list
// transitions, adaptive target, capacity eviction order and counter
// accounting.
#include "content/store.hpp"
#include "test_util.hpp"

using namespace rina;
using content::ContentStore;
using content::ObjectKey;

namespace {

ObjectKey key(std::uint64_t id) { return ObjectKey{"app", id}; }
Bytes obj(std::uint64_t id) {
  return Bytes(64, static_cast<std::uint8_t>(id & 0xFF));
}

void test_basic_hit_miss() {
  ContentStore cs(4);
  CHECK(cs.lookup(key(1)) == nullptr);
  CHECK(cs.stats().get("cs_misses") == 1);
  cs.insert(key(1), BytesView{obj(1)});
  CHECK(cs.stats().get("cs_inserts") == 1);
  const Bytes* v = cs.lookup(key(1));
  CHECK(v != nullptr && *v == obj(1));
  CHECK(cs.stats().get("cs_hits") == 1);
  // A touched entry moves to the frequency side.
  CHECK(cs.t2_size() == 1);
  CHECK(cs.t1_size() == 0);
}

void test_capacity_eviction_order() {
  ContentStore cs(4);
  for (std::uint64_t i = 0; i < 5; ++i)
    cs.insert(key(i), BytesView{obj(i)});
  // One-shot inserts fill T1; the fifth pushes out the LRU (key 0).
  CHECK(cs.size() == 4);
  CHECK(!cs.contains_live(key(0)));
  for (std::uint64_t i = 1; i < 5; ++i) CHECK(cs.contains_live(key(i)));
  CHECK(cs.stats().get("cs_evictions") == 1);
}

void test_ghost_promotion_and_target() {
  ContentStore cs(2);
  cs.insert(key(10), BytesView{obj(10)});
  cs.insert(key(11), BytesView{obj(11)});
  CHECK(cs.lookup(key(10)) != nullptr);
  CHECK(cs.lookup(key(11)) != nullptr);  // both now in T2
  CHECK(cs.t2_size() == 2);

  // A new key demotes T2's LRU (key 10) into the B2 ghost list.
  cs.insert(key(12), BytesView{obj(12)});
  CHECK(!cs.contains_live(key(10)));
  CHECK(cs.b2_size() == 1);

  // Re-inserting the B2 ghost is a ghost hit: it revives straight into
  // T2 (not T1) with fresh bytes.
  cs.insert(key(10), BytesView{obj(10)});
  CHECK(cs.stats().get("cs_ghost_hits") == 1);
  CHECK(cs.contains_live(key(10)));
  const Bytes* v = cs.lookup(key(10));
  CHECK(v != nullptr && *v == obj(10));
  CHECK(cs.b1_size() == 1);  // key 12 paid for the revival

  // A B1 ghost hit grows the recency target.
  std::size_t before = cs.target_t1();
  cs.insert(key(13), BytesView{obj(13)});  // demotes another entry
  cs.insert(key(12), BytesView{obj(12)});  // B1 ghost hit
  CHECK(cs.stats().get("cs_ghost_hits") == 2);
  CHECK(cs.target_t1() > before);
}

void test_scan_resistance() {
  // The ARC property LRU lacks: a frequency-hot working set survives a
  // long one-shot scan because REPLACE keeps taking T1 while it exceeds
  // the (still-zero) target.
  ContentStore cs(8);
  for (std::uint64_t i = 0; i < 4; ++i) {
    cs.insert(key(i), BytesView{obj(i)});
    CHECK(cs.lookup(key(i)) != nullptr);  // promote to T2
  }
  for (std::uint64_t s = 100; s < 200; ++s)  // scan of 100 one-shot keys
    cs.insert(key(s), BytesView{obj(s)});
  for (std::uint64_t i = 0; i < 4; ++i) CHECK(cs.contains_live(key(i)));
  CHECK(cs.size() == 8);  // live set stays at capacity through the scan
}

void test_recency_adaptation() {
  // Recency-favoring traffic: keys that come back shortly after falling
  // out of T1 hit in B1 and drag the target up — the opposite pull from
  // the scan test's frequency protection.
  ContentStore cs(4);
  cs.insert(key(100), BytesView{obj(100)});
  CHECK(cs.lookup(key(100)) != nullptr);
  cs.insert(key(101), BytesView{obj(101)});
  CHECK(cs.lookup(key(101)) != nullptr);  // T2 = {100, 101}
  cs.insert(key(1), BytesView{obj(1)});
  cs.insert(key(2), BytesView{obj(2)});
  cs.insert(key(3), BytesView{obj(3)});  // pushes key 1 into B1
  CHECK(cs.b1_size() == 1);
  CHECK(cs.target_t1() == 0);
  cs.insert(key(1), BytesView{obj(1)});  // B1 ghost hit
  CHECK(cs.target_t1() == 1);
  cs.insert(key(2), BytesView{obj(2)});  // key 2 paid for it: B1 again
  CHECK(cs.target_t1() == 2);
  CHECK(cs.stats().get("cs_ghost_hits") == 2);
}

void test_counter_accounting() {
  ContentStore cs(2);
  std::uint64_t lookups = 0;
  for (std::uint64_t i = 0; i < 6; ++i) {
    cs.insert(key(i % 3), BytesView{obj(i)});
    ++lookups;
    (void)cs.lookup(key(i % 4));
  }
  CHECK(cs.stats().get("cs_hits") + cs.stats().get("cs_misses") == lookups);
  // Every live entry was inserted; every departure from the live set
  // was counted as an eviction.
  CHECK(cs.stats().get("cs_inserts") >= cs.size());
}

}  // namespace

int main() {
  test_basic_hit_miss();
  test_capacity_eviction_order();
  test_ghost_promotion_and_target();
  test_scan_resistance();
  test_recency_adaptation();
  test_counter_accounting();
  return TEST_MAIN_RESULT();
}
