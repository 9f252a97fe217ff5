// test_scheduler — event ordering, tie-breaking determinism, run_until
// semantics, SimTime arithmetic, and link rate/loss behavior, and the
// link FIFOs' memory: none until a frame is sent, a burst's ring given
// back once it drains, and no allocation per frame delivered across a
// shard boundary once warm.
#include "sim/link.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"

#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "test_util.hpp"

// Heap allocations and bytes requested by this process, for the link
// checks.
static std::size_t g_allocs = 0;
static std::size_t g_alloc_bytes = 0;

__attribute__((noinline)) void* operator new(std::size_t n) {
  ++g_allocs;
  g_alloc_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace rina;

static void simtime_math() {
  CHECK(SimTime::from_us(1).ns == 1000);
  CHECK(SimTime::from_ms(1).ns == 1000000);
  CHECK(SimTime::from_sec(1).ns == 1000000000);
  CHECK_NEAR(SimTime::from_ms(2.5).to_ms(), 2.5, 1e-9);
  CHECK_NEAR((SimTime::from_sec(1) - SimTime::from_ms(250)).to_sec(), 0.75, 1e-9);
  CHECK(SimTime{5} < SimTime{6});
  CHECK(SimTime{6} >= SimTime{6});
}

static void event_order() {
  sim::Scheduler s;
  std::vector<int> order;
  s.post_after(SimTime::from_ms(3), [&] { order.push_back(3); });
  s.post_after(SimTime::from_ms(1), [&] { order.push_back(1); });
  s.post_after(SimTime::from_ms(2), [&] { order.push_back(2); });
  // Same-time events run in insertion order.
  s.post_after(SimTime::from_ms(1), [&] { order.push_back(11); });
  s.run();
  CHECK(order == (std::vector<int>{1, 11, 2, 3}));
  CHECK(s.now() == SimTime::from_ms(3));
}

static void nested_scheduling() {
  sim::Scheduler s;
  int hits = 0;
  s.post_after(SimTime::from_ms(1), [&] {
    ++hits;
    s.post_after(SimTime::from_ms(1), [&] { ++hits; });
  });
  s.run();
  CHECK(hits == 2);
  CHECK(s.now() == SimTime::from_ms(2));
}

static void run_until_time() {
  sim::Scheduler s;
  int hits = 0;
  s.post_after(SimTime::from_ms(5), [&] { ++hits; });
  s.post_after(SimTime::from_ms(15), [&] { ++hits; });
  s.run_until(SimTime::from_ms(10));
  CHECK(hits == 1);
  CHECK(s.now() == SimTime::from_ms(10));  // clock advances even when idle
  s.run_for(SimTime::from_ms(10));
  CHECK(hits == 2);
}

static void run_until_pred() {
  sim::Scheduler s;
  int x = 0;
  s.post_after(SimTime::from_ms(2), [&] { x = 1; });
  bool got = s.run_until_pred([&] { return x == 1; }, SimTime::from_sec(1));
  CHECK(got);
  CHECK(s.now() == SimTime::from_ms(2));  // stops as soon as pred holds
  bool timeout = s.run_until_pred([&] { return x == 2; }, SimTime::from_ms(50));
  CHECK(!timeout);
}

static void link_serialization_rate() {
  sim::Scheduler s;
  sim::LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1 byte/us
  cfg.delay = SimTime::from_us(100);
  sim::Link link(s, cfg, 1);
  SimTime arrival{};
  link.b().set_receiver([&](Packet&&) { arrival = s.now(); });
  CHECK(link.a().send(Packet{Bytes(1000, 0)}));
  s.run();
  // 1000 bytes at 1 byte/us = 1 ms serialization + 100 us propagation.
  CHECK_NEAR(arrival.to_us(), 1100.0, 1.0);
  CHECK(link.counter("tx_frames") == 1);
  CHECK(link.counter("tx_frames_large") == 1);
  CHECK(link.counter("rx_frames") == 1);
}

static void link_down_loses_frames() {
  sim::Scheduler s;
  sim::LinkConfig cfg;
  sim::Link link(s, cfg, 1);
  int rx = 0;
  bool carrier_seen = true;
  link.b().set_receiver([&](Packet&&) { ++rx; });
  link.b().set_on_carrier([&](bool up) { carrier_seen = up; });
  CHECK(link.a().send(Packet{Bytes(64, 0)}));  // in flight...
  link.set_up(false);                  // ...when the carrier dies
  s.run();
  CHECK(rx == 0);
  CHECK(!carrier_seen);
  link.set_up(true);
  CHECK(link.a().send(Packet{Bytes(64, 0)}));
  s.run();
  CHECK(rx == 1);
}

static void link_queue_backpressure() {
  sim::Scheduler s;
  sim::LinkConfig cfg;
  cfg.rate_bps = 1e3;  // absurdly slow: everything queues
  cfg.queue_pkts = 2;
  sim::Link link(s, cfg, 1);
  CHECK(link.a().send(Packet{Bytes(10, 0)}));
  CHECK(link.a().send(Packet{Bytes(10, 0)}));
  CHECK(!link.a().send(Packet{Bytes(10, 0)}));  // FIFO full
  CHECK(link.counter("queue_drops") == 1);
}

static void link_tie_break_send_order() {
  // Two links delivering into the same node at the same instant: the
  // arrival order is pinned to SEND order (each send reserves its
  // serialization and delivery seqs at the moment of the send), not to
  // per-link drain order. L1 serializes a 10-byte frame in 10 ns, L2 in
  // 20 ns, both with 100 ns propagation: A(L1) lands alone at 110 ns,
  // then C(L1, queued behind A) and B(L2) tie at 120 ns — and C wins
  // because its send happened before B's.
  sim::Scheduler s;
  sim::LinkConfig fast, slow;
  fast.rate_bps = 8e9;
  fast.delay = SimTime{100};
  slow.rate_bps = 4e9;
  slow.delay = SimTime{100};
  sim::Link l1(s, fast, 1);
  sim::Link l2(s, slow, 2);
  std::vector<char> order;
  l1.b().set_receiver(
      [&](Packet&& p) { order.push_back(static_cast<char>(p.view()[0])); });
  l2.b().set_receiver(
      [&](Packet&& p) { order.push_back(static_cast<char>(p.view()[0])); });
  CHECK(l1.a().send(Packet{Bytes(10, 'A')}));
  CHECK(l1.a().send(Packet{Bytes(10, 'C')}));
  CHECK(l2.a().send(Packet{Bytes(10, 'B')}));
  s.run();
  CHECK(order == (std::vector<char>{'A', 'C', 'B'}));
  CHECK(s.now().ns == 120);
}

static void gilbert_elliott_loses() {
  sim::Scheduler s;
  sim::LinkConfig cfg;
  cfg.rate_bps = 1e9;
  sim::GilbertElliottLoss::Params ge;
  ge.p_good_to_bad = 0.2;
  ge.p_bad_to_good = 0.2;
  ge.loss_good = 0.05;
  ge.loss_bad = 0.6;
  cfg.ge = ge;
  sim::Link link(s, cfg, 7);
  int rx = 0;
  link.b().set_receiver([&](Packet&&) { ++rx; });
  for (int i = 0; i < 500; ++i) {
    (void)link.a().send(Packet{Bytes(32, 0)});
    s.run();
  }
  CHECK(rx < 500);  // some loss...
  CHECK(rx > 100);  // ...but not everything
  CHECK(link.counter("ge_lost") == 500 - static_cast<unsigned>(rx));
}

static void lossless_link_constructs_without_allocating() {
  sim::Scheduler s;
  sim::LinkConfig cfg;
  const std::size_t before = g_alloc_bytes;
  {
    sim::Link link(s, cfg, 1);
    CHECK(g_alloc_bytes == before);
    CHECK(link.fifo_bytes() == 0);
  }
  CHECK(g_alloc_bytes == before);
}

// A burst of 25 frames, 12x the FIFOs' first ring, sent after both
// rings have wrapped: every frame arrives in send order at the time
// rate and delay give it, and each equal-time event posted beside it
// fires before or after it by the order of post and send, as if every
// event had been scheduled at the send. Drained, the grown rings are
// given back; one more frame takes a small ring again.
static void link_fifo_burst_wraps_and_drains() {
  sim::Scheduler s;
  sim::LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1 byte/us: a 100-byte frame takes 100 us
  cfg.delay = SimTime::from_us(100);
  sim::Link link(s, cfg, 1);
  std::vector<std::pair<std::int64_t, int>> log;  // (us, frame k or -post)
  link.b().set_receiver([&](Packet&& p) {
    log.emplace_back(s.now().ns / 1000, static_cast<int>(p.view()[0]));
  });
  auto frame = [](int k) { return Packet{Bytes(100, static_cast<std::uint8_t>(k))}; };
  auto post = [&](std::int64_t us, int id) {
    s.post_at(SimTime::from_us(static_cast<double>(us)),
              [&log, &s, id] { log.emplace_back(s.now().ns / 1000, -id); });
  };

  // Frame k finishes serializing at (k+1)*100 us and lands 100 us later.
  post(200, 1);  // before frame 0's send: fires before frame 0 lands
  for (int k = 0; k < 3; ++k) CHECK(link.a().send(frame(k)));
  post(300, 2);  // after frame 1's send: fires after frame 1 lands
  const std::size_t small = link.fifo_bytes();
  CHECK(small > 0);

  // Two frames serialized and one delivered: both rings' heads moved, so
  // the next two sends wrap them, and the rest grow them from there.
  s.run_until(SimTime::from_us(250));
  post(600, 3);  // before frame 4's send
  constexpr int kFrames = 25;
  for (int k = 3; k < kFrames; ++k) CHECK(link.a().send(frame(k)));
  post(1000, 4);  // after frame 8's send
  CHECK(link.fifo_bytes() >= 8 * small);

  s.run();
  std::vector<std::pair<std::int64_t, int>> want;
  for (int k = 0; k < kFrames; ++k) {
    const std::int64_t at = (k + 2) * 100;
    if (at == 200 || at == 600) want.emplace_back(at, at == 200 ? -1 : -3);
    want.emplace_back(at, k);
    if (at == 300 || at == 1000) want.emplace_back(at, at == 300 ? -2 : -4);
  }
  CHECK(log == want);
  CHECK(link.counter("rx_frames") == kFrames);
  CHECK(link.fifo_bytes() == 0);

  CHECK(link.a().send(frame(kFrames)));
  s.run();
  CHECK(link.fifo_bytes() > 0);
  CHECK(link.fifo_bytes() <= small);
  CHECK(log.back().second == kFrames);
}

// A cross-shard direction queues a drained frame in the receiver's
// in-flight FIFO, as a send does on one shard: with a 100-byte frame
// sent every 10 us over a two-shard link, once the rings, the timer
// pool and the packet arena are warm, a delivered frame allocates
// nothing.
static void cross_shard_delivery_never_allocates() {
  sim::ShardedScheduler ss(2, 1);
  sim::LinkConfig cfg;
  cfg.delay = SimTime::from_us(100);
  sim::Link link(ss.shard(0), ss.shard(1), cfg, 1);
  ss.note_cross_delay(cfg.delay);
  link.set_cross(0, &ss.add_boundary(0, 1, 64));
  link.set_cross(1, &ss.add_boundary(1, 0, 64));
  std::uint64_t rx = 0;
  link.ep(1).set_receiver([&rx](Packet&& p) { rx += p.size() == 100 ? 1 : 0; });
  const Bytes payload(100, 7);
  sim::Timer sender = ss.shard(0).periodic(SimTime::from_us(10), [&link, &payload] {
    (void)link.ep(0).send(Packet::with_headroom(0, BytesView{payload}));
  });
  ss.run_for(SimTime::from_ms(5));  // warm
  const std::uint64_t rx0 = rx;
  const std::size_t before = g_allocs;
  ss.run_for(SimTime::from_ms(20));
  CHECK(rx - rx0 == 2000);
  CHECK(g_allocs == before);
  CHECK(link.counter("xshard_frames") == link.counter("tx_frames"));
}

int main() {
  simtime_math();
  event_order();
  nested_scheduling();
  run_until_time();
  run_until_pred();
  link_serialization_rate();
  link_down_loses_frames();
  link_queue_backpressure();
  link_tie_break_send_order();
  gilbert_elliott_loses();
  lossless_link_constructs_without_allocating();
  link_fifo_burst_wraps_and_drains();
  cross_shard_delivery_never_allocates();
  return TEST_MAIN_RESULT();
}
